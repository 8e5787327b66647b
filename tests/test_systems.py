import subprocess
import sys
from pathlib import Path

import pytest

from pnlab import corpus
from pnlab.machine import Context, MachineConfig, step
from pnlab.net import retag
from pnlab.signatures import E, msig
from pnlab.systems import (
    SystemProfile,
    bounds,
    check_determinacy,
    check_membership,
    check_sll_prefix,
    check_stratification,
    verify_soundness,
)
from pnlab.weights import WeightComputer, canonical_walk


def test_profiles():
    assert "der" not in SystemProfile.of("ELL").allowed_labels
    assert "mux" in SystemProfile.of("SLL").allowed_labels
    assert SystemProfile.of("LLL").bang_box_max_doors == 1
    with pytest.raises(ValueError):
        SystemProfile.of("XLL")


def test_membership_examples(named_nets):
    copy = named_nets["copy"]
    bad = check_membership(copy, "ELL")
    assert bad and all("der" in b for b in bad)

    ladder = named_nets["ladder2"]
    for system in ("MELL", "ELL", "SLL", "LLL"):
        assert check_membership(ladder, system) == []

    # an LLL bang box with two premises violates the door limit
    from pnlab.formulas import Atom
    from pnlab.terms import Ax, Derelict, Promote, Weak, elaborate

    two_doors = elaborate(Promote(Derelict(Weak(Ax(Atom("a")), Atom("a")), 1)),
                          system="LLL")
    bad = check_membership(two_doors, "LLL")
    assert any("at most 1" in b for b in bad)


def test_stratification_on_ell_runs():
    net = corpus.ell_fixture()
    transitions = canonical_walk(WeightComputer(net)).transitions
    assert transitions
    assert check_stratification(transitions) == []
    assert check_stratification([]) == []


def test_sll_fixture_properties():
    net = corpus.sll_fixture()
    assert check_membership(net, "SLL") == []
    rep = verify_soundness(net, "SLL")
    assert rep.ok
    comp = WeightComputer(net)
    [e] = net.box_edges()
    # R = 3 <= |G| and W <= |G|^(depth+2)
    assert comp.cardinality(e, ()) == 3 <= net.size()
    assert comp.report().weight <= net.size() ** (net.net_depth() + 2)


def test_mux_routing_and_stuck_index():
    net = corpus.sll_fixture()
    [e] = net.box_edges()
    ok = step(net, Context(e, (), (msig(2),), "+"))
    assert len(ok) == 1
    out_of_range = Context(e, (), (msig(9),), "+")
    from pnlab.machine import is_final, run

    assert step(net, out_of_range) == []
    assert not is_final(net, out_of_range)
    assert run(net, out_of_range).kind == "stuck"


def test_mux_dual_pushes_index():
    net = corpus.sll_fixture()
    [e] = net.box_edges()
    [d] = step(net, Context(e, (), (msig(2),), "+"))
    back = step(net, Context(d.edge, d.us, d.stack, "-"))
    assert any(b.stack == (msig(2),) and b.edge == e for b in back)


def test_determinacy():
    for f in (corpus.lll_fixture, corpus.lll_sec_fixture):
        net = f()
        ok, witness = check_determinacy(
            net, extra_contexts=[c for c, _ in canonical_walk(
                WeightComputer(net)).transitions])
        assert ok, (f.__name__, witness)

    # a MELL box with two premises branches
    from pnlab.formulas import Atom
    from pnlab.terms import Ax, Derelict, Promote, Weak, elaborate

    net = elaborate(Promote(Derelict(Weak(Ax(Atom("a")), Atom("a")), 1)))
    ok, witness = check_determinacy(net)
    assert not ok and witness is not None
    assert len(step(net, witness)) == 2


def test_bounds_values():
    # substituting x=0 into the MELL polynomial: p(0, y) = 2y^2 + y
    assert bounds("MELL", 0, 7) == 2 * 49 + 7
    assert bounds("SLL", 0, 9) == 81  # x^(n+2) with n=0
    # the elementary recurrences: r_1(10) = 2^11, q_1(10) = 2^(10*2^11+1)
    assert bounds("ELL", 1, 10) == 10 * 2**11 * 2**(10 * 2**11 + 1)
    assert bounds("ELL", 0, 3) == 3 * 1 * 2**4
    assert bounds("LLL", 1, 3) == 3 * 3 * 9
    with pytest.raises(ValueError):
        bounds("MELL", -1, 3)


NEST_VERIFY_SCRIPT = """
from pnlab.systems import verify_soundness
from pnlab.terms import elaborate, parse_proof_term
nest = parse_proof_term("(promote " * 24 + "(ax a)" + ")" * 24)
checks = verify_soundness(elaborate(nest), "LLL").to_dict()["checks"]
print([c["detail"] for c in checks if c["name"] == "weight-bound"])
"""


def test_bounds_past_the_cap_are_not_built():
    """The LLL bound of a 24-deep promote nest, about size^(2^25), is
    reported as past the cap rather than built."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", NEST_VERIFY_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=20)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "['W=0; bound astronomically larger']\n"
    assert bounds("LLL", 40, 20) is None
    assert bounds("ELL", 2, 30) is None


def test_soundness_reports():
    for tag, f in (("ELL", corpus.ell_fixture), ("SLL", corpus.sll_fixture),
                   ("LLL", corpus.lll_fixture), ("LLL", corpus.lll_sec_fixture)):
        rep = verify_soundness(f(), tag)
        assert rep.ok, (tag, [c for c in rep.checks if not c[1]])


def test_soundness_rejects_wrong_system(named_nets):
    rep = verify_soundness(named_nets["copy"], "ELL")
    assert not rep.ok


def test_ladder_trivially_within_every_bound(named_nets):
    g = named_nets["ladder3"]
    for tag in ("ELL", "SLL", "LLL"):
        rep = verify_soundness(retag(g, tag) if tag == "LLL" else g, tag)
        assert rep.ok and rep.weight == 0


def test_ell_per_depth_inequalities():
    net = corpus.ell_fixture()
    comp = WeightComputer(net)
    size = net.size()
    from pnlab.systems import _ell_q, _ell_r

    for e in net.box_edges():
        d = net.depth(e)
        seqs = comp.canonical_sequences(e)
        assert len(seqs) <= _ell_r(d, size)
        for u in seqs:
            assert comp.cardinality(e, u) <= _ell_q(d, size)


def test_sll_prefix_stability():
    net = corpus.sll_fixture()
    transitions = canonical_walk(WeightComputer(net)).transitions
    assert transitions
    assert check_sll_prefix(transitions) == []


# --- the suite's checks of the canonical walk ---------------------------------


def test_suite_reports_a_transition_without_a_dual(monkeypatch):
    """A compiled entry that no longer steps back from dual(d) to dual(c)
    makes the taken transition c -> d irreversible."""
    from pnlab import suite
    from pnlab.machine import dual, table_entry
    from test_golden import _applied, _church

    net = _applied(_church(2, "t"))
    assert suite.run_suite(nets={"church": net}) == []
    c, d = canonical_walk(WeightComputer(net)).transitions[0]
    back = dual(d)
    entry = table_entry(net, back.edge, back.pol)

    def rule(us, st, config):
        succs = entry.rule(us, st, config)
        return [x for x in succs if x != dual(c)] if (us, st) == back[1:3] else succs

    monkeypatch.setitem(net._index.transitions, (back.edge, back.pol),
                        entry._replace(rule=rule))
    assert suite.run_suite(nets={"church": net}) == [
        f"church: reversibility: transition {c} -> {d} is not reversible"]


def test_suite_of_no_nets_checks_none(monkeypatch):
    """An empty dict of nets is no net to check, not the default corpus."""
    from pnlab import corpus, suite

    def full_corpus():
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(corpus, "full_corpus", full_corpus)
    assert suite.run_suite(nets={}) == []
    with pytest.raises(AssertionError, match="the corpus was built"):
        suite.run_suite()


def test_suite_lists_a_stuck_context_once(monkeypatch):
    """On the jump example the copy l(e) of e2 runs through the start of
    the copy l(e) of e5.  A compiled entry that gives that context no
    successor makes it stuck, and the suite lists it once, though two
    copies reach it."""
    from pnlab import suite
    from pnlab.families import gen_family
    from pnlab.machine import run, table_entry
    from pnlab.signatures import lsig

    net = gen_family("jump-example")
    assert suite.run_suite(nets={"jump": net}) == []
    comp = WeightComputer(net)
    assert lsig(E) in comp.copies("e2", ()) and lsig(E) in comp.copies("e5", ())
    c = Context("e5", (), (lsig(E),), "+")
    trace = []
    run(net, Context("e2", (), (lsig(E),), "+"), trace=trace)
    assert c in trace
    entry = table_entry(net, c.edge, c.pol)

    def rule(us, st, config):
        return [] if (us, st) == c[1:3] else entry.rule(us, st, config)

    monkeypatch.setitem(net._index.transitions, (c.edge, c.pol),
                        entry._replace(rule=rule))
    assert suite.run_suite(nets={"jump": net}) == [
        f"jump: no-stuck: stuck canonical context {c}"]


@pytest.mark.parametrize("system", ["ELL", "SLL", "LLL"])
def test_soundness_checks_read_the_canonical_transitions(monkeypatch, system):
    """A compiled entry changed at one canonical transition c -> d fails
    the check that reads it: d gains a signature (ELL), d's stack bottom
    changes (SLL), or c gets a second successor (LLL)."""
    from pnlab.machine import table_entry

    net = {"ELL": corpus.ell_fixture, "SLL": corpus.sll_fixture,
           "LLL": corpus.lll_fixture}[system]()
    name = {"ELL": "stratification", "SLL": "stack-prefix",
            "LLL": "determinacy"}[system]
    checks = verify_soundness(net, system).to_dict()["checks"]
    assert [k["ok"] for k in checks if k["name"] == name] == [True]
    transitions = canonical_walk(WeightComputer(net)).transitions
    c, d = next((c, d) for c, d in transitions
                if system != "SLL" or len(c.stack) >= 2)
    if system == "ELL":
        wrong = [d._replace(stack=d.stack + (E,))]
    elif system == "SLL":
        bottom = "o" if c.stack[0] == "a" else "a"
        wrong = [d._replace(stack=(bottom,) + d.stack[1:])]
    else:
        wrong = [d, d]
    entry = table_entry(net, c.edge, c.pol)

    def rule(us, st, config):
        return wrong if (us, st) == c[1:3] else entry.rule(us, st, config)

    monkeypatch.setitem(net._index.transitions, (c.edge, c.pol),
                        entry._replace(rule=rule))
    checks = verify_soundness(net, system).to_dict()["checks"]
    assert [k["ok"] for k in checks if k["name"] == name] == [False]


def test_injectivity_fails_where_two_copies_share_a_final(monkeypatch):
    """The injectivity case of the soundness checks: on the LLL fixture
    e2 and e5 each have the copies l(e) and r(e), which reach two final
    contexts.  A compiled entry changed to send r(e)'s start on e2 to the
    final context of l(e) fails injectivity(e2), and only it."""
    from pnlab.machine import table_entry
    from pnlab.signatures import lsig, rsig

    net = corpus.lll_fixture()
    checks = verify_soundness(net, "LLL").to_dict()["checks"]
    assert [(k["name"], k["ok"], k["detail"]) for k in checks
            if k["name"].startswith("injectivity")] == [
        ("injectivity(e2)", True, "2 final(s)"),
        ("injectivity(e5)", True, "2 final(s)")]
    comp = WeightComputer(net)
    assert comp.copies("e2", ()) == {lsig(E), rsig(E)}
    walk = canonical_walk(comp, [Context("e2", (), (lsig(E),), "+")])
    shared = walk.finals[0]
    c = Context("e2", (), (rsig(E),), "+")
    entry = table_entry(net, c.edge, c.pol)

    def rule(us, st, config):
        return [shared] if (us, st) == c[1:3] else entry.rule(us, st, config)

    monkeypatch.setitem(net._index.transitions, (c.edge, c.pol),
                        entry._replace(rule=rule))
    report = verify_soundness(net, "LLL")
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("injectivity(e2)",
                       f"copies {lsig(E)} and {rsig(E)} share {shared}")]
    assert not report.ok
