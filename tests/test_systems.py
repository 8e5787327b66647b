import pytest

from pnlab import corpus
from pnlab.machine import Context, MachineConfig, Recorder, step
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
from pnlab.weights import WeightComputer


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
    rec = Recorder()
    WeightComputer(net, recorder=rec).report()
    assert rec.transitions
    assert check_stratification(rec.transitions) == []
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
        rec = Recorder()
        WeightComputer(net, recorder=rec).report()
        ok, witness = check_determinacy(
            net, extra_contexts=[c for c, _ in rec.transitions])
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
    rec = Recorder()
    WeightComputer(net, recorder=rec).report()
    assert check_sll_prefix(rec.transitions) == []


# --- recorder truncation ----------------------------------------------------


def test_recorder_counts_what_it_drops():
    rec = Recorder(limit=2)
    for i in range(5):
        rec.record(i, i + 1)
    assert rec.transitions == [(0, 1), (1, 2)] and rec.dropped == 3
    assert rec.truncation() == ("3 transition(s) past the recorder's limit of "
                                "2 were not recorded, so they went unchecked")
    assert Recorder().truncation() is None


def _recorded(net) -> int:
    rec = Recorder()
    WeightComputer(net, recorder=rec).report()
    assert rec.dropped == 0
    return len(rec.transitions)


def test_suite_reports_dropped_transitions(monkeypatch):
    from pnlab import suite
    from test_golden import _applied, _church

    net = _applied(_church(2, "t"))
    whole = suite.run_suite(nets={"church": net})
    total = _recorded(net)
    assert total > 5
    monkeypatch.setattr(suite, "Recorder", lambda: Recorder(limit=5))
    cut = suite.run_suite(nets={"church": net})
    assert cut == whole + [
        f"church: reversibility: {total - 5} transition(s) past the "
        "recorder's limit of 5 were not recorded, so they went unchecked"]


def test_soundness_fails_on_dropped_transitions(monkeypatch):
    import pnlab.systems as systems

    whole = {tag: verify_soundness(f(), tag).to_dict()
             for tag, f in (("ELL", corpus.ell_fixture),
                            ("SLL", corpus.sll_fixture),
                            ("LLL", corpus.lll_fixture))}
    assert not any(c["name"] == "recorder"
                   for d in whole.values() for c in d["checks"])
    monkeypatch.setattr(systems, "Recorder", lambda: Recorder(limit=1))
    for tag, f in (("ELL", corpus.ell_fixture), ("SLL", corpus.sll_fixture),
                   ("LLL", corpus.lll_fixture)):
        total = _recorded(f())
        cut = verify_soundness(f(), tag).to_dict()
        assert not cut["ok"]
        assert cut["checks"][-1] == {
            "name": "recorder", "ok": False,
            "detail": f"{total - 1} transition(s) past the recorder's limit "
                      "of 1 were not recorded, so they went unchecked"}
        assert cut["checks"][:len(whole[tag]["checks"])] == whole[tag]["checks"]
    # no MELL check reads the transitions, so MELL loses nothing by the limit
    copy = corpus.named_fixtures()["copy"]
    assert _recorded(copy) > 1
    assert verify_soundness(copy, "MELL").ok
