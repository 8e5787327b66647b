import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pnlab.families import gen_family
from pnlab.machine import (
    Context,
    MachineConfig,
    dual,
    is_final,
    parse_context,
    run,
    step,
)
from pnlab.net import CONCL, CONTR, DER, PREM, RLOLLI
from pnlab.signatures import (
    E,
    all_standard_sigs,
    leq,
    lsig,
    nsig,
    parse_sig,
    psig,
    rsig,
    sig_size,
    simplifications,
    standard,
    quasi_standard,
)
from pnlab.terms import Ax, Contr, Cut, Derelict, Promote, Weak, elaborate
from pnlab.formulas import Atom

A = Atom("a")


# --- signatures and the simplification order --------------------------------


def test_leq_examples():
    assert leq(E, E)
    assert leq(psig(E), nsig(E, E))
    assert not leq(rsig(E), lsig(E))


def _all_sigs(max_size):
    # every signature (including p and n) up to a size bound
    by_size = {1: [E]}
    for n in range(2, max_size + 1):
        acc = []
        for t in by_size[n - 1]:
            acc += [lsig(t), rsig(t), psig(t)]
        for k in range(1, n - 1):
            for t in by_size[k]:
                for u in by_size[n - 1 - k]:
                    acc.append(nsig(t, u))
        by_size[n] = acc
    return [t for n in range(1, max_size + 1) for t in by_size[n]]


def test_simplifications_examples_and_oracle():
    assert simplifications(E) == {E}
    assert simplifications(nsig(E, E)) == {nsig(E, E), psig(E)}
    assert simplifications(lsig(E)) == {lsig(E)}
    # oracle: exhaustive check of leq over all signatures of bounded size
    univ = _all_sigs(4)
    for t in _all_sigs(3):
        want = frozenset(u for u in univ if leq(u, t))
        assert simplifications(t) == want, t


@given(st.sampled_from(_all_sigs(4)))
def test_leq_reflexive(t):
    assert leq(t, t)


@given(st.sampled_from(_all_sigs(3)), st.sampled_from(_all_sigs(3)),
       st.sampled_from(_all_sigs(3)))
def test_leq_transitive_antisymmetric(t, u, v):
    if leq(t, u) and leq(u, v):
        assert leq(t, v)
    if leq(t, u) and leq(u, t):
        assert t == u


def test_standard_signatures_are_minimal():
    # a standard signature simplifies only to itself when on the small side
    univ = _all_sigs(4)
    for t in univ:
        if not standard(t):
            continue
        for u in univ:
            if leq(t, u):
                assert t == u, (t, u)


def test_standard_and_quasi_standard():
    assert standard(lsig(E)) and not standard(psig(E))
    assert quasi_standard(psig(E))
    assert quasi_standard(nsig(psig(E), E))
    assert not quasi_standard(nsig(E, psig(E)))
    for t in _all_sigs(4):
        if standard(t):
            assert quasi_standard(t)


def test_sig_parse_format_roundtrip():
    from pnlab.signatures import format_sig

    for t in _all_sigs(4):
        assert parse_sig(format_sig(t)) == t


# --- final stacks -----------------------------------------------------------


def test_final_stack_examples(copy_net):
    # a stack is final at a conclusion with polarity + (pos_final_stack) or
    # at a premise with polarity - (neg_final_stack)
    [concl] = [e.id for e in copy_net.edges.values()
               if copy_net.vertices[e.tgt[0]].label == CONCL]
    prem = min(e.id for e in copy_net.edges.values()
               if copy_net.vertices[e.src[0]].label == PREM)

    def pos_final_stack(v):
        return is_final(copy_net, Context(concl, (), v, "+"))

    def neg_final_stack(v):
        return is_final(copy_net, Context(prem, (), v, "-"))

    assert neg_final_stack((E, "a", nsig(E, E)))
    assert pos_final_stack((E, "a", "f", "a"))
    assert pos_final_stack((E,))
    assert not pos_final_stack((lsig(E),))
    assert not neg_final_stack((lsig(E),))
    assert pos_final_stack(("o",))  # a closed conclusion-side path


def test_final_context_cases(copy_net):
    e = copy_net.box_edges()[0]
    # a dereliction endpoint with the bare signature e is final
    der_edges = [ed.id for ed in copy_net.edges.values()
                 if copy_net.vertices[ed.tgt[0]].label == DER]
    c = Context(der_edges[0], (), (E,), "+")
    assert is_final(copy_net, c)
    assert step(copy_net, c) == []
    c2 = Context(der_edges[0], (), (lsig(E),), "+")
    assert not is_final(copy_net, c2)


# --- transitions ------------------------------------------------------------


def test_step_at_rlolli_pushes_a():
    g1 = gen_family("dr-ladder", 1)
    concl = g1.conclusion_edge()
    [d] = step(g1, Context(concl, (), ("a",), "-"))
    # arrives on the axiom loop with polarity +
    loop = [e.id for e in g1.edges.values() if e.src[0] == e.tgt[0]][0]
    assert d.edge == loop and d.pol == "+" and d.stack == ()
    [d2] = step(g1, d)
    assert d2.edge == concl and d2.stack == ("o",) and d2.pol == "+"


def test_box_negative_singleton_branches_per_premise():
    # a two-door box: promote a net with two premises
    term = Promote(Derelict(Weak(Ax(A), A), 1))
    net = elaborate(term)
    [be] = net.box_edges()
    assert net.premise_count(be) == 2
    succs = step(net, Context(be, (), (E,), "-"))
    assert len(succs) == 2
    assert all(d.stack == (E,) and d.pol == "-" for d in succs)


def test_final_context_has_no_successor(copy_net):
    e = copy_net.box_edges()[0]
    r = run(copy_net, Context(e, (), (lsig(E),), "+"))
    assert r.kind == "final"
    assert step(copy_net, r.context) == []


def test_dual_involution():
    c = Context("e1", (E,), ("a", E), "+")
    assert dual(dual(c)) == c
    assert dual(c).pol == "-"


def test_reversibility_on_recorded_transitions(all_nets):
    from pnlab.weights import WeightComputer, canonical_walk

    for name, net in all_nets.items():
        for c, d in canonical_walk(WeightComputer(net)).transitions:
            assert dual(c) in step(net, dual(d)), (name, c, d)


def test_determinism_outside_box_branching(all_nets):
    from pnlab.weights import WeightComputer, canonical_walk

    for name, net in all_nets.items():
        for c, _ in canonical_walk(WeightComputer(net)).transitions:
            succs = step(net, c)
            if len(succs) > 1:
                v = net.edges[c.edge]
                assert c.pol == "-" and len(c.stack) == 1, (name, c)
                assert c.edge in net.box_edges(), (name, c)


def test_dr_ladder_machine_recurrences():
    # both displayed recurrences, for a configurable range of n
    for n in (1, 2, 3, 4, 5, 6):
        g = gen_family("dr-ladder", n)
        concl = g.conclusion_edge()
        want = 8 * 2 ** (n - 1) - 6
        down = run(g, Context(concl, (), ("a",), "-"))
        assert down.kind == "final" and down.steps == want
        assert down.context == Context(concl, (), ("o",), "+")
        up = run(g, Context(concl, (), ("o",), "-"))
        assert up.kind == "final" and up.steps == want
        assert up.context == Context(concl, (), ("a",), "+")


def test_run_from_final_context_is_zero_steps(copy_net):
    e = copy_net.box_edges()[0]
    final = run(copy_net, Context(e, (), (lsig(E),), "+")).context
    again = run(copy_net, final)
    assert again.kind == "final" and again.steps == 0


def test_copy_example_runs(copy_net):
    e = copy_net.box_edges()[0]
    left = run(copy_net, Context(e, (), (lsig(E),), "+"))
    right = run(copy_net, Context(e, (), (rsig(E),), "+"))
    assert left.kind == right.kind == "final"
    assert left.context.stack == right.context.stack == (E,)
    assert left.context.edge != right.context.edge
    # the bare initial signature leaves the box-edge nowhere to go
    stuck = run(copy_net, Context(e, (), (E,), "+"))
    assert stuck.kind == "stuck" and stuck.steps == 0


def test_budget_exhaustion_reported():
    g = gen_family("dr-ladder", 6)
    r = run(g, Context(g.conclusion_edge(), (), ("a",), "-"),
            MachineConfig(step_budget=10))
    assert r.kind == "budget"


CHAIN_SCRIPT = """
import sys
from pnlab.machine import parse_context, run
from pnlab.terms import elaborate, parse_proof_term
t, f = "(promote (rtensor (ax a) (ax a)))", "(a * a)"
for _ in range(99):
    t, f = f"(cut {t} (promote (rtensor (ax {f}) (ax a))) 1)", f"({f} * a)"
net = elaborate(parse_proof_term(t))
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
start = parse_context(net, "concl / eps / e / -")
result, twin = run(net, start), run(net, start)
kinds = [o.kind for o in result.outcomes()]
print(len(kinds), *sorted(set(kinds)))
# two runs compare and are written without a frame per branch
assert result is not twin and result == twin and not result != twin
assert repr(result) == repr(twin) and repr(result).count("kind='branch'") == 100
list(twin.outcomes())[-1].steps += 1
assert result != twin
"""


def test_nested_branches_need_no_frame_per_branch():
    """A chain of 100 two-door boxes, whose run from the conclusion
    branches once per box, listed, and compared with and written as a
    second run, under a recursion limit 60 frames above the caller's
    depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", CHAIN_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["101", "stuck"]


def test_parse_context():
    g = gen_family("dr-ladder", 1)
    c = parse_context(g, "concl / eps / a / -")
    assert c.edge == g.conclusion_edge() and c.stack == ("a",)
    c2 = parse_context(g, f"{g.conclusion_edge()} / e l(e) / n(e,e) o / +")
    assert c2.us == (E, lsig(E)) and c2.stack == (nsig(E, E), "o")


def test_ell_stratification_and_mell_counterexample(named_nets):
    from pnlab.systems import check_stratification
    from pnlab import corpus
    from pnlab.weights import WeightComputer, canonical_walk

    comp = WeightComputer(corpus.ell_fixture())
    transitions = canonical_walk(comp).transitions
    assert transitions and check_stratification(transitions) == []

    # a dereliction pop changes the signature count; box-dig's copy runs
    # traverse two derelictions
    bad = check_stratification(
        canonical_walk(WeightComputer(named_nets["box-dig"])).transitions)
    assert bad, "a D-vertex transition must change the signature count"
