import re
import subprocess
import sys
from pathlib import Path

import pytest

from pnlab.families import gen_family
from pnlab.formulas import Atom
from pnlab.machine import BudgetExhausted, Context, MachineConfig
from pnlab.signatures import E, lsig, msig, nsig, psig, rsig, simplifications
from pnlab.terms import Ax, Cut, Derelict, Dig, Promote, elaborate
from pnlab.weights import (
    WeightComputer,
    WeightError,
    canonical_walk,
    check_subtree_property,
    is_canonical_context,
    weight,
)

A = Atom("a")


def test_copy_example_copies_and_weight(copy_net):
    comp = WeightComputer(copy_net)
    [e] = copy_net.box_edges()
    assert comp.copies(e, ()) == {lsig(E), rsig(E)}
    assert comp.cardinality(e, ()) == 2
    rep = comp.report()
    assert rep.weight == 1
    assert rep.strictly_positive and rep.acyclic


def test_cut_free_net_has_e_copies_and_zero_weight(named_nets):
    net = named_nets["nested"]  # box in box, cut against two derelictions
    nf, _ = __import__("pnlab.rewrite", fromlist=["normalize"]).normalize(net)
    comp = WeightComputer(nf)
    for e in nf.box_edges():
        seqs = comp.canonical_sequences(e)
        assert seqs == [(E,) * nf.depth(e)]
        assert comp.copies(e, seqs[0]) == {E}
        assert comp.cardinality(e, seqs[0]) == 1
    assert comp.report().weight == 0


def test_weight_and_t_for_ladders():
    for n in (1, 2, 3):
        g = gen_family("dr-ladder", n)
        rep = weight(g)
        assert rep.weight == 0
        assert rep.t_value == g.size() == 2 * n


def test_canonical_sequences_depth0_and_nested():
    box_in_box = elaborate(Cut(Promote(Promote(Ax(A))),
                               Derelict(Derelict(Ax(A), 1), 1), 1))
    comp = WeightComputer(box_in_box)
    outer = [e for e in box_in_box.box_edges() if box_in_box.depth(e) == 0]
    inner = [e for e in box_in_box.box_edges() if box_in_box.depth(e) == 1]
    assert comp.canonical_sequences(outer[0]) == [()]
    # inner sequences are exactly the copies of the outer edge on ()
    outer_copies = comp.copies(outer[0], ())
    assert set(comp.canonical_sequences(inner[0])) == {(t,) for t in outer_copies}


def test_bruteforce_oracle_agrees(all_nets):
    from pnlab.signatures import sig_size

    for name, net in all_nets.items():
        if net.size() > 10:
            continue
        comp = WeightComputer(net)
        for e in net.box_edges():
            for u in comp.canonical_sequences(e):
                got = frozenset(t for t in comp.copies(e, u) if sig_size(t) <= 4)
                assert got == comp.copies_bruteforce(e, u, 4), (name, e, u)


def test_dig_cardinality_identity(named_nets):
    """Digging then merging: R for the dug box counts the n-copies plus
    their p-simplifications, matching the brute-force oracle."""
    from pnlab.rewrite import find_cuts, fire

    net = named_nets["box-dig"]
    comp = WeightComputer(net)
    [g] = net.box_edges()
    copies = comp.copies(g, ())
    assert copies == {nsig(E, E)}
    assert comp.cardinality(g, ()) == 2  # n(e,e) and its simplification p(e)
    assert comp.cardinality(g, ()) == len(
        set().union(*[simplifications(t) for t in copies]))

    # after firing N: R_G(g, U) = R_H(j, U) + sum over copies t of j of
    # R_H(h, U + (t,)) with j the outer and h the inner box-edge
    [cut] = [c for c in find_cuts(net) if c.kind == "N"]
    h_net, _ = fire(net, cut)
    comp_h = WeightComputer(h_net)
    j = [e for e in h_net.box_edges() if h_net.depth(e) == 0][0]
    h = [e for e in h_net.box_edges() if h_net.depth(e) == 1][0]
    total = comp_h.cardinality(j, ())
    for t in comp_h.copies(j, ()):
        total += comp_h.cardinality(h, (t,))
    assert comp.cardinality(g, ()) == total


def test_copies_rejects_non_box_edge(copy_net):
    with pytest.raises(WeightError):
        WeightComputer(copy_net).copies(copy_net.conclusion_edge(), ())


def test_is_canonical_context(copy_net):
    comp = WeightComputer(copy_net)
    [e] = copy_net.box_edges()
    assert is_canonical_context(copy_net, Context(e, (), (lsig(E),), "+"), comp)
    # polarity must match the parity of the a-count
    assert not is_canonical_context(copy_net, Context(e, (), (lsig(E),), "-"), comp)
    assert not is_canonical_context(
        copy_net, Context(e, (), (lsig(E), "a"), "+"), comp)
    # the bare initial signature never reaches a final context here
    assert not is_canonical_context(copy_net, Context(e, (), (E,), "+"), comp)


def test_canonicity_preserved_along_steps(copy_net):
    from pnlab.machine import step

    comp = WeightComputer(copy_net)
    [e] = copy_net.box_edges()
    frontier = [Context(e, (), (t,), "+") for t in comp.copies(e, ())]
    seen = set(frontier)
    while frontier:
        c = frontier.pop()
        assert is_canonical_context(copy_net, c, comp), c
        for d in step(copy_net, c):
            if d not in seen:
                seen.add(d)
                frontier.append(d)


def test_subtree_property(all_nets):
    for name, net in all_nets.items():
        comp = WeightComputer(net)
        for e in net.box_edges():
            for u in comp.canonical_sequences(e):
                for t in comp.copies(e, u):
                    assert check_subtree_property(net, e, u, t, comp), (name, e, t)


def test_bound_lemma(all_nets):
    for name, net in all_nets.items():
        comp = WeightComputer(net)
        rep = comp.report()
        for e, be in rep.entries.items():
            total = sum(be.cardinalities[u] for u in be.sequences)
            assert total <= rep.weight + 1, (name, e)


def test_t_lower_bounds(all_nets):
    # T >= |I| + sum of door counts (the provable part of the size bound)
    for name, net in all_nets.items():
        rep = weight(net)
        doors = sum(net.premise_count(e) for e in net.box_edges())
        assert rep.t_value >= len(net.interior_vertices()) + doors, name


def test_jump_example_weight_and_regression(jump_net):
    rep = weight(jump_net)
    assert rep.weight == 2
    assert rep.strictly_positive

    off = weight(jump_net, MachineConfig(jumps_enabled=False))
    assert off.weight < rep.weight
    assert not off.strictly_positive

    # the observed duplications: two contraction steps under triangle
    from pnlab.rewrite import TRIANGLE, WEIGHT_KINDS, normalize

    _, trace = normalize(jump_net, TRIANGLE)
    dup = sum(1 for s in trace.steps if s.kind in WEIGHT_KINDS)
    assert dup == rep.weight == 2
    assert off.weight < dup


def test_weight_report_serialization(copy_net):
    rep = weight(copy_net)
    doc = rep.to_dict()
    assert doc["weight"] == 1
    [entry] = doc["boxes"].values()
    assert entry["sequences"][0]["copies"] == ["l(e)", "r(e)"]
    assert entry["sequences"][0]["cardinality"] == 2


def test_sll_copies_over_mux_alphabet():
    from pnlab import corpus

    net = corpus.sll_fixture()
    comp = WeightComputer(net)
    [e] = net.box_edges()
    assert comp.copies(e, ()) == {msig(1), msig(2), msig(3)}
    assert comp.cardinality(e, ()) == 3
    assert comp.report().weight == 2


def test_canonical_transitions_are_listed_once_within_one_budget():
    """Each transition once, also where a walk reaches a later start (on
    the jump example), and one step budget for the walks from every start
    together: half of it runs out on church 3, though no start walks that
    far."""
    jump = canonical_walk(
        WeightComputer(gen_family("jump-example"))).transitions
    assert len(set(jump)) == len(jump) == 4
    comp = WeightComputer(gen_family("church", (3,)))
    transitions = canonical_walk(comp).transitions
    assert len(set(transitions)) == len(transitions) > 100
    comp.config.step_budget = len(transitions)
    assert canonical_walk(comp).transitions == transitions
    comp.config.step_budget = len(transitions) // 2
    with pytest.raises(BudgetExhausted):
        canonical_walk(comp)


# W of composed (j, k), church j at type (t -> t) -> t -> t applied to
# church k, and of the ROADMAP's repro
COMPOSED_WEIGHTS = {(1, 1): 2, (1, 2): 8, (1, 3): 16,
                    (2, 1): 7, (2, 2): 39, (2, 3): 109,
                    (3, 1): 14, (3, 2): 130, (3, 3): 538}


def test_composed_numerals_have_every_copy():
    """The weights of the composed numerals, whose copies the search once
    missed.  The suite passes on (2,1) and (3,1); on (1,2), (2,2), (2,3)
    and the repro only Theorem 2 fails, whose check assumes one canonical
    sequence at every digging (ROADMAP item 2).  (2,3) is the net where a
    p-simplification of a hole inside the second child of an n breaks the
    N-step identity along the double strategy."""
    from test_shared_verify import REPRO

    from pnlab import suite

    nets = {f"compose-{j}-{k}": gen_family("compose", (j, k))
            for j, k in COMPOSED_WEIGHTS}
    for (j, k), w in COMPOSED_WEIGHTS.items():
        assert weight(nets[f"compose-{j}-{k}"]).weight == w, (j, k)
    assert weight(REPRO).weight == 19
    for name in ("compose-2-1", "compose-3-1"):
        assert suite.run_suite(nets={name: nets[name]}) == [], name
    for name in ("compose-1-2", "compose-2-2", "compose-2-3"):
        failed = suite.run_suite(nets={name: nets[name]})
        assert {line.split(": ")[1] for line in failed} == {"theorem2"}, name
        assert witnessed_gap(failed) == THEOREM2_GAPS[name], name
        if name == "compose-1-2":
            assert failed == [
                "compose-1-2: theorem2: exponential step count 7 differs from W = 8",
                "compose-1-2: theorem2: N step 5 at e7: |L_H(e7)| = 2"]
    failed = suite.run_suite(nets={"repro": REPRO})
    assert {line.split(": ")[1] for line in failed} == {"theorem2"}
    assert witnessed_gap(failed) == THEOREM2_GAPS["repro"]


# W - (#X + #N) along the triangle strategy, where Theorem 2's count fails
THEOREM2_GAPS = {"compose-1-2": 1, "compose-2-2": 4, "compose-2-3": 10,
                 "repro": 1}


def witnessed_gap(failed):
    """W - (#X + #N), read from the theorem2 line that states the count,
    after checking that the N-step witness lines (`N step i at e:
    |L_H(e)| = n`) account for all of it: n - 1 steps each."""
    count = re.fullmatch(r".*: exponential step count (\d+) differs from W = (\d+)",
                         failed[0])
    gap = int(count[2]) - int(count[1])
    witnesses = [int(re.fullmatch(r".*: N step \d+ at (e\d+): \|L_H\(\1\)\| = (\d+)",
                                  line)[2]) for line in failed[1:]]
    assert sum(n - 1 for n in witnesses) == gap, failed
    return gap


NEST_SCRIPT = """
import sys
from pnlab.formulas import Atom
from pnlab.terms import Ax, Promote, elaborate
from pnlab.weights import weight
term = Ax(Atom("a"))
for _ in range(100):
    term = Promote(term)
net = elaborate(term)
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
print(weight(net).weight)
"""


def test_canonical_sequences_need_no_frame_per_box():
    """A promote nest 100 deep, weighed under a recursion limit 60 frames
    above the caller's depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", NEST_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "0"


USES_SCRIPT = r"""
import sys
from pnlab.lam import from_lambda, parse_lambda, parse_type
from pnlab.weights import weight
uses = 30
net = from_lambda(parse_lambda("(\\x:t. h" + " x" * uses + ") z"),
                  {"h": parse_type("t -> " * uses + "t"), "z": parse_type("t")})
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
print(weight(net).weight)
"""


def test_deep_copies_need_no_frame_per_level():
    """(\\x:t. h x ... x) z with 30 uses of x, whose copies are signatures
    30 deep, weighed under a recursion limit 60 frames above the caller's
    depth: W = 2 * 30 - 1."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", USES_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "59"
