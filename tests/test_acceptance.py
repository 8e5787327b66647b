"""Acceptance criteria, one test per criterion, one printed line each.

Three criteria assert reference values that contradict the weight
definition the rest of the suite verifies (derivations in docs/DECISIONS.md):
the copy-example fixture's weight is pinned to 1 by the realized-cost
identity, yet the stated values demand 2.  Those tests are implemented
exactly as stated and marked strict-xfail; the definition-consistent
counterparts follow each one and pass.
"""

import pytest

from pnlab import corpus
from pnlab.families import gen_family
from pnlab.machine import Context, MachineConfig, dual, is_final, run, step
from pnlab.net import validate
from pnlab.rewrite import (
    ARROW,
    DOUBLE,
    TRIANGLE,
    BOX_KINDS,
    WEIGHT_KINDS,
    find_cuts,
    fire,
    normalize,
    reduction_metrics,
)
from pnlab.signatures import E, lsig, rsig, sig_size, simplifications
from pnlab.systems import (
    _ell_q,
    _ell_r,
    bounds,
    check_determinacy,
    check_stratification,
    verify_soundness,
)
from pnlab.weights import (
    WeightComputer,
    canonical_walk,
    check_subtree_property,
    is_canonical_context,
    weight,
)


def line(num, ok, text):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {text}")


@pytest.fixture(scope="module")
def nets():
    return corpus.full_corpus()


def test_criterion_01_exponential_path_family():
    ok = True
    for n in range(1, 13):
        g = gen_family("dr-ladder", n)
        r = run(g, Context(g.conclusion_edge(), (), ("a",), "-"))
        want = 8 * 2 ** (n - 1) - 6
        good = (r.kind == "final" and r.steps == want
                and r.context == Context(g.conclusion_edge(), (), ("o",), "+"))
        ok = ok and good
    line(1, ok, "token run on dr-ladder n=1..12 takes exactly 8*2^(n-1)-6 steps")
    assert ok


def test_criterion_02_ladder_normalization():
    ok = True
    for n in range(1, 13):
        g = gen_family("dr-ladder", n)
        nf, trace = normalize(g, ARROW)
        kinds = [s.kind for s in trace.steps]
        ok = ok and kinds == ["-o"] * (n - 1) and not find_cuts(nf)
        ok = ok and weight(g).weight == 0
    line(2, ok, "dr-ladder normalizes in n-1 arrow steps with null weight")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated copy set {e,l(e),r(e)} / R=3 / W=2 contradicts the weight "
    "definition: the bare signature e has no final run, and the realized "
    "cost identity pins W to the single duplication (see docs/DECISIONS.md)")
def test_criterion_03_copy_example_reference_values():
    g = gen_family("copy-example")
    comp = WeightComputer(g)
    [e] = g.box_edges()
    copies = comp.copies(e, ())
    rep = comp.report()
    _, trace = normalize(g, TRIANGLE)
    exp = sum(1 for s in trace.steps if s.kind in BOX_KINDS)
    ok = (copies == {E, lsig(E), rsig(E)} and comp.cardinality(e, ()) == 3
          and rep.weight == 2 and exp == 2)
    line(3, ok, "copy example: stated values copies={e,l(e),r(e)}, R=3, W=2, "
                "2 exponential steps")
    assert ok


def test_criterion_03b_copy_example_consistent_values():
    g = gen_family("copy-example")
    comp = WeightComputer(g)
    [e] = g.box_edges()
    copies = comp.copies(e, ())
    rep = comp.report()
    _, trace = normalize(g, TRIANGLE)
    consumed = sum(1 for s in trace.steps if s.kind in WEIGHT_KINDS)
    ok = (copies == {lsig(E), rsig(E)} and comp.cardinality(e, ()) == 2
          and rep.weight == 1 and consumed == 1)
    line(3, ok, "copy example (definition-consistent): copies={l(e),r(e)}, "
                "R=2, W=1 = weight-consuming steps")
    assert ok


def test_criterion_04_standardization(nets):
    ok = True
    for name, net in sorted(nets.items()):
        sa, za = reduction_metrics(net, ARROW)
        sd, zd = reduction_metrics(net, DOUBLE)
        if (sa, za) != (sd, zd):
            ok = False
    line(4, ok, f"[G] and <G> agree between arrow and double on {len(nets)} nets")
    assert ok


def _double_trace_steps(net):
    cur = net
    for _ in range(300):
        cuts = DOUBLE.permitted(find_cuts(cur))
        if not cuts:
            return
        cut = min(cuts, key=lambda c: (c.level, c.edge))
        nxt, _ = fire(cur, cut)
        yield cur, cut, nxt
        cur = nxt


@pytest.mark.xfail(
    strict=True,
    reason="the stated box-merge identity W_G = W_H + sum R contradicts the "
    "weight definition, which gives W_G = W_H + sum (R - 1); a box merge "
    "with R = 1 leaves the weight unchanged (see docs/DECISIONS.md)")
def test_criterion_05_monotonicity_as_stated(nets):
    ok = True
    for name, net in sorted(nets.items()):
        for cur, cut, nxt in _double_trace_steps(net):
            comp_g = WeightComputer(cur)
            wg = comp_g.report().weight
            wh = WeightComputer(nxt).report().weight
            if cut.kind in ("-o", "*", "forall", "D", "W"):
                ok = ok and wg == wh
            elif cut.kind == "!":
                total = sum(comp_g.cardinality(cut.edge, u)
                            for u in comp_g.canonical_sequences(cut.edge))
                ok = ok and wg == wh + total
            else:
                ok = ok and wg == wh + len(comp_g.canonical_sequences(cut.edge))
    line(5, ok, "per-rule weight identities as stated (+sum R for box merges)")
    assert ok


def test_criterion_05b_monotonicity_consistent(nets):
    ok = True
    t_strict = True
    for name, net in sorted(nets.items()):
        for cur, cut, nxt in _double_trace_steps(net):
            comp_g = WeightComputer(cur)
            rep_g = comp_g.report()
            comp_h = WeightComputer(nxt)
            rep_h = comp_h.report()
            wg, wh = rep_g.weight, rep_h.weight
            if cut.kind in ("-o", "*", "forall", "D", "W"):
                ok = ok and wg == wh
            elif cut.kind == "!":
                total = sum(comp_g.cardinality(cut.edge, u) - 1
                            for u in comp_g.canonical_sequences(cut.edge))
                ok = ok and wg == wh + total
            elif cut.kind == "X":
                ok = ok and wg == wh + len(comp_g.canonical_sequences(cut.edge))
            elif cut.kind == "N":
                ok = ok and wg == wh + len(comp_h.canonical_sequences(cut.edge))
            t_strict = t_strict and rep_g.t_value > rep_h.t_value
    line(5, ok and t_strict,
         "per-rule weight identities (definition-consistent) and strict T decrease")
    assert ok and t_strict


def test_criterion_06_theorem1_bound(nets):
    ok = True
    for name, net in sorted(nets.items()):
        steps, size = reduction_metrics(net, ARROW)
        w = weight(net).weight
        bound = bounds("MELL", w, net.size())
        ok = ok and steps <= bound and size <= bound
    line(6, ok, "[G] and <G> within (2|G|^2+|G|)(W+1) on the whole corpus")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="box merges consume no weight, so counting them among the "
    "weight-consuming steps breaks the identity on any net with a !-cut "
    "(see docs/DECISIONS.md)")
def test_criterion_07_theorem2_as_stated(nets):
    ok = True
    for name, net in sorted(nets.items()):
        w = weight(net).weight
        _, trace = normalize(net, TRIANGLE)
        exp = sum(1 for s in trace.steps if s.kind in BOX_KINDS)
        ok = ok and exp == w and len(trace.steps) >= w
    line(7, ok, "triangle !/X/N step count equals W (as stated)")
    assert ok


def test_criterion_07b_theorem2_consistent(nets):
    ok = True
    for name, net in sorted(nets.items()):
        w = weight(net).weight
        _, trace = normalize(net, TRIANGLE)
        consumed = sum(1 for s in trace.steps if s.kind in WEIGHT_KINDS)
        ok = ok and consumed == w and len(trace.steps) >= w
    line(7, ok, "triangle X/N step count equals W; total steps at least W")
    assert ok


def test_criterion_08_bound_lemma(nets):
    ok = True
    for name, net in sorted(nets.items()):
        comp = WeightComputer(net)
        rep = comp.report()
        for e, be in rep.entries.items():
            total = sum(be.cardinalities[u] for u in be.sequences)
            if total > rep.weight + 1:
                ok = False
    line(8, ok, "sum of cardinalities per box-edge stays within W+1")
    assert ok


def test_criterion_09_machine_properties(nets):
    reversible = canonical_ok = acyclic = no_stuck = True
    for name, net in sorted(nets.items()):
        comp = WeightComputer(net)
        rep = comp.report()
        acyclic = acyclic and rep.acyclic
        for c, d in canonical_walk(comp).transitions:
            if dual(c) not in step(net, dual(d)):
                reversible = False
        for e, be in rep.entries.items():
            for u in be.sequences:
                for t in be.copies[u]:
                    frontier = [Context(e, u, (t,), "+")]
                    seen = set(frontier)
                    while frontier:
                        c = frontier.pop()
                        if net.size() <= 12 and not is_canonical_context(net, c, comp):
                            canonical_ok = False
                        succs = step(net, c)
                        if not succs and not is_final(net, c):
                            no_stuck = False
                        for d2 in succs:
                            if d2 not in seen:
                                seen.add(d2)
                                frontier.append(d2)
    ok = reversible and canonical_ok and acyclic and no_stuck
    line(9, ok, f"reversibility {reversible}, canonicity preservation "
                f"{canonical_ok}, no canonical cycle {acyclic}, no stuck "
                f"canonical run {no_stuck}")
    assert ok


def test_criterion_10_subtree_property(nets):
    ok = True
    count = 0
    for name, net in sorted(nets.items()):
        comp = WeightComputer(net)
        for e in net.box_edges():
            for u in comp.canonical_sequences(e):
                for t in comp.copies(e, u):
                    count += 1
                    if not check_subtree_property(net, e, u, t, comp):
                        ok = False
    line(10, ok, f"subtree property holds for {count} discovered copies")
    assert ok


def test_criterion_11_cross_validation(nets):
    ok = True
    pairs = 0
    for name, net in sorted(nets.items()):
        if net.size() > 10:
            continue
        comp = WeightComputer(net)
        for e in net.box_edges():
            for u in comp.canonical_sequences(e):
                got = frozenset(t for t in comp.copies(e, u) if sig_size(t) <= 4)
                if got != comp.copies_bruteforce(e, u, 4):
                    ok = False
                pairs += 1
    line(11, ok, f"demand-driven copies match generate-and-test on {pairs} pairs")
    assert ok


def test_criterion_12_ell():
    net = corpus.ell_fixture()
    comp = WeightComputer(net)
    rep = comp.report()
    transitions = canonical_walk(comp).transitions
    strat = check_stratification(transitions) == [] and transitions
    size = net.size()
    wbound = rep.weight <= bounds("ELL", net.net_depth(), size)
    per_edge = all(
        len(comp.canonical_sequences(e)) <= _ell_r(net.depth(e), size)
        and all(comp.cardinality(e, u) <= _ell_q(net.depth(e), size)
                for u in comp.canonical_sequences(e))
        for e in net.box_edges())
    ok = bool(strat) and wbound and per_edge
    line(12, ok, f"ELL stratification and W={rep.weight} within the "
                 "elementary recurrences")
    assert ok


def test_criterion_13_sll():
    net = corpus.sll_fixture()
    comp = WeightComputer(net)
    rep = comp.report()
    size = net.size()
    cards = all(comp.cardinality(e, u) <= size
                for e in net.box_edges()
                for u in comp.canonical_sequences(e))
    wbound = rep.weight <= size ** (net.net_depth() + 2)
    ok = cards and wbound
    line(13, ok, f"SLL R <= |G| and W={rep.weight} <= |G|^(depth+2)")
    assert ok


def test_criterion_14_lll():
    ok = True
    for f in (corpus.lll_fixture, corpus.lll_sec_fixture):
        net = f()
        comp = WeightComputer(net)
        rep = comp.report()
        det, _ = check_determinacy(
            net,
            extra_contexts=[c for c, _ in canonical_walk(comp).transitions])
        wbound = rep.weight <= bounds("LLL", net.net_depth(), net.size())
        ok = ok and det and wbound
    line(14, ok, "LLL strong determinacy and W within the light recurrences")
    assert ok


def test_criterion_15_jump_regression():
    net = gen_family("jump-example")
    rep = weight(net)
    off = weight(net, MachineConfig(jumps_enabled=False))
    _, trace = normalize(net, TRIANGLE)
    duplications = sum(1 for s in trace.steps if s.kind in WEIGHT_KINDS)
    ok = (off.weight < duplications and not off.strictly_positive
          and rep.weight == duplications
          and sum(1 for s in trace.steps if s.kind in BOX_KINDS) == rep.weight)
    line(15, ok, f"jump disabled undercounts ({off.weight} < {duplications}); "
                 "enabled realizes the weight")
    assert ok


def test_every_corpus_net_validates(nets):
    for name, net in sorted(nets.items()):
        assert validate(net) == [], name
