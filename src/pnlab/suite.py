"""Invariant suite over the built-in corpus, shared by the CLI and tests.

Each check returns a list of failure strings; run_suite aggregates them per
corpus net and prints one line per (net, check).  The machine checks read
one canonical walk per net (weights.canonical_walk): reversibility its
transitions, no-stuck its stuck contexts.  The weight checks read weight
reports, and monotonicity one report per net of the double-strategy walk.
"""

from __future__ import annotations

from . import corpus
from .machine import dual, step
from .net import ProofNet, validate
from .rewrite import DOUBLE, REWRITE_BUDGET, TRIANGLE, WEIGHT_KINDS, Walk
from .weights import WeightComputer, canonical_walk


def check_reversibility(net: ProofNet, transitions) -> list[str]:
    out = []
    for c, d in transitions:
        if dual(c) not in step(net, dual(d)):
            out.append(f"transition {c} -> {d} is not reversible")
    return out


def check_weight_invariants(net: ProofNet, comp: WeightComputer) -> list[str]:
    out = []
    rep = comp.report()
    if not rep.strictly_positive:
        out.append("some box-edge has no copy on a canonical sequence")
    if not rep.acyclic:
        out.append("a canonical cycle was observed")
    for e, be in rep.entries.items():
        total = sum(be.cardinalities[u] for u in be.sequences)
        if total > rep.weight + 1:
            out.append(f"bound lemma fails at {e}: {total} > W+1 = {rep.weight + 1}")
    return out


def check_no_stuck(stuck) -> list[str]:
    """No canonical run strands a token: the canonical walk's stuck
    contexts, one line each."""
    return [f"stuck canonical context {c}" for c in stuck]


def check_theorem2(net: ProofNet, comp: WeightComputer) -> list[str]:
    """The triangle strategy takes W steps of kinds X and N.  When the
    count differs, each N-step whose cut edge e, the inner box-edge of the
    box the step makes, has |L_H(e)| > 1 in the reduct H is named as a
    witness, with its index in the walk: the derivation of the count
    assumes one at every such step."""
    rep = comp.report()
    walk = Walk(net, TRIANGLE, REWRITE_BUDGET)
    steps = exp = 0
    digs = []  # (index, cut, reduct) of each N-step
    for steps, (cut, reduct, _) in enumerate(walk, 1):
        exp += cut.kind in WEIGHT_KINDS
        if cut.kind == "N":  # kept past the next step, which edits it
            digs.append((steps - 1, cut, reduct.copy()))
    if walk.cuts:
        return ["triangle normalization exhausted its budget"]
    out = []
    if exp != rep.weight:
        out.append(f"exponential step count {exp} differs from W = {rep.weight}")
        for i, cut, reduct in digs:
            n = len(WeightComputer(reduct, comp.config)
                    .canonical_sequences(cut.edge))
            if n > 1:
                out.append(f"N step {i} at {cut.edge}: |L_H({cut.edge})| = {n}")
    if steps < rep.weight:
        out.append("total step count fell below the weight")
    return out


def check_monotonicity(net: ProofNet, comp: WeightComputer) -> list[str]:
    """The per-rule weight identities along the double-strategy walk that
    normalize takes, read from the weight reports of consecutive nets.
    `comp` is the input net's computer; each later net gets its own, with
    the same machine configuration.

    For a box merge the displayed identity uses sum(R), but the weight
    definition pins the difference to sum(R - 1): merging removes one
    box-edge and every other cardinality is unchanged.  Digging adds the
    new inner box-edge's sequence count, one per copy of the outer box.
    """
    out = []
    walk = Walk(net, DOUBLE, REWRITE_BUDGET)
    rep_g = None
    for cut, nxt, _ in walk:
        if rep_g is None:  # the input's report, read once a cut has fired
            rep_g = comp.report()
        rep_h = WeightComputer(nxt, comp.config).report()
        wg, wh = rep_g.weight, rep_h.weight
        if cut.kind in ("-o", "*", "forall", "D", "W"):
            if wg != wh:
                out.append(f"{cut.kind} step changed W: {wg} -> {wh}")
        elif cut.kind == "!":
            be = rep_g.entries[cut.edge]
            expect = wh + sum(be.cardinalities[u] - 1 for u in be.sequences)
            if wg != expect:
                out.append(f"! step: W {wg} != {expect}")
        elif cut.kind == "X":
            expect = wh + len(rep_g.entries[cut.edge].sequences)
            if wg != expect:
                out.append(f"X step: W {wg} != {expect}")
        elif cut.kind == "N":
            # the cut edge survives as the inner box-edge of the new box
            expect = wh + len(rep_h.entries[cut.edge].sequences)
            if wg != expect:
                out.append(f"N step: W {wg} != {expect}")
        if rep_g.t_value <= rep_h.t_value:
            out.append(
                f"T did not decrease on a {cut.kind} step: "
                f"{rep_g.t_value} -> {rep_h.t_value}")
        rep_g = rep_h
    if walk.cuts:
        out.append(
            f"the double-strategy walk left cuts after {REWRITE_BUDGET} steps")
    return out


def run_suite(verbose: bool = False, nets: dict[str, ProofNet] | None = None):
    if nets is None:
        nets = corpus.full_corpus()
    failures = []
    for name in sorted(nets):
        net = nets[name]
        comp = WeightComputer(net)
        walk = canonical_walk(comp)
        checks = {
            "valid": validate(net),
            "weights": check_weight_invariants(net, comp),
            "no-stuck": check_no_stuck(walk.stuck),
            "theorem2": check_theorem2(net, comp),
            "monotonicity": check_monotonicity(net, comp),
            "reversibility": check_reversibility(net, walk.transitions),
        }
        for cname, problems in checks.items():
            ok = "pass" if not problems else "FAIL"
            if verbose:
                print(f"{name}: {cname}: {ok}")
            for pr in problems:
                failures.append(f"{name}: {cname}: {pr}")
                if verbose:
                    print(f"  {pr}")
    return failures
