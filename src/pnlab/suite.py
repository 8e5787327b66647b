"""Invariant suite over the built-in corpus, shared by the CLI and tests.

Each check returns a list of failure strings; run_suite aggregates them per
corpus net and prints one line per (net, check).
"""

from __future__ import annotations

from . import corpus
from .machine import (BUDGET, BudgetExhausted, Context, MachineConfig, Recorder,
                      dual, explore, is_final, step)
from .net import ProofNet, validate
from .rewrite import DOUBLE, REWRITE_BUDGET, TRIANGLE, WEIGHT_KINDS, Walk, normalize
from .weights import WeightComputer


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


def check_no_stuck(net: ProofNet, comp: WeightComputer) -> list[str]:
    """Verification runs of confirmed copies never strand a token."""
    out = []
    cfg = comp.config
    seen: set[Context] = set()

    def expand(c: Context) -> list[Context]:
        succs = step(net, c, cfg)
        if not succs and not is_final(net, c):
            out.append(f"stuck canonical context {c}")
        return [d for d in succs if d not in seen and not seen.add(d)]

    for e, be in comp.report().entries.items():
        for u in be.sequences:
            for t in sorted(be.copies[u]):
                start = Context(e, u, (t,), "+")
                seen.clear()
                seen.add(start)
                for event, c, _ in explore(start, expand, cfg.step_budget):
                    if event == BUDGET:
                        raise BudgetExhausted(
                            "machine step budget exhausted", c)
    return out


def check_theorem2(net: ProofNet, comp: WeightComputer) -> list[str]:
    rep = comp.report()
    _, trace = normalize(net, TRIANGLE)
    if trace.status != "normal":
        return ["triangle normalization exhausted its budget"]
    exp = sum(1 for s in trace.steps if s.kind in WEIGHT_KINDS)
    out = []
    if exp != rep.weight:
        out.append(f"exponential step count {exp} differs from W = {rep.weight}")
    if len(trace.steps) < rep.weight:
        out.append("total step count fell below the weight")
    return out


def check_monotonicity(net: ProofNet, config: MachineConfig | None = None) -> list[str]:
    """The per-rule weight identities along the double-strategy walk that
    normalize takes.

    For a box merge the displayed identity uses sum(R), but the weight
    definition pins the difference to sum(R - 1): merging removes one
    box-edge and every other cardinality is unchanged.  Digging adds the
    new inner box-edge's sequence count, one per copy of the outer box.
    """
    out = []
    walk = Walk(net, DOUBLE, REWRITE_BUDGET)
    comp_g, rep_g = WeightComputer(net, config), None
    for _, cut, nxt, _ in walk:
        if rep_g is None:  # the input's report, read once a cut has fired
            rep_g = comp_g.report()
        comp_h = WeightComputer(nxt, config)
        rep_h = comp_h.report()
        wg, wh = rep_g.weight, rep_h.weight
        if cut.kind in ("-o", "*", "forall", "D", "W"):
            if wg != wh:
                out.append(f"{cut.kind} step changed W: {wg} -> {wh}")
        elif cut.kind == "!":
            expect = wh + sum(comp_g.cardinality(cut.edge, u) - 1
                              for u in comp_g.canonical_sequences(cut.edge))
            if wg != expect:
                out.append(f"! step: W {wg} != {expect}")
        elif cut.kind == "X":
            expect = wh + len(comp_g.canonical_sequences(cut.edge))
            if wg != expect:
                out.append(f"X step: W {wg} != {expect}")
        elif cut.kind == "N":
            # the cut edge survives as the inner box-edge of the new box
            expect = wh + len(comp_h.canonical_sequences(cut.edge))
            if wg != expect:
                out.append(f"N step: W {wg} != {expect}")
        if rep_g.t_value <= rep_h.t_value:
            out.append(
                f"T did not decrease on a {cut.kind} step: "
                f"{rep_g.t_value} -> {rep_h.t_value}")
        comp_g, rep_g = comp_h, rep_h
    if walk.cuts:
        out.append(
            f"the double-strategy walk left cuts after {REWRITE_BUDGET} steps")
    return out


def run_suite(verbose: bool = False, nets: dict[str, ProofNet] | None = None):
    nets = nets or corpus.full_corpus()
    failures = []
    for name in sorted(nets):
        net = nets[name]
        recorder = Recorder()
        comp = WeightComputer(net, recorder=recorder)
        checks = {
            "valid": validate(net),
            "weights": check_weight_invariants(net, comp),
            "no-stuck": check_no_stuck(net, comp),
            "theorem2": check_theorem2(net, comp),
            "monotonicity": check_monotonicity(net),
            "reversibility": check_reversibility(net, recorder.transitions),
        }
        truncation = recorder.truncation()
        if truncation:
            checks["reversibility"].append(truncation)
        for cname, problems in checks.items():
            ok = "pass" if not problems else "FAIL"
            if verbose:
                print(f"{name}: {cname}: {ok}")
            for pr in problems:
                failures.append(f"{name}: {cname}: {pr}")
                if verbose:
                    print(f"  {pr}")
    return failures
