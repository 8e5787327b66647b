"""Copies, canonical sequences, cardinalities, and the weight aggregates.

Copy discovery is demand-driven: a run starts from the box-edge with a hole
in place of the signature and branches over the constructors a rule demands
when it inspects the hole (l/r at contractions, e at derelictions, n at
diggings, m(i) at multiplexers).  Candidates are standard by construction;
each is then verified by running every one of its simplifications to a
final context.  A generate-and-test oracle over all standard signatures up
to a size bound cross-validates the search on small nets.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import net as N
from .machine import (
    BUDGET,
    BudgetExhausted,
    Context,
    Entry,
    MachineConfig,
    Recorder,
    explore,
    final_at,
    is_hole,
    reach_final,
    step,
    sym_count,
    table_entry,
)
from .signatures import (
    E,
    Sig,
    all_standard_sigs,
    is_sig,
    lsig,
    msig,
    nsig,
    quasi_standard,
    rsig,
    simplifications,
    standard,
    subtrees,
)


class WeightError(ValueError):
    pass


# --- symbolic copy search ---------------------------------------------------

# holes are pseudo-signatures ('h', k); they stand for an undetermined
# standard subtree


def _resolve(x, binds, default=None):
    if is_hole(x):
        if x[1] in binds:
            return _resolve(binds[x[1]], binds, default)
        return default if default is not None else x
    if isinstance(x, tuple) and x and x[0] in ("l", "r", "p"):
        return (x[0], _resolve(x[1], binds, default))
    if isinstance(x, tuple) and x and x[0] == "n":
        return nsig(_resolve(x[1], binds, default), _resolve(x[2], binds, default))
    return x


def _resolve_ctx(c: Context, binds) -> Context:
    us = tuple(_resolve(t, binds) for t in c.us)
    stack = tuple(_resolve(s, binds) if is_sig(s) or is_hole(s) else s
                  for s in c.stack)
    return Context(c.edge, us, stack, c.pol)


def _complete(x, binds):
    return _resolve(x, binds, default=E)


def _hole_branches(entry: Entry, c: Context, fresh):
    """Instantiations demanded when the rule of entry, c's endpoint,
    inspects a hole on top.

    Only standard constructors are offered; p-simplifications are covered by
    the per-candidate verification afterwards.
    """
    top = c.stack[-1] if c.stack else None
    if not is_hole(top):
        return None
    label, port = entry.vertex.label, entry.port
    if label == N.CONTR and port == "merged" and c.pol == "+":
        out = [lsig(("h", next(fresh))), rsig(("h", next(fresh)))]
    elif label == N.DER and port == "bang" and c.pol == "+" and len(c.stack) >= 2:
        out = [E]
    elif label == N.DIG and port == "bang" and c.pol == "+":
        out = [nsig(("h", next(fresh)), ("h", next(fresh)))]
    elif label == N.MUX and port == "merged" and c.pol == "+":
        out = [msig(i) for i in range(1, entry.vertex.arity + 1)]
    else:
        return None
    return [(top[1], t) for t in out]


# the number of nodes a copy search visits before it gives up
SEARCH_BUDGET = 10**6


def search_copy_candidates(net: N.ProofNet, edge: str, us: tuple[Sig, ...],
                           config: MachineConfig) -> set[Sig]:
    """Standard signatures whose primary run reaches a final context.

    A node of the search is a context with the bindings of its holes; a
    hole instantiation costs one budget unit, like a transition.
    """
    fresh = itertools.count(1)
    root = ("h", 0)
    results: set[Sig] = set()

    def expand(node, path):
        c, binds = node
        entry = table_entry(net, c[0], c[3])
        branches = _hole_branches(entry, c, fresh)
        if branches is not None:
            out = []
            for hid, t in branches:
                b2 = {**binds, hid: t}
                out.append((_resolve_ctx(c, b2), b2))
            return out
        succs = entry.rule(c[1], c[2], config)
        if succs:
            return [(d, binds) for d in succs]
        final = final_at(entry, c[2], binds)
        if final is not None:
            results.add(_complete(root, final))
        return []

    start = (Context(edge, us, (root,), "+"), {})
    for event, node, _ in explore(start, expand, SEARCH_BUDGET,
                                  key=operator.itemgetter(0)):
        if event == BUDGET:
            raise BudgetExhausted("copy search budget exhausted", node[0])
    return results


# --- the weight computer ----------------------------------------------------


@dataclass
class BoxEntry:
    edge: str
    sequences: list[tuple[Sig, ...]]
    copies: dict[tuple[Sig, ...], frozenset[Sig]]
    cardinalities: dict[tuple[Sig, ...], int]


@dataclass
class WeightReport:
    weight: int
    t_value: int
    entries: dict[str, BoxEntry]
    vertex_counts: dict[str, int]
    strictly_positive: bool
    acyclic: bool

    def to_dict(self):
        from .signatures import format_sig

        def seq(u):
            return " ".join(format_sig(t) for t in u) or "eps"

        return {
            "weight": self.weight,
            "t_value": self.t_value,
            "strictly_positive": self.strictly_positive,
            "acyclic": self.acyclic,
            "boxes": {
                e: {
                    "sequences": [
                        {
                            "u": seq(u),
                            "copies": sorted(format_sig(t) for t in be.copies[u]),
                            "cardinality": be.cardinalities[u],
                        }
                        for u in be.sequences
                    ]
                }
                for e, be in sorted(self.entries.items())
            },
        }


class WeightComputer:
    """Shared memo tables for copies and canonical sequences on one net."""

    def __init__(self, net: N.ProofNet, config: MachineConfig | None = None,
                 recorder: Recorder | None = None):
        self.net = net
        self.config = config or MachineConfig()
        self.recorder = recorder
        self._copies: dict[tuple[str, tuple[Sig, ...]], frozenset[Sig]] = {}
        self._canon: dict[str, list[tuple[Sig, ...]]] = {}
        self.reach_memo: dict[Context, bool] = {}
        self.cycle_seen = False

    # -- copies --

    def copies(self, edge: str, us: tuple[Sig, ...]) -> frozenset[Sig]:
        key = (edge, us)
        if key in self._copies:
            return self._copies[key]
        if edge not in self.net.principal_edges():
            raise WeightError(f"{edge} is not a box-edge")
        candidates = search_copy_candidates(self.net, edge, us, self.config)
        # sorted, so that the recorded transitions do not depend on hashing
        confirmed = frozenset(t for t in sorted(candidates)
                              if standard(t) and self._verify(edge, us, t))
        self._copies[key] = confirmed
        return confirmed

    def copies_bruteforce(self, edge: str, us: tuple[Sig, ...],
                          max_size: int = 4) -> frozenset[Sig]:
        arities = [v.arity for v in self.net.vertices.values() if v.label == N.MUX]
        mux_idx = tuple(range(1, max(arities) + 1)) if arities else ()
        cands = all_standard_sigs(max_size, mux_idx)
        return frozenset(t for t in cands if self._verify(edge, us, t))

    def _verify(self, edge: str, us: tuple[Sig, ...], t: Sig) -> bool:
        cyclic = False
        for u in sorted(simplifications(t)):
            c = Context(edge, us, (u,), "+")
            ok, cycle = reach_final(self.net, c, self.config, self.reach_memo,
                                    self.recorder)
            cyclic = cyclic or cycle
            if not ok:
                return False
        if cyclic:
            # contexts reachable from a canonical start are canonical, so a
            # cycle met while confirming the copy t is a canonical cycle
            self.cycle_seen = True
        return True

    # -- canonical sequences --

    def canonical_sequences(self, item: str) -> list[tuple[Sig, ...]]:
        if item in self._canon:
            return self._canon[item]
        theta = self.net.theta(item)
        if theta is None:
            seqs = [()]
        else:
            enclosing = self.net.rho(theta)
            seqs = []
            for v in self.canonical_sequences(enclosing):
                for t in sorted(self.copies(enclosing, v)):
                    seqs.append(v + (t,))
        self._canon[item] = seqs
        return seqs

    def cardinality(self, edge: str, us: tuple[Sig, ...]) -> int:
        simps: set[Sig] = set()
        for t in self.copies(edge, us):
            simps |= simplifications(t)
        return len(simps)

    # -- aggregates --

    def report(self) -> WeightReport:
        net = self.net
        entries: dict[str, BoxEntry] = {}
        weight = 0
        t_value = 0
        positive = True
        for e in net.box_edges():
            seqs = self.canonical_sequences(e)
            cps = {u: self.copies(e, u) for u in seqs}
            cards = {u: self.cardinality(e, u) for u in seqs}
            entries[e] = BoxEntry(e, seqs, cps, cards)
            for u in seqs:
                r = cards[u]
                if r < 1:
                    positive = False
                weight += r - 1
            p = net.premise_count(e)
            t_value += p * sum(2 * cards[u] - 1 for u in seqs)
        vertex_counts = {}
        for vid in net.interior_vertices():
            vertex_counts[vid] = len(self.canonical_sequences(vid))
            t_value += vertex_counts[vid]
        return WeightReport(weight, t_value, entries, vertex_counts,
                            positive, not self.cycle_seen)


def weight(net: N.ProofNet, config: MachineConfig | None = None,
           recorder: Recorder | None = None) -> WeightReport:
    return WeightComputer(net, config, recorder).report()


# --- canonical contexts -----------------------------------------------------


def is_canonical_context(net: N.ProofNet, c: Context,
                         computer: WeightComputer | None = None) -> bool:
    comp = computer or WeightComputer(net)
    want = "+" if sym_count(c.stack, "a") % 2 == 0 else "-"
    if c.pol != want:
        return False
    if c.us not in comp.canonical_sequences(c.edge):
        return False
    for k, t in enumerate(c.stack):
        if not is_sig(t):
            continue
        if k == 0:
            if not quasi_standard(t):
                return False
        elif not standard(t):
            return False
        tail = c.stack[k + 1:]
        pol = "+" if sym_count(tail, "a") % 2 == 0 else "-"
        for u in simplifications(t):
            probe = Context(c.edge, c.us, (u,) + tail, pol)
            if not reach_final(net, probe, comp.config, comp.reach_memo)[0]:
                return False
    return True


def check_subtree_property(net: N.ProofNet, edge: str, us: tuple[Sig, ...],
                           t: Sig, computer: WeightComputer | None = None,
                           limit: int = 10**5) -> bool:
    """Every subtree of a copy is carried by some context reachable from a
    simplification of the copy."""
    comp = computer or WeightComputer(net)
    if t not in comp.copies(edge, us):
        raise WeightError(f"{t} is not a copy of {edge}")
    witnessed: set[Sig] = set()
    seen: set[Context] = set()

    def expand(c: Context, path: list) -> list[Context]:
        if c.pol == "+" and len(c.stack) == 1 and is_sig(c.stack[0]):
            witnessed.add(c.stack[0])
        return [d for d in step(net, c, comp.config)
                if d not in seen and not seen.add(d)]

    for v in sorted(simplifications(t)):
        c = Context(edge, us, (v,), "+")
        if c in seen:
            continue
        seen.add(c)
        for event, node, _ in explore(c, expand, limit):
            if event == BUDGET:
                raise BudgetExhausted("subtree search limit", node)
    return all(u in witnessed for u in subtrees(t))
