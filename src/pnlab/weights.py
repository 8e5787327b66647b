"""Copies, canonical sequences, cardinalities, and the weight aggregates.

Copy discovery is demand-driven: a walk starts from the box-edge with a hole
in place of the signature and branches over the constructors a rule demands
when it reads the hole (l/r at contractions, e at derelictions, n at
diggings, m(i) at multiplexers).  Candidates are standard by construction.
All candidates of a box-edge on a sequence are verified in one more walk
from the same start, which carries every simplification of every candidate
at once: where a rule reads a hole it splits the simplifications still live
by the head of their subterm there, so a context is walked once for all
the simplifications that agree up to it (the sharing of paths until they
read a signature, after Gonthier, Abadi and Levy).  Each simplification
leaves the walk at its first final context, so what it walks is the
depth-first walk a run from it alone would take.  A copy is confirmed when
every one of its simplifications reaches a final context.

Both walks step through chains: the stretches of the symbolic transition
relation between the contexts where a walk reads a hole, branches, stops
or joins, kept with the net's index by their start with the holes renamed
in order.  A stretch is therefore stepped once for every walk that reaches
it, from any box-edge, sequence or signature.  A generate-and-test oracle
over all standard signatures up to a size bound cross-validates the search
on small nets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from . import net as N
from .machine import (
    _new,
    BUDGET,
    CYCLE,
    LEAVE,
    BudgetExhausted,
    Context,
    Entry,
    MachineConfig,
    explore,
    final_at,
    is_final,
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
    psig,
    quasi_standard,
    rsig,
    simplifications,
    standard,
    subtrees,
)


class WeightError(ValueError):
    pass


# --- symbolic walks -----------------------------------------------------------

# holes are pseudo-signatures ('h', pos); a hole stands for the subterm, not
# yet read, at position pos (a tuple of child indices) of the signature that
# started the walk, so ROOT is that whole signature
ROOT = ("h", ())


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


def _complete(x, binds):
    return _resolve(x, binds, default=E)


def _at(t: Sig, pos) -> Sig:
    """The subterm of t at pos."""
    for i in pos:
        t = t[i]
    return t


def _rooted(x, pos: tuple):
    """x with each hole ('h', (j, i, ...)) of a chain renamed by its
    position in the root, pos[j] + (i, ...)."""
    head = x[0]
    if head == "h":
        return ("h", pos[x[1][0]] + x[1][1:])
    if head in ("l", "r", "p"):
        return (head, _rooted(x[1], pos))
    if head == "n":
        return (head, _rooted(x[1], pos), _rooted(x[2], pos))
    return x


def _subst(x, v: tuple):
    """x with each hole ('h', (j, i, ...)) replaced by v[j][i]..."""
    head = x[0]
    if head == "h":
        t = v[x[1][0]]
        for i in x[1][1:]:
            t = t[i]
        return t
    if head in ("l", "r", "p"):
        return (head, _subst(x[1], v))
    if head == "n":
        return (head, _subst(x[1], v), _subst(x[2], v))
    return x


def _map_holes(c: Context, f, arg) -> Context:
    us = tuple(f(x, arg) for x in c[1])
    stack = tuple(f(x, arg) if x.__class__ is tuple else x for x in c[2])
    return Context(c[0], us, stack, c[3])


def _has_hole(x: Sig) -> bool:
    todo = [x]
    while todo:
        x = todo.pop()
        if x[0] == "h":
            return True
        if x[0] in ("l", "r", "p", "n"):
            todo.extend(x[1:])
    return False


# the (label, port) where a token arriving with '+' has the rule read the
# signature on top of the stack: a hole there is split by _demanded
_INSPECTING = {(N.CONTR, "merged"), (N.DER, "bang"), (N.DIG, "bang"),
               (N.MUX, "merged")}
_READ_PORTS = {port for _, port in _INSPECTING}


def _demanded(entry: Entry, c: Context):
    """The signatures the rule of entry, c's endpoint, accepts for the hole
    on top of c's stack, or None when the rule does not read it.  The holes
    inside a demanded signature are the children of the one read: (j, 1)
    and (j, 2) below ('h', (j,))."""
    st = c[2]
    label, j = entry.vertex.label, st[-1][1]
    child = ("h", j + (1,))
    if label == N.CONTR:
        return [lsig(child), rsig(child)]
    if label == N.DER:
        return [E] if len(st) >= 2 else None
    if label == N.DIG:
        out = [nsig(child, ("h", j + (2,)))]
        if len(st) == 1:
            out.append(psig(child))
        return out
    return [msig(i) for i in range(1, entry.vertex.arity + 1)]


LEAF, LOOP, SPLIT, BRANCH = "leaf", "loop", "split", "branch"


class _Chain:
    """The transitions from a chain start, a context whose holes are named
    ('h', (0,)), ('h', (1,)), ... in order of first occurrence, to its end.

    A chain inspects no hole before its end, so every walk that meets its
    start takes its transitions, whatever the subterms at the holes.  Its
    end is the first context that reads the top of the stack (a rule of
    _INSPECTING), has several successors or none, is on the chain already,
    or steps to a join (a box's principal edge with '+' and one
    signature, which runs from several doors reach).  The end's kind is:

    - SPLIT: the rule reads hole `hole` on top of the stack; a walk goes on
      by the links of the `demanded` signature that binds it;
    - BRANCH: the links, taken in order;
    - LOOP: the chain met a context already on it;
    - LEAF: no successor; `need` lists the holes that must be e for the end
      to be final, or is None when it cannot be.

    A link is [chain start, positions, slots, chain or None]: the
    positions of its holes below the end's, (j,) for hole j and (j, i) for
    child i of the hole a split binds, the start's slots, and its chain,
    walked on first use.

    Whether a context starts a chain depends on the context alone: a
    join, or a successor of a context that reads the top of the stack or
    has several successors.  Any other context has one predecessor (the
    machine is reversible, and only a join has several), and a context
    that reads a hole cannot come back on a walk's path, as the read binds
    the hole.  So the first context where a walk meets its path again is a
    chain start, or a context of its current chain: keying a walk by chain
    start finds the cycles that keying it by context does, at the same
    context or at the successor of one that reads the top of the stack.
    """

    __slots__ = ("start", "slots", "join", "end", "steps", "kind", "need",
                 "hole", "demanded", "links")

    def __init__(self, start: Context, slots: tuple[list, list]):
        self.start = start
        self.slots = slots  # the indices of start's U and stack with a hole
        self.join = False  # whether start is a join
        self.steps = 0  # transitions from start to end
        self.links: list | dict = []

    def concrete(self, v: tuple) -> Context:
        """The start with each hole j replaced by v[j]."""
        c, (in_us, in_stack) = self.start, self.slots
        us, stack = c[1], c[2]
        if in_us:
            us = list(us)
            for i in in_us:
                us[i] = _subst(us[i], v)
            us = tuple(us)
        if in_stack:
            stack = list(stack)
            for i in in_stack:
                stack[i] = _subst(stack[i], v)
            stack = tuple(stack)
        return _new(Context, (c[0], us, stack, c[3]))


class Chains:
    """The chains of a net, kept by their start with the net's index (one
    table for each setting of jumps, as the rules read it), so that each
    stretch of the symbolic transition relation is stepped once for every
    walk that reaches it: the copy search and the verification, from any
    box-edge, sequence or signature, whatever the names of its holes."""

    def __init__(self, net: N.ProofNet, config: MachineConfig):
        self.net = net
        self.config = config
        tables = net._index.chains.get(config.jumps_enabled)
        if tables is None:
            tables = net._index.chains[config.jumps_enabled] = ({}, {}, {}, {})
        self._chains: dict[Context, _Chain] = tables[0]
        self._holey: dict[Sig, bool] = tables[1]  # whether a hole is in it
        self._renamed: dict[tuple, tuple] = tables[2]  # U -> _canonical's part
        self._roots: dict[tuple, _Chain] = tables[3]  # (edge, U) -> chain

    def walk(self, edge: str, us: tuple[Sig, ...], payload, visit,
             budget: int, what: str):
        """explore's events for a depth-first walk over chains from
        (edge, us, (ROOT,), +).

        A node is (chain, positions, payload): the positions in the root of
        the chain's holes, so that the chain and the positions are the
        context of its start, which keys it on the path, and a payload.
        visit(node, path) lists the links to follow, with the payload of
        each, as (links, payload) pairs.  A node costs its chain's
        transitions and one more; past budget, the walk raises
        BudgetExhausted(what).
        """
        spent = 0

        def expand(node, path):
            nonlocal spent
            ch, pos = node[0], node[1]
            spent += ch.steps + 1
            if spent > budget:
                raise BudgetExhausted(what, _map_holes(ch.start, _rooted, pos))
            succs = []
            for links, p in visit(node, path):
                for link in links:
                    if link[3] is None:
                        link[3] = self._chain(link[0], link[2])
                    succs.append((link[3],
                                  tuple(pos[x[0]] + x[1:] for x in link[1]), p))
            return succs

        root = self._roots.get((edge, us))
        if root is None:
            start, _, slots = self._canonical(Context(edge, us, (ROOT,), "+"))
            root = self._roots[edge, us] = self._chain(start, slots)
        return explore((root, ((),), payload), expand, budget,
                       key=operator.itemgetter(0, 1))

    def split_links(self, ch: _Chain, i: int) -> list:
        """The links out of ch's end with its hole bound to the i-th
        demanded signature."""
        links = ch.links.get(i)
        if links is None:
            c = ch.end
            entry = table_entry(self.net, c[0], c[3])
            # a hole occurs once in a context: signatures are moved, not copied
            st = c[2][:-1] + (ch.demanded[i],)
            links = ch.links[i] = [self._link(d) for d in
                                   entry.rule(c[1], st, self.config)]
        return links

    def _chain(self, start: Context, slots) -> _Chain:
        ch = self._chains.get(start)
        if ch is None:
            ch = self._chains[start] = self._walk_chain(_Chain(start, slots))
        return ch

    def _link(self, d: Context) -> list:
        return [*self._canonical(d), None]

    def _walk_chain(self, ch: _Chain) -> _Chain:
        net, config = self.net, self.config
        table, principals = net._index.transitions, net.principal_edges()
        budget = config.step_budget
        c, on_chain, steps = ch.start, None, 0
        ch.join = c[3] == "+" and len(c[2]) == 1 and c[0] in principals
        while True:
            entry = table.get((c[0], c[3])) or table_entry(net, c[0], c[3])
            st = c[2]
            reads = (c[3] == "+" and entry.port in _READ_PORTS and st
                     and (entry.vertex.label, entry.port) in _INSPECTING)
            if reads and st[-1][0] == "h":
                demanded = _demanded(entry, c)
                if demanded is not None:
                    ch.kind, ch.hole = SPLIT, st[-1][1][0]
                    ch.demanded, ch.links = demanded, {}
                    break
            succs = step(net, c, config)
            if len(succs) == 1 and not reads:
                d = succs[0]
                if on_chain is None:
                    on_chain = {c}
                if d in on_chain:
                    ch.kind = LOOP
                    steps += 1  # the transition that closes the loop
                    break
                if not (d[3] == "+" and len(d[2]) == 1 and d[0] in principals):
                    c = d
                    on_chain.add(c)
                    steps += 1
                    if steps >= budget:
                        raise BudgetExhausted("machine step budget exhausted", c)
                    continue
            if succs:
                ch.kind, ch.links = BRANCH, [self._link(d) for d in succs]
            else:
                ch.kind = LEAF
                need = final_at(entry, st, {})
                ch.need = None if need is None else [pos[0] for pos in need]
            break
        ch.end, ch.steps = c, steps
        return ch

    def _canonical(self, c: Context):
        """c with its holes renamed ('h', (0,)), ('h', (1,)), ... in order
        of first occurrence, U before the stack, their old names in that
        order, and the indices of c's U and stack that hold a hole.  Each
        U is renamed once."""
        hit = self._renamed.get(c[1])
        if hit is None:
            names: dict = {}
            us, in_us = self._rename(c[1], names)
            hit = self._renamed[c[1]] = us, names, tuple(names), in_us
        us, names, ordered, in_us = hit
        for x in c[2]:
            if x.__class__ is tuple and self._has_hole(x):
                names = dict(names)
                stack, in_stack = self._rename(c[2], names)
                return (_new(Context, (c[0], us, stack, c[3])), tuple(names),
                        (in_us, in_stack))
        if us is not c[1]:
            c = _new(Context, (c[0], us, c[2], c[3]))
        return c, ordered, (in_us, [])

    def _has_hole(self, x: Sig) -> bool:
        h = self._holey.get(x)
        if h is None:
            h = self._holey[x] = _has_hole(x)
        return h

    def _rename(self, entries: tuple, names: dict) -> tuple[tuple, list]:
        """entries with their holes renamed, numbering new names on from
        those in names, and the indices of the entries with a hole."""
        slots, out = [], None
        for i, x in enumerate(entries):
            if x.__class__ is tuple and self._has_hole(x):
                if out is None:
                    out = list(entries)
                out[i] = _renamed(x, names)
                slots.append(i)
        return (entries if out is None else tuple(out)), slots


def _renamed(x, names: dict):
    """x with each hole renamed ('h', (i,)), i its old name's number in
    names, new names numbered on."""
    head = x[0]
    if head == "h":
        i = names.get(x[1])
        if i is None:
            i = names[x[1]] = len(names)
        return ("h", (i,))
    if head in ("l", "r", "p"):
        return (head, _renamed(x[1], names))
    if head == "n":
        return (head, _renamed(x[1], names), _renamed(x[2], names))
    return x


# the number of transitions a copy search takes before it gives up
SEARCH_BUDGET = 10**6


def search_copy_candidates(net: N.ProofNet, edge: str, us: tuple[Sig, ...],
                           config: MachineConfig) -> set[Sig]:
    """Standard signatures whose primary run reaches a final context.

    A node's payload is the bindings of the holes read on its path, by
    position.  Only standard constructors are offered at a hole; the
    verification walks p-simplifications.
    """
    chains = Chains(net, config)
    results: set[Sig] = set()

    def visit(node, path):
        ch, pos, binds = node
        if ch.kind == BRANCH:
            return [(ch.links, binds)]
        if ch.kind == SPLIT:
            at = pos[ch.hole]
            return [(chains.split_links(ch, i), {**binds, at: _rooted(t, pos)})
                    for i, t in enumerate(ch.demanded) if t[0] != "p"]
        if ch.kind == LEAF and ch.need is not None:
            final = {**binds, **{pos[j]: E for j in ch.need}}
            results.add(_complete(ROOT, final))
        return []

    for _ in chains.walk(edge, us, {}, visit, SEARCH_BUDGET,
                         "copy search budget exhausted"):
        pass
    return results


@dataclass
class SharedWalk:
    """What one verification walk found for each signature it carried."""

    found: set[Sig] = field(default_factory=set)  # reached a final context
    cyclic: set[Sig] = field(default_factory=set)  # met a cycle on the way
    nodes: int = 0


def shared_walk(chains: Chains, edge: str, us: tuple[Sig, ...],
                members: list[Sig]) -> SharedWalk:
    """One walk from (edge, us, (t,), +) for every t of members.

    A node's payload is the members still live there, those whose runs
    take it and have not reached a final context, each with the position
    it last read and its subterm there.  Where a chain's end reads a hole,
    they split by the head of their subterm there.  A member leaves at its
    first final context, and where its run meets a context already on its
    path: at a node whose chain start is on the path, for every member, or
    at a join whose concrete context is, for that member (the machine is
    reversible, so a run first meets its path again at a join).  So each
    member walks what reach_final walks from it, and what does not depend
    on its signature is walked once for all.
    """
    out = SharedWalk()
    found, cyclic = out.found, out.cyclic
    joins: list = []  # (path index, edge, |U|) of each join on the path

    def live_at(node) -> tuple:
        live, seen = node[2]  # seen: len(found) when live was filtered
        if seen == len(found):
            return live
        return tuple(m for m in live if m[0] not in found)

    def visit(node, path):
        ch, pos = node[0], node[1]
        live = live_at(node)
        if not live:
            return []
        if ch.join:
            live = _at_joins(node, path, live, joins, cyclic)
            if not live:
                return []
        out.nodes += 1
        kind = ch.kind
        if kind == BRANCH:
            return [(ch.links, (live, len(found)))]
        if kind == SPLIT:
            at = pos[ch.hole]
            groups: dict = {}
            for u, last, x in live:
                # mostly a position below the one read last
                if at[:len(last)] == last:
                    x = _at(x, at[len(last):])
                else:
                    x = _at(u, at)
                groups.setdefault(x if x[0] == "m" else x[0], []).append(
                    (u, at, x))
            succs = []
            for i, t in enumerate(ch.demanded):
                sel = groups.get(t if t[0] == "m" else t[0])
                if sel:
                    succs.append((chains.split_links(ch, i),
                                  (tuple(sel), len(found))))
            return succs
        if kind == LOOP:
            cyclic.update(m[0] for m in live)
        elif ch.need is not None:
            need = [pos[j] for j in ch.need]
            found.update(u for u, _, _ in live
                         if all(_at(u, p) == E for p in need))
        return []

    start = tuple((t, (), t) for t in members)
    for event, x, path in chains.walk(edge, us, (start, 0), visit,
                                      chains.config.step_budget,
                                      "machine step budget exhausted"):
        if event == LEAVE:
            if len(found) == len(members):
                break
            while joins and joins[-1][0] >= x:
                joins.pop()
        elif event == CYCLE:  # a transition from path[-1]
            cyclic.update(m[0] for m in live_at(x))
    return out


def _concrete(node, u: Sig) -> Context:
    """The context of member u at the start of node's chain."""
    return node[0].concrete(tuple(_at(u, p) for p in node[1]))


def _at_joins(node, path, live, joins, cyclic) -> tuple:
    """The members in live that do not meet their path again at node, a
    join; the others are added to cyclic.  Only the joins on the path with
    node's edge and length of U can hold one of their contexts."""
    start = node[0].start
    shape = (start[0], len(start[1]))
    earlier = [path[i] for i, *other in joins if tuple(other) == shape]
    joins.append((len(path) - 1, *shape))
    if not earlier:
        return live
    again = {u for u, _, _ in live
             if _concrete(node, u) in {_concrete(p, u) for p in earlier}}
    if not again:
        return live
    cyclic.update(again)
    return tuple(m for m in live if m[0] not in again)


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

    def __init__(self, net: N.ProofNet, config: MachineConfig | None = None):
        self.net = net
        self.config = config or MachineConfig()
        self._copies: dict[tuple[str, tuple[Sig, ...]], frozenset[Sig]] = {}
        self._canon: dict[str, list[tuple[Sig, ...]]] = {}
        # reach_final's memo, for is_canonical_context's probes
        self.reach_memo: dict[Context, bool] = {}
        self.cycle_seen = False
        self.chains = Chains(net, self.config)
        self._simps: dict[Sig, frozenset[Sig]] = {}  # simplifications' memo
        self.walk_nodes = 0  # the nodes of every verification walk

    # -- copies --

    def copies(self, edge: str, us: tuple[Sig, ...]) -> frozenset[Sig]:
        key = (edge, us)
        if key in self._copies:
            return self._copies[key]
        if edge not in self.net.principal_edges():
            raise WeightError(f"{edge} is not a box-edge")
        candidates = search_copy_candidates(self.net, edge, us, self.config)
        # sorted, so that the walk's order does not depend on hashing
        confirmed = self._confirm(edge, us,
                                  sorted(t for t in candidates if standard(t)))
        self._copies[key] = confirmed
        return confirmed

    def copies_bruteforce(self, edge: str, us: tuple[Sig, ...],
                          max_size: int = 4) -> frozenset[Sig]:
        arities = [v.arity for v in self.net.vertices.values() if v.label == N.MUX]
        mux_idx = tuple(range(1, max(arities) + 1)) if arities else ()
        return self._confirm(edge, us, all_standard_sigs(max_size, mux_idx))

    def _confirm(self, edge: str, us: tuple[Sig, ...],
                 candidates: list[Sig]) -> frozenset[Sig]:
        """The candidates each of whose simplifications reaches a final
        context, from one shared walk."""
        simps = [(t, simplifications(t, self._simps)) for t in candidates]
        members = list(dict.fromkeys(u for _, ss in simps for u in ss))
        walk = shared_walk(self.chains, edge, us, members)
        self.walk_nodes += walk.nodes
        confirmed = []
        for t, ss in simps:
            if all(u in walk.found for u in ss):
                confirmed.append(t)
                if any(u in walk.cyclic for u in ss):
                    # contexts reachable from a canonical start are
                    # canonical, so a cycle met while confirming the copy t
                    # is a canonical cycle
                    self.cycle_seen = True
        return frozenset(confirmed)

    # -- canonical sequences --

    def canonical_sequences(self, item: str) -> list[tuple[Sig, ...]]:
        if item in self._canon:
            return self._canon[item]
        enclosing = self.net.sigma(item)
        if enclosing is None:
            seqs = [()]
        else:
            seqs = []
            for v in self.canonical_sequences(enclosing):
                for t in sorted(self.copies(enclosing, v)):
                    seqs.append(v + (t,))
        self._canon[item] = seqs
        return seqs

    def cardinality(self, edge: str, us: tuple[Sig, ...]) -> int:
        simps: set[Sig] = set()
        for t in self.copies(edge, us):
            simps |= simplifications(t, self._simps)
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


def weight(net: N.ProofNet, config: MachineConfig | None = None) -> WeightReport:
    return WeightComputer(net, config).report()


# --- canonical contexts -----------------------------------------------------


class CanonicalWalk(NamedTuple):
    transitions: list[tuple[Context, Context]]
    stuck: list[Context]  # the non-final contexts without successors


def canonical_walk(comp: WeightComputer) -> CanonicalWalk:
    """Every transition a token takes from a canonical start, each once,
    and every canonical context where it is stuck, each once.

    A canonical start is (e, u, (s,), +) for a box-edge e, a canonical
    sequence u of e and a simplification s of a copy of e on u; every
    context reachable from one is canonical.  The starts are walked in
    order (box-edges, sequences, sorted copies, sorted simplifications)
    with one set of contexts seen, so each context is expanded once and the
    lists do not depend on hashing.  A context is stuck when it has no
    successor and is not final.  The walk shares the step budget: each
    start gets what the transitions listed before it left.
    """
    net, config = comp.net, comp.config
    out: list[tuple[Context, Context]] = []
    stuck: list[Context] = []
    seen: set[Context] = set()

    def expand(c: Context, path: list) -> list[Context]:
        succs = step(net, c, config)
        if not succs and not is_final(net, c):
            stuck.append(c)
        out.extend((c, d) for d in succs)
        return [d for d in succs if d not in seen and not seen.add(d)]

    for e in net.box_edges():
        for u in comp.canonical_sequences(e):
            for t in sorted(comp.copies(e, u)):
                for s in sorted(simplifications(t, comp._simps)):
                    start = Context(e, u, (s,), "+")
                    if start in seen:
                        continue
                    seen.add(start)
                    for event, c, _ in explore(start, expand,
                                               config.step_budget - len(out)):
                        if event == BUDGET:
                            raise BudgetExhausted(
                                "machine step budget exhausted", c)
    return CanonicalWalk(out, stuck)


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


# the number of transitions a subtree check takes before it gives up
SUBTREE_BUDGET = 10**5


def check_subtree_property(net: N.ProofNet, edge: str, us: tuple[Sig, ...],
                           t: Sig, computer: WeightComputer | None = None) -> bool:
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
        for event, node, _ in explore(c, expand, SUBTREE_BUDGET):
            if event == BUDGET:
                raise BudgetExhausted("subtree search limit", node)
    return all(u in witnessed for u in subtrees(t))
