"""Copies, canonical sequences, cardinalities, and the weight aggregates.

A copy of box-edge e on sequence u is a standard signature each of whose
simplifications s reaches a final context from (e, u, (s,), +).  The
copies are computed by narrowing (after Antoy, Echahed and Hanus).  One
walk from (e, u, (hole,), +) records a tree of reads: where a rule reads a
hole it offers each signature the rule accepts there, p included, with
fresh holes as children.  Patterns, standard signatures with unknowns, are
then refined on that tree, which takes no machine step.  A pattern binds
each position it has read to a head, whose children are the positions
below it.  Its members are its simplifications, with unknowns as leaves;
each runs on the tree as reach_final runs on the machine, and shares its
path with the others until they read a signature (after Gonthier, Abadi
and Levy).  Where a member needs an unknown, the pattern splits over the
standard heads there, binding its position to each, and each member
resumes where it stopped.  The walk steps through chains, stretches of
the symbolic transition relation kept with the net's index, so each is
stepped once for every walk that reaches it.  A generate-and-test oracle
over all standard signatures up to a size bound cross-validates the walk
on small nets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import net as N
from .machine import (
    _new,
    BUDGET,
    CYCLE,
    BudgetExhausted,
    Context,
    Entry,
    MachineConfig,
    explore,
    final_at,
    is_final,
    reach_final,
    step,
    sym_count,
    table_entry,
)
from .signatures import (
    E,
    Sig,
    all_standard_sigs,
    format_sig,
    is_sig,
    lsig,
    msig,
    nodes,
    nsig,
    psig,
    quasi_standard,
    rsig,
    simplifications,
    standard,
    subtrees,
)


class WeightError(ValueError):
    code = 1  # the exit code of a command that meets it: the net has no weight


def mux_indices(net: N.ProofNet) -> tuple[int, ...]:
    """The i of the standard signatures m(i) on net, up to its largest
    multiplexer arity: with any, its standard signatures are e and these."""
    arities = [v.arity for v in net.vertices.values() if v.label == N.MUX]
    return tuple(range(1, max(arities) + 1)) if arities else ()


# --- the narrowing walk -------------------------------------------------------

# holes are pseudo-signatures ('h', pos); a hole stands for the subterm, not
# yet read, at position pos (a tuple of child indices) of the signature that
# started the walk, so ROOT is that whole signature.  A pattern binds a
# position pos to a head: e or m(i), with no children; l, r or p, with one
# at pos + (1,); or n, with two at pos + (1,) and pos + (2,)
ROOT = ("h", ())
_ARITY = {"l": 1, "r": 1, "p": 1, "n": 2}


def _rebuilt(x, hole):
    """x with each hole h, from the left, replaced by hole(h), on an
    explicit stack, so that the depth of x costs no Python frames.  A
    replacement that is not a hole is rebuilt in turn."""
    if x[0] == "h":  # a bare hole, as are most entries that contexts rename
        x = hole(x)
        if x[0] == "h":
            return x
    done, todo = [], [x]
    while todo:
        y = todo.pop()
        if y.__class__ is str:  # a head over the one or two subterms done last
            k = -2 if y == "n" else -1
            done[k:] = [(y, *done[k:])]
            continue
        head = y[0]
        if head in ("l", "r", "p"):
            todo += (head, y[1])
        elif head == "n":
            todo += ("n", y[2], y[1])
        elif head != "h":
            done.append(y)
        else:
            y = hole(y)
            (done if y[0] == "h" else todo).append(y)
    return done[0]


def _bound(binds: dict):
    """The hole function that replaces each hole bound in binds by its head
    over the holes of its children."""
    def hole(h):
        t = binds.get(h[1], h)
        if t.__class__ is not str:  # no children, or h unbound
            return t
        return (t, *[("h", h[1] + (i,)) for i in range(1, _ARITY[t] + 1)])

    return hole


def _head(t: Sig):
    """What a rule reads of t, and what a pattern binds: its head, or t
    itself for e and m(i), which have no children."""
    return t if t[0] in ("e", "m") else t[0]


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

    - SPLIT: the rule reads hole `hole` on top of the stack, and accepts
      there a signature of each `demanded` head;
    - BRANCH: the end's successors, several, or one after a read;
    - LOOP: the chain met a context already on it;
    - LEAF: no successor; `need` lists the holes that must be e for the end
      to be final, or is None when it cannot be.

    `join` tells whether the start is a join, `steps` counts the
    transitions to the end, `links` lists the ways on from it, and `reads`
    holds the vertices its transitions read (those of their table entries,
    and the source of the start edge where that decides `join`).  The walk
    keeps the entries' reads tuples; their union is built the first time a
    reduct asks for it, so a net weighed once never builds it.

    A link is [via, chain start, positions, chain or None]: the head of the
    demanded signature it follows (None at a BRANCH), the positions of its
    holes below the end's ((j,) for hole j, (j, i) for child i of the hole
    read), and the chain last found for it.  Chains are shared by a net
    and the reducts that inherit them, so that last slot is only a hint:
    a table follows it while the chain is alive there and else looks the
    start up.

    Whether a context starts a chain depends on the context alone: a
    join, or a successor of a context that reads the top of the stack or
    has several successors.  A context that reads a hole cannot come back
    on a walk's path, as the read binds the hole.  Only a context with one
    stack element may have several predecessors (machine.may_merge): a
    join, or its mirror, a door's outer edge with '-', reached by the box
    exit from the door's inner edge and by the jump from the principal (on
    corpus net copy, (e1, [e], eps, -) and (e2, [], e, -) both step to
    (e3, [], e, -)).  A mirror need not start a chain.  So a walk first
    meets its path again at a chain start, at a context of its current
    chain, or at a mirror inside a chain.  From a mirror it takes the
    transitions it took before, so keying a walk by chain start still
    meets that cycle, a round or more later, where a chain and its hole
    positions repeat (docs/DECISIONS.md, "Where token paths merge").
    """

    __slots__ = ("start", "join", "end", "steps", "kind", "need", "hole",
                 "demanded", "links", "_reads")

    def __init__(self, start: Context):
        self.start = start
        self.links: list = []

    @property
    def reads(self) -> set:
        r = self._reads
        if r.__class__ is list:  # the reads tuples, as the walk kept them
            r = self._reads = set().union(*r)
        return r


class _Node:
    """A node of a narrowing walk's tree: a chain whose holes stand for the
    subterms at positions pos of the root signature, reached by link index
    of node up, which follows via.  cut: its context is on the path; open:
    a run that ends below it goes on by a later link; joins: the nearest
    join on the path for each edge and |U|; earlier: that for its own."""

    __slots__ = ("chain", "pos", "up", "index", "via", "kids", "cut", "open",
                 "joins", "earlier")

    def __init__(self, chain: _Chain, pos: tuple, up, index: int, via):
        self.chain, self.pos, self.up, self.index, self.via = \
            chain, pos, up, index, via
        self.kids, self.cut, self.earlier = [], False, None
        self.open: bool = up is not None and up.open
        self.joins: dict = {} if up is None else up.joins


class Chains:
    """The chains of one net for one setting of jumps, kept with the net's
    index (Chains.of), so that each stretch of the symbolic transition
    relation is stepped once for every narrowing walk that reaches it,
    whatever the names of its holes: the chains by start and as a set, the
    root chains by (edge, U), the memos of _canonical (holey, renamed),
    which depend on signatures alone, the standard heads, and how many
    chains it inherited.  The index holds no net, so the methods that step
    take the net and its machine configuration.

    `searched` keeps each finished search_copy_candidates result by (edge,
    U, step budget), with the frozenset of the chains its tree holds.

    A reduct's chains start from its parent's (net._Index.inherited): the
    chains whose reads miss the step's stale vertices, and the roots among
    them; the memos are shared.  When its standard heads are the parent's,
    it also takes over each search result whose chains it all kept
    (`handed`): the copies are a function of the tree, the heads a split
    offers and the budget, and the tree of the chains it reaches.
    """

    __slots__ = ("chains", "alive", "roots", "holey", "renamed", "heads",
                 "inherited", "searched", "handed")

    def __init__(self, net: N.ProofNet, jumps: bool):
        mux = mux_indices(net)
        self.heads = all_standard_sigs(1, mux) if mux else _HEADS
        given = net._index.inherited
        parent = given[1].get(jumps) if given is not None else None
        if parent is None:
            self.chains, self.roots, self.holey, self.renamed = {}, {}, {}, {}
            self.alive, self.handed = set(), {}
        else:
            stale = given[2]
            self.chains = {start: ch for start, ch in parent.chains.items()
                           if stale.isdisjoint(ch.reads)}
            alive = self.alive = set(self.chains.values())
            self.roots = {k: ch for k, ch in parent.roots.items() if ch in alive}
            self.holey, self.renamed = parent.holey, parent.renamed
            self.handed = {}
            if self.heads == parent.heads:
                self.handed = {k: hit for k, hit in parent.searched.items()
                               if hit[1] <= alive}
        self.inherited = len(self.chains)
        self.searched = dict(self.handed)

    @staticmethod
    def of(net: N.ProofNet, config: MachineConfig) -> "Chains":
        """The chains kept with net's index for config's setting of jumps."""
        kept, jumps = net._index.chains, config.jumps_enabled
        return kept.get(jumps) or kept.setdefault(jumps, Chains(net, jumps))

    def tree(self, net: N.ProofNet, config: MachineConfig, edge: str,
             us: tuple[Sig, ...]) -> tuple[list, int]:
        """The nodes of the narrowing walk's tree from (edge, us, (ROOT,),
        +), root first, and the budget the walk spent.  A node costs its
        chain's transitions and one more; past config.step_budget, the walk
        raises BudgetExhausted."""
        budget, spent, nodes = config.step_budget, 0, []
        alive = self.alive

        def expand(node: _Node, path: list) -> list[_Node]:
            nonlocal spent
            ch, pos = node.chain, node.pos
            spent += ch.steps + 1
            nodes.append(node)
            if spent > budget:
                raise BudgetExhausted("machine step budget exhausted",
                                      _context(node, {}))
            if ch.join:
                shape = ch.start[0], len(ch.start[1])
                node.earlier = node.joins.get(shape)
                node.joins = {**node.joins, shape: node}
            for link in ch.links:
                nxt = link[3]
                if nxt is None or nxt not in alive:
                    nxt = link[3] = self._chain(net, config, link[1])
                at = tuple(pos[x[0]] + x[1:] for x in link[2])
                node.kids.append(_Node(nxt, at, node, len(node.kids), link[0]))
            # the links that follow one via are adjacent
            for kid, after in zip(node.kids, node.kids[1:]):
                kid.open = kid.open or after.via == kid.via
            return node.kids

        root = self.roots.get((edge, us))
        if root is None:
            start = self._canonical(Context(edge, us, (ROOT,), "+"))[0]
            root = self.roots[edge, us] = self._chain(net, config, start)
        top = _Node(root, ((),), None, 0, None)
        for event, x, _ in explore(top, expand, budget,
                                   key=operator.attrgetter("chain", "pos")):
            if event == CYCLE:
                x.cut = True
            elif event == BUDGET:
                raise BudgetExhausted("machine step budget exhausted")
        return nodes, spent

    def _chain(self, net: N.ProofNet, config: MachineConfig,
               start: Context) -> _Chain:
        ch = self.chains.get(start)
        if ch is None:
            ch = self.chains[start] = self._walk_chain(net, config,
                                                       _Chain(start))
            self.alive.add(ch)
        return ch

    def _walk_chain(self, net: N.ProofNet, config: MachineConfig,
                    ch: _Chain) -> _Chain:
        table, principals = net._index.transitions, net.principal_edges()
        budget = config.step_budget
        c, on_chain, steps = ch.start, None, 0
        ch._reads = vertices = []
        ch.join = False
        if c[3] == "+" and len(c[2]) == 1:  # a join, if its edge is principal
            e = net.edges.get(c[0])
            if e is not None:
                vertices.append((e.src[0],))
            ch.join = c[0] in principals
        read = vertices.append
        while True:
            entry = table.get((c[0], c[3])) or table_entry(net, c[0], c[3])
            read(entry.reads)
            st = c[2]
            reads = (c[3] == "+" and entry.port in _READ_PORTS and st
                     and (entry.vertex.label, entry.port) in _INSPECTING)
            if reads and st[-1][0] == "h":
                demanded = _demanded(entry, c)
                if demanded is not None:
                    ch.kind, ch.hole = SPLIT, st[-1][1][0]
                    ch.demanded = [_head(t) for t in demanded]
                    # a hole occurs once in a context: signatures are
                    # moved, not copied
                    ch.links = [
                        [_head(t), *self._canonical(d), None]
                        for t in demanded
                        for d in entry.rule(c[1], st[:-1] + (t,), config)]
                    break
            succs = step(net, c, config, entry)
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
                ch.kind = BRANCH
                ch.links = [[None, *self._canonical(d), None] for d in succs]
            else:
                ch.kind = LEAF
                need = final_at(entry, st, {})
                ch.need = None if need is None else [pos[0] for pos in need]
            break
        ch.end, ch.steps = c, steps
        return ch

    def _canonical(self, c: Context) -> tuple[Context, tuple]:
        """c with its holes renamed ('h', (0,)), ('h', (1,)), ... in order
        of first occurrence, U before the stack, and their old names in
        that order.  Each U is renamed once."""
        hit = self.renamed.get(c[1])
        if hit is None:
            names: dict = {}
            hit = self.renamed[c[1]] = self._rename(c[1], names), names
        us, names = hit[0], dict(hit[1])
        stack = self._rename(c[2], names)
        return _new(Context, (c[0], us, stack, c[3])), tuple(names)

    def _has_hole(self, x: Sig) -> bool:
        h = self.holey.get(x)
        if h is None:
            h = self.holey[x] = any(y[0] == "h" for y in nodes(x))
        return h

    def _rename(self, entries: tuple, names: dict) -> tuple:
        """entries with each hole renamed ('h', (i,)), i its old name's
        number in names, new names numbered on."""
        out, renamed = None, lambda h: ("h", (names.setdefault(h[1], len(names)),))
        for i, x in enumerate(entries):
            if x.__class__ is tuple and self._has_hole(x):
                if out is None:
                    out = list(entries)
                out[i] = _rebuilt(x, renamed)
        return entries if out is None else tuple(out)


# --- pattern refinement -------------------------------------------------------

FOUND, DEAD = "found", "dead"
_HEADS = [E, "l", "r", "n"]  # the heads of the standard signatures


class _Member:
    """A simplification of a pattern: its heads by position; its own
    position of each unread hole, by the hole's position in the pattern;
    the position of the hole it simplifies down to (tip, None if there is
    none); and its run: the node it is at, whether it met its path again,
    and its state (None while it runs on, FOUND, DEAD, or the position of
    the unread hole it needs)."""

    __slots__ = ("binds", "holes", "tip", "node", "cyclic", "state")

    def __init__(self, binds: dict, holes: dict, tip, node: _Node, cyclic):
        self.binds, self.holes, self.tip = binds, holes, tip
        self.node, self.cyclic, self.state = node, cyclic, None


def _advance(m: _Member) -> None:
    """Run m on from its node as reach_final runs from its signature:
    depth-first, following at each read the link of the head it has there,
    up to its first final leaf, the end of its run, or an unread hole it
    needs, and past each node where it meets its path again."""
    node, binds = m.node, m.binds
    while True:
        ch, go = node.chain, None
        again = node.cut or ch.kind == LOOP or _meets_path(node, binds)
        if again is True:
            m.cyclic = True
        elif again is not False:  # the hole the answer depends on
            m.node, m.state = node, again
            return
        elif ch.kind == BRANCH:
            go = node.kids[0]
        elif ch.kind == SPLIT:
            at = node.pos[ch.hole]
            if at not in binds:
                m.node, m.state = node, at
                return
            go = next((k for k in node.kids if k.via == binds[at]), None)
        elif ch.need is not None:
            need = [node.pos[j] for j in ch.need]
            if all(binds.get(q, E) == E for q in need):  # final, or needs one
                q = next((q for q in need if q not in binds), None)
                m.node, m.state = node, FOUND if q is None else q
                return
        while go is None:  # back to the next link the run takes
            up = node.up
            if up is None:
                m.state = DEAD
                return
            i = node.index + 1
            if i < len(up.kids) and up.kids[i].via == node.via:
                go = up.kids[i]
            node = up
        node = go


def _meets_path(node: _Node, binds: dict):
    """Whether the member with binds has at node, a join, a context it had
    at a join above: True, False, or the position of an unread hole the
    answer depends on.  A run first meets its path again at its start, a
    join, or a join's mirror; the tree cuts a mirror's cycle later, where
    a chain and its hole positions repeat."""
    hole, p = False, node.earlier
    while p is not None:
        same = _unify(_context(node, binds)[1:3], _context(p, binds)[1:3])
        if same is True:
            return True
        hole, p = same if hole is False else hole, p.earlier
    return hole


def _context(node: _Node, binds: dict) -> Context:
    """node's chain start, its holes named by their positions in the root
    and those bound in binds replaced."""
    pos, bound = node.pos, _bound(binds)
    c, rooted = node.chain.start, lambda h: ("h", pos[h[1][0]] + h[1][1:])

    def f(x):
        return _rebuilt(_rebuilt(x, rooted), bound)

    return Context(c[0], tuple(map(f, c[1])),
                   tuple(f(x) if x.__class__ is tuple else x for x in c[2]), c[3])


def _unify(x, y):
    """Whether x and y are equal whatever their holes stand for (True), for
    nothing they stand for (False), or else the position of a hole the
    answer depends on."""
    todo, hole = [(x, y)], False
    while todo:
        x, y = todo.pop()
        if x == y:
            continue
        if x.__class__ is tuple and y.__class__ is tuple:
            if y[:1] == ("h",):
                x, y = y, x
            if x[:1] == ("h",):
                if x in nodes(y):  # a term is no subterm of itself
                    return False
                hole = x[1] if hole is False else hole
                continue
            if len(x) == len(y):
                todo.extend(zip(x, y))
                continue
        return False
    return True if hole is False else hole


def _refined(m: _Member, at: tuple, t: Sig) -> list[_Member]:
    """The members that m becomes when the pattern binds its hole at to
    head t.  At m's tip, n(x, y) simplifies to n(x', y) and p(y'); in the
    second child of an n, which simplifying leaves alone, there is no p."""
    q = m.holes[at]
    holes = {a: p for a, p in m.holes.items() if a != at}
    arity = _ARITY.get(t, 0)
    out = [_Member({**m.binds, q: t},
                   {**holes, **{at + (i,): q + (i,) for i in range(1, arity + 1)}},
                   m.tip if q != m.tip else q + (1,) if arity else None,
                   m.node, m.cyclic)]
    if q == m.tip and arity == 2:
        out.append(_Member({**m.binds, q: "p"},
                           {**holes, at + (2,): q + (1,)}, q + (1,), m.node,
                           m.cyclic))
    return out


class Copies(frozenset):
    """The copies of a box-edge on a sequence.  cyclic: whether a run from
    a simplification of one met its path again before a final context;
    nodes: the nodes of the narrowing walk's tree."""


def search_copy_candidates(net: N.ProofNet, edge: str, us: tuple[Sig, ...],
                           config: MachineConfig) -> Copies:
    """The copies of edge on us, from one narrowing walk and the patterns
    refined on its tree.

    A pattern is its heads by position, with its members not yet found;
    it starts as ROOT.  Where its first member needs an unread hole, it
    splits over the standard heads that member's node accepts (e at a
    leaf), or over every standard head where another could let the run go
    on.  A member the split leaves alone is shared, with its run.  Once all
    members are found, the pattern is a copy if no hole is left; else each
    instance is one, and as no budget can list them the walk raises
    WeightError.  Each pattern costs one step of the budget.
    """
    chains = Chains.of(net, config)
    key = (edge, us, config.step_budget)
    kept = chains.searched.get(key)
    if kept is not None:
        return kept[0]
    tree, spent = chains.tree(net, config, edge, us)
    copies, cyclic = set(), False
    todo = [({}, [_Member({}, {(): ()}, (), tree[0], False)], False, None, None)]
    while todo:
        spent += 1
        if spent > config.step_budget:
            raise BudgetExhausted("machine step budget exhausted")
        pattern, members, met, at, t = todo.pop()
        if at is not None:  # bind the hole at to t
            pattern = {**pattern, at: t}
            members = (x for m in members for x in (
                _refined(m, at, t) if at in m.holes else (m,)))
        live = []
        for m in members:
            if m.state is None:  # a settled member changes only by a split
                _advance(m)
            if m.state is DEAD:
                break
            if m.state is FOUND:  # as is every member a split makes of it
                met = met or m.cyclic
            else:
                live.append(m)
        else:
            if not live:
                t = _rebuilt(ROOT, _bound(pattern))
                if any(x[0] == "h" for x in nodes(t)):  # each instance is one
                    raise WeightError(f"{edge} has infinitely many copies")
                copies.add(t)
                cyclic = cyclic or met
                continue
            need, node = live[0], live[0].node
            at = next(a for a, q in need.holes.items() if q == need.state)
            offered = chains.heads
            if not (node.open or node.earlier):
                offered = [t for t in node.chain.demanded
                           if t != "p"] if node.chain.kind == SPLIT else [E]
            todo.extend((pattern, live, met, at, t) for t in reversed(offered))
    # a node the walk cut has the chain of one on its path, so these are
    # all the chains the tree holds
    used = frozenset([node.chain for node in tree])
    for node in tree:  # no cycle is left, so the tree is freed at once
        node.kids = node.joins = None
    out = Copies(copies)
    out.cyclic, out.nodes = cyclic, len(tree)
    chains.searched[key] = out, used
    return out


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
        self._simps: dict[Sig, frozenset[Sig]] = {}  # simplifications' memo
        self.walk_nodes = 0  # the nodes of every narrowing walk's tree

    @property
    def chains_walked(self) -> int:
        """The chains this net's tables walked with the machine."""
        t = self.net._index.chains.get(self.config.jumps_enabled)
        return 0 if t is None else len(t.chains) - t.inherited

    @property
    def chains_inherited(self) -> int:
        """The chains this net's tables started with, from its parent's."""
        t = self.net._index.chains.get(self.config.jumps_enabled)
        return 0 if t is None else t.inherited

    @property
    def copies_inherited(self) -> int:
        """The copy searches of this computer that its net's tables took
        over from the parent's, with no walk."""
        t = self.net._index.chains.get(self.config.jumps_enabled)
        if t is None:
            return 0
        budget, handed = self.config.step_budget, t.handed
        return sum(1 for (e, us), found in self._copies.items()
                   if (hit := handed.get((e, us, budget))) and hit[0] is found)

    # -- copies --

    def copies(self, edge: str, us: tuple[Sig, ...]) -> frozenset[Sig]:
        key = (edge, us)
        if key in self._copies:
            return self._copies[key]
        if edge not in self.net.principal_edges():
            raise WeightError(f"{edge} is not a box-edge")
        found = search_copy_candidates(self.net, edge, us, self.config)
        # contexts reachable from a canonical start are canonical, so a
        # cycle met on the way to a copy's final context is a canonical cycle
        self.cycle_seen = self.cycle_seen or found.cyclic
        self.walk_nodes += found.nodes
        self._copies[key] = found
        return found

    def copies_bruteforce(self, edge: str, us: tuple[Sig, ...],
                          max_size: int = 4) -> frozenset[Sig]:
        """The copies up to max_size by generate and test: each standard
        signature whose simplifications all reach a final context."""
        memo: dict[Context, bool] = {}
        return frozenset(
            t for t in all_standard_sigs(max_size, mux_indices(self.net))
            if all(reach_final(self.net, Context(edge, us, (s,), "+"),
                               self.config, memo)[0]
                   for s in simplifications(t, self._simps)))

    # -- canonical sequences --

    def canonical_sequences(self, item: str) -> list[tuple[Sig, ...]]:
        """The items from this one outwards along sigma, until one is
        known, get their sequences from the outermost inwards, so the
        depth of a box nest costs no Python frames."""
        canon = self._canon
        todo = []  # (item, its sigma), innermost first
        cur = item
        while cur not in canon:
            enclosing = self.net.sigma(cur)
            if enclosing is None:
                canon[cur] = [()]
                break
            todo.append((cur, enclosing))
            cur = enclosing
        for cur, enclosing in reversed(todo):
            seqs = []
            for v in canon[enclosing]:
                for t in sorted(self.copies(enclosing, v)):
                    seqs.append(v + (t,))
            canon[cur] = seqs
        return canon[item]

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


def _only_the_start(c: Context) -> bool:
    """explore's merges for a walk whose expand drops the successors it has
    seen, the start among them: none is on the path, so only the start is
    looked up there."""
    return False


class CanonicalWalk(NamedTuple):
    transitions: list[tuple[Context, Context]]
    stuck: list[Context]  # the non-final contexts without successors
    finals: list[Context]  # the final contexts expanded, in walk order


def canonical_starts(comp: WeightComputer):
    """The canonical starts (e, u, (s,), +), for a box-edge e, a canonical
    sequence u of e and a simplification s of a copy of e on u, in order:
    box-edges, sequences, sorted copies, sorted simplifications."""
    for e in comp.net.box_edges():
        for u in comp.canonical_sequences(e):
            for t in sorted(comp.copies(e, u)):
                for s in sorted(simplifications(t, comp._simps)):
                    yield Context(e, u, (s,), "+")


def canonical_walk(comp: WeightComputer, starts=None) -> CanonicalWalk:
    """Every transition a token takes from starts, each once, and every
    context without successors that it reaches, each once: stuck, or final.

    starts defaults to every canonical start (canonical_starts); every
    context reachable from one is canonical.  The starts are walked in
    order with one set of contexts seen, so each context is expanded once
    and the lists do not depend on hashing.  A context is stuck when it
    has no successor and is not final.  The walk shares the step budget:
    each start gets what the transitions listed before it left.
    """
    net, config = comp.net, comp.config
    out: list[tuple[Context, Context]] = []
    stuck: list[Context] = []
    finals: list[Context] = []
    seen: set[Context] = set()

    def expand(c: Context, path: list) -> list[Context]:
        succs = step(net, c, config)
        if not succs:
            (finals if is_final(net, c) else stuck).append(c)
        out.extend((c, d) for d in succs)
        return [d for d in succs if d not in seen and not seen.add(d)]

    for start in canonical_starts(comp) if starts is None else starts:
        if start in seen:
            continue
        seen.add(start)
        for event, c, _ in explore(start, expand,
                                   config.step_budget - len(out),
                                   merges=_only_the_start):
            if event == BUDGET:
                raise BudgetExhausted("machine step budget exhausted", c)
    return CanonicalWalk(out, stuck, finals)


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
                           t: Sig, computer: WeightComputer | None = None) -> bool:
    """Every subtree of a copy is carried by some context reachable from a
    simplification of the copy: the canonical walk from those
    simplifications reaches a context with '+' and stack (s,) for each
    subtree s."""
    comp = computer or WeightComputer(net)
    if t not in comp.copies(edge, us):
        raise WeightError(f"{t} is not a copy of {edge}")
    starts = [Context(edge, us, (v,), "+")
              for v in sorted(simplifications(t, comp._simps))]
    walk = canonical_walk(comp, starts)
    witnessed = {c[2][0] for c in (*starts, *(d for _, d in walk.transitions))
                 if c[3] == "+" and len(c[2]) == 1 and is_sig(c[2][0])}
    return subtrees(t) <= witnessed
