"""The context-semantics token machine.

A context is (edge, U, V, polarity): U a sequence of exponential signatures,
V a stack of stack elements, polarity '+' or '-'.  Polarity '+' means the
token travels with the edge's direction (the next vertex it meets is the
edge's target); '-' means against it.  Contexts are tuples, built and
hashed in C.  Transitions are keyed on the label and port of that vertex.
Both polarities of a rule come from the port's direction (`net.IN_PORTS`):
a token arrives at an in-port with '+' and at an out-port with '-', and
leaves an out-port with '+' and an in-port with '-'.  The rules of -o, *
and forall are read from the one declared table `net.CONNECTIVES`: at a
connective's principal port the token pops the symbol that selects an
auxiliary port, and at an auxiliary port it pushes that port's symbol, so
each rule and its dual come from the same entry.

The transitions are compiled, after Mackie's geometry of interaction
machine: each (edge, polarity) gets a table entry on first use, kept with
the net's index, that holds the endpoint vertex and port, and the rule
met there with its exit edges and their direction checks already
resolved.  step is one lookup and one call of the rule, which inspects only
the stack and U (and whether jumps are enabled, read as it runs).  An exit
that cannot be taken (no edge at the port, an edge the wrong way round)
is resolved to one that raises that error when a rule takes it, so a
malformed net fails in the step that reaches the fault and no earlier.
An entry records the vertices it was compiled from, and a reduct from
rewriting takes its parent's entry for a pair instead of compiling one
when that entry read none of the vertices its step changed.

The machine is deterministic except at a box's principal edge with negative
polarity and a single-signature stack, where it jumps to every box premise
at once.  A context has two predecessors only where a jump lands: on a
box's principal edge with '+' or a door's outer edge with '-', with a
one-element stack (may_merge).

Every walk of the transition relation (run, reach_final, the narrowing
walk over weights.Chains, and the canonical walk that the suite's and the
soundness checks read) is one call of explore: a depth-first walk on an
explicit stack that keeps the nodes of the current path where it can
meet itself again in a set, for cycle detection, and a stack entry only
for a node with successors left, so the length of a path costs no Python
frames.  A walk's per-node work is its expand hook, and explore yields
events only where the walk branches, meets a cycle, runs out of budget
or backtracks, never once per node.  One budget rule holds for all of
them: it is checked when a node with successors is expanded, and each
transition taken costs one unit (a chain walk checks it at every node,
which costs its chain's transitions and one more).  run reports an exhausted budget as an outcome; the other walks
raise BudgetExhausted.

A final context is defined once, by final_at on its table entry
(final_bindings on a context).  The narrowing walk's holes ('h', pos),
signatures not yet chosen, may stand where a final context needs e;
final_at then binds them to e.  A final context has no successor: it is
at a conclusion, weakening or premise, where no rule applies, or at a
dereliction's bang port on a one-element stack, where the rule needs two.
So run, reach_final and the canonical walk call step once per node, and
the chains of the narrowing walk read a context's table entry once and call
its rule; each tests finality only when no successor comes back.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import net as N
from .formulas import Tree
from .signatures import E, Sig, is_sig, lsig, msig, nsig, psig, rsig

SYMBOLS = ("a", "o", "s", "f", "x")

StackEl = object  # Sig or one of SYMBOLS


class MachineError(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    def __init__(self, message, context=None, steps=0):
        super().__init__(message)
        self.context = context
        self.steps = steps


class _ContextFields(NamedTuple):
    edge: str
    us: tuple[Sig, ...]
    stack: tuple[StackEl, ...]
    pol: str  # '+' or '-'


class Context(_ContextFields):
    """A token's position: a tuple, so that it is built and hashed in C."""

    __slots__ = ()

    def __new__(cls, edge, us, stack, pol):
        if pol != "+" and pol != "-":
            raise MachineError(f"bad polarity {pol!r}")
        return tuple.__new__(cls, (edge, us, stack, pol))

    def __str__(self):
        from .signatures import format_sig

        us = "[" + " ".join(format_sig(t) for t in self.us) + "]"
        stack = " ".join(format_sig(s) if is_sig(s) else s for s in self.stack)
        return f"({self.edge}, {us}, {stack or 'eps'}, {self.pol})"


def dual(c: Context) -> Context:
    return Context(c.edge, c.us, c.stack, "-" if c.pol == "+" else "+")


def sig_count(seq) -> int:
    return sum(1 for x in seq if is_sig(x))


def sym_count(seq, s: str) -> int:
    return sum(1 for x in seq if x == s)


@dataclass
class MachineConfig:
    jumps_enabled: bool = True
    step_budget: int = 10**7


# --- final contexts -------------------------------------------------------


def is_hole(x) -> bool:
    """A hole ('h', pos) of the narrowing walk: a signature not yet read."""
    return isinstance(x, tuple) and x and x[0] == "h"


def final_bindings(net: N.ProofNet, c: Context, binds: dict):
    """The bindings under which c is final, or None when it cannot be."""
    return final_at(table_entry(net, c.edge, c.pol), c.stack, binds)


def final_at(entry: Entry, st: tuple, binds: dict):
    """The bindings under which a token with stack st is final at the
    endpoint of entry, or None when it cannot be.

    The stack is read from its top, with a polarity that starts '+' at a
    conclusion or weakening and '-' at a premise and flips at each 'a'.
    A signature must be e where the polarity is '+'; where it is '-' any
    signature will do, except at the bottom, which must then be a symbol.
    A hole where e is needed is bound to e in the result, a copy of binds;
    other holes stay open.
    """
    final = entry.final
    if final is None:
        return None
    if final == _DER_FINAL:
        if len(st) != 1:
            return None
        if is_hole(st[0]):
            return {**binds, st[0][1]: E}
        return binds if st[0] == E else None
    if not st:
        return None
    pos = final == "+"
    out = binds
    for k in range(len(st) - 1, -1, -1):
        x = st[k]
        if x in SYMBOLS:  # at the bottom too: degenerate stacks close a path
            if x == "a":
                pos = not pos
        elif pos:
            if is_hole(x):
                out = {**out, x[1]: E}
            elif x != E:
                return None
        elif k == 0 or not is_sig(x):
            return None
    return out


def is_final(net: N.ProofNet, c: Context) -> bool:
    return final_bindings(net, c, {}) is not None


# --- the compiled transition table ------------------------------------------


# Entry.final: how final_bindings reads a stack at the endpoint, namely a
# dereliction's bang port, or from the polarity '+' or '-'; None: never final
_DER_FINAL = "der"


class Entry(NamedTuple):
    """What a token on an edge with a polarity meets: the endpoint vertex
    and port, and the rule applied there.  `reads` lists what the entry was
    compiled from: the endpoint vertex, and for a jump the doors of its box
    (net.doors_of and each door) or the principal of the door's box."""

    vertex: N.Vertex
    port: str
    rule: Callable  # (us, stack, config) -> successors
    final: str | None
    reads: tuple = ()


def table_entry(net: N.ProofNet, edge: str, pol: str) -> Entry:
    """The entry of (edge, pol), found on first use and kept with the
    net's index: the parent's entry for a reduct when it read no vertex
    the step made stale, else compiled."""
    index = net._index
    table = index.transitions
    entry = table.get((edge, pol))
    if entry is None:
        handed = index.inherited
        entry = handed and handed[0].get((edge, pol))
        if entry is None or not handed[2].isdisjoint(entry.reads):
            entry = _compile(net, edge, pol)
        table[edge, pol] = entry
    return entry


def step(net: N.ProofNet, c: Context, config: MachineConfig | None = None,
         entry: Entry | None = None) -> list[Context]:
    """All d with c -> d; empty when c is final or stuck.  entry, when the
    caller holds it, is c's table entry, which is then not looked up."""
    if entry is None:
        entry = net._index.transitions.get((c[0], c[3])) \
            or table_entry(net, c[0], c[3])
    return entry.rule(c[1], c[2], config)


def _compile(net: N.ProofNet, edge: str, pol: str) -> Entry:
    e = net.edges.get(edge)
    if e is None:
        raise MachineError(f"unknown edge {edge}")
    vid, port = e.tgt if pol == "+" else e.src
    v = net.vertices[vid]
    label = v.label
    if label == N.DER and port == "bang" and pol == "+":
        final = _DER_FINAL
    elif (pol == "+" and label in (N.CONCL, N.WEAK)) \
            or (pol == "-" and label == N.PREM):
        final = pol
    else:
        final = None
    # the exits are edges at the endpoint's ports; a jump also reads the
    # doors of the endpoint's box, or the box of the door it is
    reads: tuple = (vid,)
    if label == N.RBANG and port == "principal" and vid in net.boxes:
        reads += (N.doors_of(vid), *net.boxes[vid].doors)
    elif label == N.LBANG and port == "outer":
        pid = net.door_box(vid)
        if pid is not None:
            reads += (pid,)
    return Entry(v, port, _rule(net, v, port, pol), final, reads)


class _Broken:
    """An exit that raises, when a rule takes it, the error met while
    resolving it."""

    __slots__ = ("kind", "args")

    def __init__(self, exc: Exception):
        self.kind = type(exc)
        self.args = exc.args

    def throw(self):
        raise self.kind(*self.args)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError, AssertionError) as exc:  # NetError, MachineError too
        return _Broken(exc)


def _leave(net: N.ProofNet, v: N.Vertex, port: str) -> str:
    e = net.edge_at(v.id, port)
    if N.is_in_port(v, port):
        assert e.tgt == (v.id, port), f"leaving {v.id}.{port} with - but edge exits it"
    else:
        assert e.src == (v.id, port), f"leaving {v.id}.{port} with + but edge enters it"
    return e.id


def _exit(net: N.ProofNet, v: N.Vertex, port: str) -> tuple:
    """Leaving v by port: the edge there, or the error met resolving it,
    and the polarity, '+' from an out-port and '-' from an in-port."""
    return _attempt(_leave, net, v, port), "-" if N.is_in_port(v, port) else "+"


def _never(us, st, config):
    return []


_new = tuple.__new__  # a Context without the polarity check


def _raising(broken: _Broken) -> Callable:
    return lambda us, st, config: broken.throw()


def _push(out, sym) -> Callable:
    """Leave by the exit out with sym pushed."""
    x, pol = out
    if x.__class__ is _Broken:
        return _raising(x)
    tail = (sym,)
    return lambda us, st, config: [_new(Context, (x, us, st + tail, pol))]


def _pop(branches: dict) -> Callable:
    """Pop the top symbol and leave by the exit it selects, if any."""

    def rule(us, st, config):
        hit = branches.get(st[-1]) if st else None
        if hit is None:
            return []
        x, pol = hit
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st[:-1], pol))]

    return rule


# label -> (principal port, stack symbol -> auxiliary port), read from
# net.CONNECTIVES
_CONNECTIVES = {label: (principal, aux)
                for sides in N.CONNECTIVES.values()
                for label, principal, aux in sides}


def _rule(net: N.ProofNet, v: N.Vertex, port: str, pol: str) -> Callable:
    """The rule a token arriving at port of v with polarity pol meets, its
    exits resolved.  A token arrives at an in-port with '+' and at an
    out-port with '-'; with the other polarity it meets no rule."""
    label = v.label
    if label in N.BOX_PRINCIPALS and v.id not in net.boxes:
        return _raising(_Broken(KeyError(v.id)))
    if label not in N.IN_PORTS or pol != ("+" if N.is_in_port(v, port) else "-"):
        return _never
    out = lambda p: _exit(net, v, p)

    connective = _CONNECTIVES.get(label)
    if connective is not None:
        principal, aux = connective
        if port == principal:
            return _pop({sym: out(p) for sym, p in aux.items()})
        for sym, p in aux.items():
            if port == p:
                return _push(out(principal), sym)
    elif label == N.CONTR:
        if port == "merged":
            return _contr_split(out("left"), out("right"))
        if port == "left":
            return _contr_merge(out("merged"), lsig)
        if port == "right":
            return _contr_merge(out("merged"), rsig)
    elif label == N.DER:
        if port == "bang":
            return _der_open(out("plain"))
        if port == "plain":
            return _push(out("bang"), E)
    elif label == N.DIG:
        if port == "bang":
            return _dig_open(out("dbang"))
        if port == "dbang":
            return _dig_close(out("bang"))
    elif label == N.MUX:
        if port == "merged":
            return _pop({msig(i): out(f"split{i}") for i in range(1, v.arity + 1)})
        if port.startswith("split"):
            index = _attempt(int, port[5:])
            if index.__class__ is _Broken:
                return _raising(index)
            return _push(out("merged"), msig(index))
    elif label in N.BOX_PRINCIPALS:
        if port == "principal":
            jumps = None
            if label == N.RBANG:
                doors = net.boxes[v.id].doors
                jumps = _attempt(lambda: [net.edge_at(d, "outer").id
                                          for d in doors])
            return _box_enter(out("inner"), jumps)
        if port == "inner":
            return _box_exit(out("principal"))
    elif label in N.BOX_DOORS:
        if port == "outer":
            jumps = None
            if label == N.LBANG:
                jumps = _attempt(_door_jump, net, v.id)
            return _box_enter(out("inner"), jumps)
        if port == "inner":
            return _box_exit(out("outer"))
    # prem / concl / weak induce no transitions
    return _never


def _contr_split(left, right) -> Callable:
    def rule(us, st, config):
        top = st[-1] if st else None
        if is_sig(top) and (top[0] == "l" or top[0] == "r"):
            x, pol = left if top[0] == "l" else right
            st = st[:-1] + (top[1],)
            if x.__class__ is _Broken:
                x.throw()
            return [_new(Context, (x, us, st, pol))]
        return []

    return rule


def _contr_merge(out, wrap) -> Callable:
    x, pol = out

    def rule(us, st, config):
        top = st[-1] if st else None
        if not is_sig(top):
            return []
        st = st[:-1] + (wrap(top),)
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st, pol))]

    return rule


def _der_open(out) -> Callable:
    x, pol = out

    def rule(us, st, config):
        if len(st) < 2 or st[-1] != E:
            return []
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st[:-1], pol))]

    return rule


def _dig_open(out) -> Callable:
    x, pol = out

    def rule(us, st, config):
        top = st[-1] if st else None
        if is_sig(top) and top[0] == "n":
            st = st[:-1] + (top[1], top[2])
        elif len(st) == 1 and is_sig(top) and top[0] == "p":
            st = (top[1],)
        else:
            return []
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st, pol))]

    return rule


def _dig_close(out) -> Callable:
    x, pol = out

    def rule(us, st, config):
        if len(st) >= 2 and is_sig(st[-1]) and is_sig(st[-2]):
            st = st[:-2] + (nsig(st[-2], st[-1]),)
        elif len(st) == 1 and is_sig(st[-1]):
            st = (psig(st[-1]),)
        else:
            return []
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st, pol))]

    return rule


def _door_jump(net: N.ProofNet, vid: str) -> str:
    """The principal edge of the box of door vid."""
    pid = net.door_box(vid)
    if pid is None:
        raise MachineError(f"door {vid} not attached to a box")
    return net.rho(pid)


def _box_enter(out, jumps) -> Callable:
    """Cross a box boundary inwards, moving the top signature to U; with a
    single signature, jump instead (from a principal to every door, from a
    door to the principal) when jumps are enabled.  jumps is None for
    sec-boxes, whose boundary has no jumps."""
    x, pol = out

    def rule(us, st, config):
        top = st[-1] if st else None
        if not is_sig(top):
            return []
        if len(st) >= 2:
            us, st = us + (top,), st[:-1]
            if x.__class__ is _Broken:
                x.throw()
            return [_new(Context, (x, us, st, pol))]
        if jumps is None or (config is not None and not config.jumps_enabled):
            return []
        if jumps.__class__ is _Broken:
            jumps.throw()
        if pol == "+":
            return [_new(Context, (jumps, us, st, "+"))]
        return [_new(Context, (d, us, st, "-")) for d in jumps]

    return rule


def _box_exit(out) -> Callable:
    """Cross a box boundary outwards, moving the last signature of U back
    onto the stack."""
    x, pol = out

    def rule(us, st, config):
        if not us:
            return []
        us, st = us[:-1], st + (us[-1],)
        if x.__class__ is _Broken:
            x.throw()
        return [_new(Context, (x, us, st, pol))]

    return rule


# --- runs -----------------------------------------------------------------


@dataclass(eq=False, repr=False)
class RunResult(Tree):
    """A run's outcome: a `formulas.Tree` through its branches, so nested
    branches compare and print without a Python frame each; mutable, so
    unhashable."""

    kind: str  # 'final' | 'stuck' | 'cycle' | 'budget' | 'branch'
    context: Context
    steps: int
    branches: list["RunResult"] | None = None

    __hash__ = None

    def outcomes(self):
        """The results below the branches, in successor order, on an
        explicit stack, so that nested branches cost no Python frames."""
        todo = [self]
        while todo:
            r = todo.pop()
            if r.kind != "branch":
                yield r
            else:
                todo += reversed(r.branches)


# explore's events; see its docstring
CYCLE, BRANCH, BUDGET, LEAVE = "cycle", "branch", "budget", "leave"


def explore(start, expand, budget: int, key=None, merges=None):
    """Depth-first walk from start; yields (event, x, path) where the walk
    meets a cycle, branches, spends its budget or backtracks, never once
    per node.

    path is the live list of nodes from start to the current one.  Each
    node is appended to it and then expanded, unless it is on the path
    already: expand(node, path) lists its successors, and an empty list
    makes it a leaf.  expand is therefore the per-node hook, and path[-2]
    is the node it was reached from.  key(node) identifies nodes for cycle
    detection; with key None a node is its own key.

    merges(node) tells whether node may have two predecessors; with merges
    None every node may.  Only the start, a node with the start's key, and
    the nodes that may merge are looked up in, and kept in, the set of
    keys on the path.  That finds every cycle when a node that does not
    merge has at most one predecessor: the first node met again on a path
    is then the start or a merge, for any other node's one predecessor
    would have been met again before it.  The events:

    - CYCLE: x, a successor of path[-1], is on the path; it is skipped.
    - BRANCH: x, path[-1], has more than one successor.
    - BUDGET: x, path[-1], has successors but the budget is spent; it is
      left as a leaf.
    - LEAVE: the walk backtracks; x is the length the path is cut to, and
      path[x:], the nodes whose walks are done, are still on it.

    A consumer that stops iterating takes no further successor.
    """
    path: list = []
    on_path: set = set()
    # the path index and key of each node kept in on_path, in path order
    marks: list[int] = []
    keys: list = []
    pending: list = []  # [path length at the node, its successors, next index]
    d = start
    first = start if key is None else key(start)
    while True:
        if merges is not None and not merges(d) \
                and (d if key is None else key(d)) != first:
            fresh = True
        else:
            k = d if key is None else key(d)
            fresh = k not in on_path
            if fresh:
                on_path.add(k)
                marks.append(len(path))
                keys.append(k)
            else:
                yield CYCLE, d, path
        if fresh:
            path.append(d)
            succs = expand(d, path)
            if succs and budget <= 0:
                yield BUDGET, d, path
                succs = None
        else:
            succs = None
        if succs:
            if len(succs) > 1:
                yield BRANCH, d, path
                pending.append([len(path), succs, 1])
            d = succs[0]
        elif not pending:  # the walk is done
            yield LEAVE, 0, path
            return
        else:
            depth = pending[-1][0]
            if len(path) > depth:
                yield LEAVE, depth, path
                del path[depth:]
                cut = bisect_left(marks, depth)
                if cut < len(marks):
                    on_path.difference_update(keys[cut:])
                    del marks[cut:], keys[cut:]
            entry = pending[-1]
            _, rest, i = entry
            d = rest[i]
            entry[2] = i + 1
            if i + 1 == len(rest):
                pending.pop()
        budget -= 1


def may_merge(c: Context) -> bool:
    """Whether c may have two predecessors.  Only a context whose stack
    holds at most one element may: a box's principal edge with '+' or a
    door's outer edge with '-', where a jump lands (docs/DECISIONS.md,
    "Where token paths merge").  Every other context has at most one."""
    return len(c[2]) <= 1


def run(net: N.ProofNet, start: Context, config: MachineConfig | None = None,
        trace: list | None = None) -> RunResult:
    """Depth-first exploration of the transition relation from start.

    Cycle detection looks up and keeps in the set of contexts on the
    current branch only the start and the contexts that may_merge, so a
    context with two or more stack elements is stepped without being
    hashed; the cycles found are those of a set of every context on the
    branch.  The outcome of a path that branches collects its branches'
    outcomes in successor order.
    """
    config = config or MachineConfig()
    append = trace.append if trace is not None else None
    top: list[RunResult] = []
    outs = [top]  # the outcome list of each open branch, innermost last
    branch_depths: list[int] = []  # path length at each open branch

    def expand(c: Context, path: list) -> list[Context]:
        if append and len(path) > 1:  # a transition from path[-2]
            append(c)
        succs = step(net, c, config)
        if not succs:
            kind = "final" if is_final(net, c) else "stuck"
            outs[-1].append(RunResult(kind, c, len(path) - 1))
        return succs

    for event, x, path in explore(start, expand, config.step_budget,
                                  merges=may_merge):
        if event == LEAVE:
            while branch_depths and branch_depths[-1] > x:
                branch_depths.pop()
                outs.pop()
        elif event == CYCLE:  # a transition from path[-1]
            if append:
                append(x)
            outs[-1].append(RunResult("cycle", x, len(path)))
        elif event == BRANCH:
            b = RunResult("branch", x, len(path) - 1, [])
            outs[-1].append(b)
            outs.append(b.branches)
            branch_depths.append(len(path))
        else:  # BUDGET
            outs[-1].append(RunResult("budget", x, len(path) - 1))
    return top[0]


def reach_final(net: N.ProofNet, start: Context,
                config: MachineConfig | None = None,
                memo: dict | None = None) -> tuple[bool, bool]:
    """(reachable, cycle): whether some final context is reachable from
    start, and whether the walk met a context already on its path, which
    it checks as run does, at the start and where may_merge.

    Memoizes each context whose answer does not depend on an in-progress
    ancestor: every context on a path to a final one, and every context
    left without reaching one and without meeting a cycle below it.
    """
    config = config or MachineConfig()
    memo = memo if memo is not None else {}
    found = cycle = False
    tainted = 0  # the first `tainted` contexts on the path met a cycle below

    def expand(c: Context, path: list) -> list[Context]:
        nonlocal found
        if c in memo:
            found = memo[c]
            return []
        succs = step(net, c, config)
        if not succs and is_final(net, c):
            memo[c] = found = True
        return succs

    for event, x, path in explore(start, expand, config.step_budget,
                                  merges=may_merge):
        if event == LEAVE:
            if found:
                for p in reversed(path[:-1]):
                    memo[p] = True
                return True, cycle
            # deepest first; the tainted prefix gets no entry
            for i in range(len(path) - 1, max(x, tainted) - 1, -1):
                memo[path[i]] = False
            tainted = min(tainted, x)
        elif event == CYCLE:
            cycle = True
            tainted = len(path)
        elif event == BUDGET:
            raise BudgetExhausted("machine step budget exhausted", x)
    return False, cycle


def parse_context(net: N.ProofNet, text: str) -> Context:
    """Parse 'edge / U / V / polarity' with slash-separated fields.

    U is a space-separated signature list (or 'eps'); V likewise but may mix
    the symbols a o s f x with signatures.  Example: 'e3 / eps / a / -'.
    """
    from .signatures import SigError, parse_sig

    parts = [p.strip() for p in text.split("/")]
    if len(parts) != 4:
        raise MachineError(f"bad context literal {text!r}")
    eid, utext, vtext, pol = parts
    if eid == "concl":
        eid = net.conclusion_edge()
    if eid not in net.edges:
        raise MachineError(f"unknown edge {eid}")
    try:
        us = tuple(parse_sig(tok) for tok in utext.split()) if utext != "eps" else ()
        stack: list[StackEl] = []
        if vtext != "eps":
            for tok in vtext.split():
                stack.append(tok if tok in SYMBOLS else parse_sig(tok))
    except SigError as exc:
        raise MachineError(f"bad context literal {text!r}: {exc}") from None
    if not stack:
        raise MachineError("context stack must be nonempty")
    if pol not in ("+", "-"):
        raise MachineError(f"bad polarity {pol!r}")
    return Context(eid, us, tuple(stack), pol)
