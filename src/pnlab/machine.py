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
A reduct from rewriting starts with an empty table of its own.

The machine is deterministic except at a box's principal edge with negative
polarity and a single-signature stack, where it jumps to every box premise
at once.

Every walk of the transition relation (run, reach_final, the copy search
and the suite's checks) is one call of explore: a depth-first walk on an
explicit stack that keeps the current path as a set for cycle detection
and a stack entry only for a node with successors left, so the length of a
path costs no Python frames.  One budget rule holds for all of them: it is
checked when a node with successors is expanded, and each transition
taken costs one unit.  run reports an exhausted budget as an outcome; the
other walks raise BudgetExhausted.

A final context is defined once, by final_bindings.  The copy search's
holes ('h', k), signatures not yet chosen, may stand where a final context
needs e; final_bindings then binds them to e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import net as N
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


@dataclass
class Recorder:
    """Collects executed transitions for invariant checks: the first
    `limit` of them, counting those it drops after that."""

    transitions: list[tuple[Context, Context]] = field(default_factory=list)
    limit: int = 10**6
    dropped: int = 0

    def record(self, c: Context, d: Context):
        if len(self.transitions) < self.limit:
            self.transitions.append((c, d))
        else:
            self.dropped += 1

    def truncation(self) -> str | None:
        """What the checks over `transitions` miss, or None when nothing
        was dropped."""
        if not self.dropped:
            return None
        return (f"{self.dropped} transition(s) past the recorder's limit of "
                f"{self.limit} were not recorded, so they went unchecked")


# --- final contexts -------------------------------------------------------


def is_hole(x) -> bool:
    """A copy-search hole ('h', k): a standard signature not yet chosen."""
    return isinstance(x, tuple) and x and x[0] == "h"


def final_bindings(net: N.ProofNet, c: Context, binds: dict):
    """The bindings under which c is final, or None when it cannot be.

    The stack is read from its top, with a polarity that starts '+' at a
    conclusion or weakening and '-' at a premise and flips at each 'a'.
    A signature must be e where the polarity is '+'; where it is '-' any
    signature will do, except at the bottom, which must then be a symbol.
    A hole where e is needed is bound to e in the result, a copy of binds;
    other holes stay open.
    """
    final = table_entry(net, c.edge, c.pol).final
    if final is None:
        return None
    st = c.stack
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
    and port, and the rule applied there."""

    vertex: N.Vertex
    port: str
    rule: Callable  # (us, stack, config) -> successors
    final: str | None


def table_entry(net: N.ProofNet, edge: str, pol: str) -> Entry:
    """The entry of (edge, pol), compiled on first use and kept with the
    net's index."""
    table = net._index.transitions
    entry = table.get((edge, pol))
    if entry is None:
        entry = table[edge, pol] = _compile(net, edge, pol)
    return entry


def step(net: N.ProofNet, c: Context,
         config: MachineConfig | None = None) -> list[Context]:
    """All d with c -> d; empty when c is final or stuck."""
    return table_entry(net, c.edge, c.pol).rule(c.us, c.stack, config)


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
    return Entry(v, port, _rule(net, v, port, pol), final)


class _Broken:
    """An exit that raises, when a rule takes it, the error met while
    resolving it."""

    __slots__ = ("kind", "args")

    def __init__(self, exc: Exception):
        self.kind = type(exc)
        self.args = exc.args

    def throw(self):
        raise self.kind(*self.args)


def _resolve(fn, *args):
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
    return _resolve(_leave, net, v, port), "-" if N.is_in_port(v, port) else "+"


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
            index = _resolve(int, port[5:])
            if index.__class__ is _Broken:
                return _raising(index)
            return _push(out("merged"), msig(index))
    elif label in N.BOX_PRINCIPALS:
        if port == "principal":
            jumps = None
            if label == N.RBANG:
                doors = net.boxes[v.id].doors
                jumps = _resolve(lambda: [net.edge_at(d, "outer").id
                                          for d in doors])
            return _box_enter(out("inner"), jumps)
        if port == "inner":
            return _box_exit(out("principal"))
    elif label in N.BOX_DOORS:
        if port == "outer":
            jumps = None
            if label == N.LBANG:
                jumps = _resolve(_door_jump, net, v.id)
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


@dataclass
class RunResult:
    kind: str  # 'final' | 'stuck' | 'cycle' | 'budget' | 'branch'
    context: Context
    steps: int
    branches: list["RunResult"] | None = None

    def outcomes(self):
        if self.kind != "branch":
            yield self
        else:
            for b in self.branches:
                yield from b.outcomes()


# explore's events; see its docstring
ENTER, CYCLE, BRANCH, BUDGET, LEAVE = "enter", "cycle", "branch", "budget", "leave"


def explore(start, expand, budget: int, key=lambda node: node):
    """Depth-first walk from start; yields (event, node, path).

    expand(node) lists the successors of node; an empty list makes it a
    leaf.  key(node) identifies nodes for cycle detection.  path is the
    live list of nodes from start to the current one:

    - ENTER: node, a successor of path[-1] unless it is start, is appended
      to path and then expanded.
    - CYCLE: node, a successor of path[-1], is on the path; it is skipped.
    - BRANCH: node, path[-1], has more than one successor.
    - BUDGET: node, path[-1], has successors but the budget is spent; it
      is left as a leaf.
    - LEAVE: the walk below node, path[-1], is done; node is removed.

    A consumer that stops iterating takes no further successor.
    """
    path: list = []
    on_path: set = set()
    pending: list = []  # [path length at the node, its successors, next index]
    d = start
    while True:
        k = key(d)
        if k in on_path:
            yield CYCLE, d, path
            succs = None
        else:
            yield ENTER, d, path
            path.append(d)
            on_path.add(k)
            succs = expand(d)
            if succs and budget <= 0:
                yield BUDGET, d, path
                succs = None
        if succs:
            if len(succs) > 1:
                yield BRANCH, d, path
                pending.append([len(path), succs, 1])
            d = succs[0]
        else:
            depth = pending[-1][0] if pending else 0
            while len(path) > depth:
                yield LEAVE, path[-1], path
                on_path.discard(key(path.pop()))
            if not pending:
                return
            entry = pending[-1]
            _, rest, i = entry
            d = rest[i]
            entry[2] = i + 1
            if i + 1 == len(rest):
                pending.pop()
        budget -= 1


def run(net: N.ProofNet, start: Context, config: MachineConfig | None = None,
        recorder: Recorder | None = None, trace: list | None = None) -> RunResult:
    """Depth-first exploration of the transition relation from start.

    Cycle detection uses the set of contexts on the current branch.  The
    outcome of a path that branches collects its branches' outcomes in
    successor order.
    """
    config = config or MachineConfig()
    top: list[RunResult] = []
    outs = [top]  # the outcome list of each open branch, innermost last
    branch_depths: list[int] = []  # path length at each open branch

    def expand(c: Context) -> list[Context]:
        steps = len(path) - 1  # explore expands c as path[-1]
        if is_final(net, c):
            outs[-1].append(RunResult("final", c, steps))
            return []
        succs = step(net, c, config)
        if not succs:
            outs[-1].append(RunResult("stuck", c, steps))
        return succs

    for event, c, path in explore(start, expand, config.step_budget):
        if (event == ENTER or event == CYCLE) and path:  # a transition
            if recorder:
                recorder.record(path[-1], c)
            if trace is not None:
                trace.append(c)
        if event == CYCLE:
            outs[-1].append(RunResult("cycle", c, len(path)))
        elif event == BUDGET:
            outs[-1].append(RunResult("budget", c, len(path) - 1))
        elif event == BRANCH:
            b = RunResult("branch", c, len(path) - 1, [])
            outs[-1].append(b)
            outs.append(b.branches)
            branch_depths.append(len(path))
        elif event == LEAVE and branch_depths and branch_depths[-1] == len(path):
            branch_depths.pop()
            outs.pop()
    return top[0]


def reach_final(net: N.ProofNet, start: Context,
                config: MachineConfig | None = None,
                memo: dict | None = None,
                recorder: Recorder | None = None) -> tuple[bool, bool]:
    """(reachable, cycle): whether some final context is reachable from
    start, and whether the walk met a context already on its path.

    Memoizes each context whose answer does not depend on an in-progress
    ancestor: every context on a path to a final one, and every context
    left without reaching one and without meeting a cycle below it.
    """
    config = config or MachineConfig()
    memo = memo if memo is not None else {}
    found = cycle = False
    tainted = 0  # the first `tainted` contexts on the path met a cycle below

    def expand(c: Context) -> list[Context]:
        nonlocal found
        if c in memo:
            found = memo[c]
            return []
        if is_final(net, c):
            memo[c] = found = True
            return []
        return step(net, c, config)

    for event, c, path in explore(start, expand, config.step_budget):
        if (event == ENTER or event == CYCLE) and path and recorder:
            recorder.record(path[-1], c)
        if event == CYCLE:
            cycle = True
            tainted = len(path)
        elif event == BUDGET:
            raise BudgetExhausted("machine step budget exhausted", c)
        elif event == LEAVE:
            if found:
                for p in reversed(path[:-1]):
                    memo[p] = True
                return True, cycle
            if len(path) <= tainted:
                tainted = len(path) - 1
            else:
                memo[c] = False
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
