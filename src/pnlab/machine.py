"""The context-semantics token machine.

A context is (edge, U, V, polarity): U a sequence of exponential signatures,
V a stack of stack elements, polarity '+' or '-'.  Polarity '+' means the
token travels with the edge's direction (the next vertex it meets is the
edge's target); '-' means against it.  Transitions are keyed on the label
and port of that vertex, transcribed once from the rewrite tables together
with their duals.

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


@dataclass(frozen=True)
class Context:
    edge: str
    us: tuple[Sig, ...]
    stack: tuple[StackEl, ...]
    pol: str  # '+' or '-'

    def __post_init__(self):
        if self.pol not in ("+", "-"):
            raise MachineError(f"bad polarity {self.pol!r}")

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
    """Collects executed transitions for invariant checks."""

    transitions: list[tuple[Context, Context]] = field(default_factory=list)
    limit: int = 10**6

    def record(self, c: Context, d: Context):
        if len(self.transitions) < self.limit:
            self.transitions.append((c, d))


# --- final contexts -------------------------------------------------------


def is_hole(x) -> bool:
    """A copy-search hole ('h', k): a standard signature not yet chosen."""
    return isinstance(x, tuple) and x and x[0] == "h"


def _endpoint(net: N.ProofNet, c: Context) -> tuple[str, str]:
    e = net.edges[c.edge]
    return e.tgt if c.pol == "+" else e.src


def final_bindings(net: N.ProofNet, c: Context, binds: dict):
    """The bindings under which c is final, or None when it cannot be.

    The stack is read from its top, with a polarity that starts '+' at a
    conclusion or weakening and '-' at a premise and flips at each 'a'.
    A signature must be e where the polarity is '+'; where it is '-' any
    signature will do, except at the bottom, which must then be a symbol.
    A hole where e is needed is bound to e in the result, a copy of binds;
    other holes stay open.
    """
    vid, port = _endpoint(net, c)
    label = net.vertices[vid].label
    st = c.stack
    if c.pol == "+" and label == N.DER and port == "bang":
        if len(st) != 1:
            return None
        if is_hole(st[0]):
            return {**binds, st[0][1]: E}
        return binds if st[0] == E else None
    if c.pol == "+" and label in (N.CONCL, N.WEAK):
        pos = True
    elif c.pol == "-" and label == N.PREM:
        pos = False
    else:
        return None
    if not st:
        return None
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


# --- transitions ----------------------------------------------------------


def _leave(net: N.ProofNet, vid: str, port: str, pol: str,
           us: tuple[Sig, ...], stack: tuple[StackEl, ...]) -> Context:
    e = net.edge_at(vid, port)
    if pol == "+":
        assert e.src == (vid, port), f"leaving {vid}.{port} with + but edge enters it"
    else:
        assert e.tgt == (vid, port), f"leaving {vid}.{port} with - but edge exits it"
    return Context(e.id, us, stack, pol)


def step(net: N.ProofNet, c: Context,
         config: MachineConfig | None = None) -> list[Context]:
    """All d with c -> d; empty when c is final or stuck."""
    config = config or MachineConfig()
    if c.edge not in net.edges:
        raise MachineError(f"unknown edge {c.edge}")
    vid, port = _endpoint(net, c)
    v = net.vertices[vid]
    us, st, pol = c.us, c.stack, c.pol
    top = st[-1] if st else None
    out: list[Context] = []
    go = lambda p, b, u2, s2: out.append(_leave(net, vid, p, b, u2, s2))

    label = v.label
    if label == N.RLOLLI:
        if port == "bound" and pol == "-":
            go("concl", "+", us, st + ("a",))
        elif port == "body" and pol == "+":
            go("concl", "+", us, st + ("o",))
        elif port == "concl" and pol == "-":
            if top == "a":
                go("bound", "+", us, st[:-1])
            elif top == "o":
                go("body", "-", us, st[:-1])
    elif label == N.LLOLLI:
        if port == "fun" and pol == "+":
            if top == "a":
                go("arg", "-", us, st[:-1])
            elif top == "o":
                go("res", "+", us, st[:-1])
        elif port == "arg" and pol == "+":
            go("fun", "-", us, st + ("a",))
        elif port == "res" and pol == "-":
            go("fun", "-", us, st + ("o",))
    elif label == N.RTENSOR:
        if port == "left" and pol == "+":
            go("concl", "+", us, st + ("f",))
        elif port == "right" and pol == "+":
            go("concl", "+", us, st + ("x",))
        elif port == "concl" and pol == "-":
            if top == "f":
                go("left", "-", us, st[:-1])
            elif top == "x":
                go("right", "-", us, st[:-1])
    elif label == N.LTENSOR:
        if port == "pair" and pol == "+":
            if top == "f":
                go("left", "+", us, st[:-1])
            elif top == "x":
                go("right", "+", us, st[:-1])
        elif port == "left" and pol == "-":
            go("pair", "-", us, st + ("f",))
        elif port == "right" and pol == "-":
            go("pair", "-", us, st + ("x",))
    elif label == N.RFORALL:
        if port == "prem" and pol == "+":
            go("concl", "+", us, st + ("s",))
        elif port == "concl" and pol == "-" and top == "s":
            go("prem", "-", us, st[:-1])
    elif label == N.LFORALL:
        if port == "fa" and pol == "+" and top == "s":
            go("inst", "+", us, st[:-1])
        elif port == "inst" and pol == "-":
            go("fa", "-", us, st + ("s",))
    elif label == N.CONTR:
        if port == "merged" and pol == "+":
            if is_sig(top) and top[0] == "l":
                go("left", "+", us, st[:-1] + (top[1],))
            elif is_sig(top) and top[0] == "r":
                go("right", "+", us, st[:-1] + (top[1],))
        elif port == "left" and pol == "-" and is_sig(top):
            go("merged", "-", us, st[:-1] + (lsig(top),))
        elif port == "right" and pol == "-" and is_sig(top):
            go("merged", "-", us, st[:-1] + (rsig(top),))
    elif label == N.DER:
        if port == "bang" and pol == "+" and top == E and len(st) >= 2:
            go("plain", "+", us, st[:-1])
        elif port == "plain" and pol == "-":
            go("bang", "-", us, st + (E,))
    elif label == N.DIG:
        if port == "bang" and pol == "+":
            if is_sig(top) and top[0] == "n":
                go("dbang", "+", us, st[:-1] + (top[1], top[2]))
            elif len(st) == 1 and is_sig(top) and top[0] == "p":
                go("dbang", "+", us, (top[1],))
        elif port == "dbang" and pol == "-":
            if len(st) >= 2 and is_sig(st[-1]) and is_sig(st[-2]):
                go("bang", "-", us, st[:-2] + (nsig(st[-2], st[-1]),))
            elif len(st) == 1 and is_sig(top):
                go("bang", "-", us, (psig(top),))
    elif label == N.MUX:
        if port == "merged" and pol == "+":
            if is_sig(top) and top[0] == "m" and 1 <= top[1] <= v.arity:
                go(f"split{top[1]}", "+", us, st[:-1])
        elif port.startswith("split") and pol == "-":
            go("merged", "-", us, st + (msig(int(port[5:])),))
    elif label in (N.RBANG, N.RSEC):
        box = net.boxes[vid]
        if port == "principal" and pol == "-":
            if is_sig(top) and len(st) >= 2:
                go("inner", "-", us + (top,), st[:-1])
            elif is_sig(top) and len(st) == 1 and config.jumps_enabled \
                    and label == N.RBANG:
                for door in box.doors:
                    door_edge = net.edge_at(door, "outer")
                    out.append(Context(door_edge.id, us, st, "-"))
        elif port == "inner" and pol == "+" and us:
            go("principal", "+", us[:-1], st + (us[-1],))
    elif label in (N.LBANG, N.LSEC):
        if port == "outer" and pol == "+":
            if is_sig(top) and len(st) >= 2:
                go("inner", "+", us + (top,), st[:-1])
            elif is_sig(top) and len(st) == 1 and config.jumps_enabled \
                    and label == N.LBANG:
                box_pid = net.door_box(vid)
                if box_pid is None:
                    raise MachineError(f"door {vid} not attached to a box")
                pedge = net.rho(box_pid)
                out.append(Context(pedge, us, st, "+"))
        elif port == "inner" and pol == "-" and us:
            go("outer", "-", us[:-1], st + (us[-1],))
    # prem / concl / weak induce no transitions
    return out


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


def format_context(c: Context) -> str:
    return str(c)


def parse_context(net: N.ProofNet, text: str) -> Context:
    """Parse 'edge / U / V / polarity' with slash-separated fields.

    U is a space-separated signature list (or 'eps'); V likewise but may mix
    the symbols a o s f x with signatures.  Example: 'e3 / eps / a / -'.
    """
    from .signatures import parse_sig

    parts = [p.strip() for p in text.split("/")]
    if len(parts) != 4:
        raise MachineError(f"bad context literal {text!r}")
    eid, utext, vtext, pol = parts
    if eid == "concl":
        eid = net.conclusion_edge()
    if eid not in net.edges:
        raise MachineError(f"unknown edge {eid}")
    us = tuple(parse_sig(tok) for tok in utext.split()) if utext != "eps" else ()
    stack: list[StackEl] = []
    if vtext != "eps":
        for tok in vtext.split():
            stack.append(tok if tok in SYMBOLS else parse_sig(tok))
    if not stack:
        raise MachineError("context stack must be nonempty")
    if pol not in ("+", "-"):
        raise MachineError(f"bad polarity {pol!r}")
    return Context(eid, us, tuple(stack), pol)
