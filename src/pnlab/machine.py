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


def pos_final_stack(v: tuple[StackEl, ...]) -> bool:
    if not v:
        return False
    top, rest = v[-1], v[:-1]
    if not rest:
        if top == E:
            return True
        return top in SYMBOLS  # degenerate one-element stacks close a path
    if top == "a":
        return neg_final_stack(rest)
    if top in ("o", "f", "x", "s"):
        return pos_final_stack(rest)
    if top == E:
        return pos_final_stack(rest)
    return False


def neg_final_stack(v: tuple[StackEl, ...]) -> bool:
    if not v:
        return False
    top, rest = v[-1], v[:-1]
    if not rest:
        return top in SYMBOLS
    if top == "a":
        return pos_final_stack(rest)
    if top in ("o", "f", "x", "s"):
        return neg_final_stack(rest)
    if is_sig(top):
        return neg_final_stack(rest)
    return False


def _endpoint(net: N.ProofNet, c: Context) -> tuple[str, str]:
    e = net.edges[c.edge]
    return e.tgt if c.pol == "+" else e.src


def is_final(net: N.ProofNet, c: Context) -> bool:
    vid, port = _endpoint(net, c)
    label = net.vertices[vid].label
    if c.pol == "+":
        if label in (N.CONCL, N.WEAK):
            return pos_final_stack(c.stack)
        if label == N.DER and port == "bang":
            return c.stack == (E,)
        return False
    return label == N.PREM and neg_final_stack(c.stack)


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


def run(net: N.ProofNet, start: Context, config: MachineConfig | None = None,
        recorder: Recorder | None = None, trace: list | None = None) -> RunResult:
    """Depth-first exploration of the transition relation from start.

    Cycle detection uses the set of contexts seen along the current branch.
    """
    config = config or MachineConfig()
    budget = [config.step_budget]

    def explore(c: Context, steps: int, visited: frozenset[Context]) -> RunResult:
        while True:
            if is_final(net, c):
                return RunResult("final", c, steps)
            succs = step(net, c, config)
            if not succs:
                return RunResult("stuck", c, steps)
            if budget[0] <= 0:
                return RunResult("budget", c, steps)
            if len(succs) == 1:
                d = succs[0]
                budget[0] -= 1
                if recorder:
                    recorder.record(c, d)
                if trace is not None:
                    trace.append(d)
                if d in visited:
                    return RunResult("cycle", d, steps + 1)
                visited = visited | {d}
                c, steps = d, steps + 1
                continue
            branches = []
            for d in succs:
                budget[0] -= 1
                if recorder:
                    recorder.record(c, d)
                if trace is not None:
                    trace.append(d)
                if d in visited:
                    branches.append(RunResult("cycle", d, steps + 1))
                else:
                    branches.append(explore(d, steps + 1, visited | {d}))
            return RunResult("branch", c, steps, branches)

    return explore(start, 0, frozenset([start]))


def reach_final(net: N.ProofNet, start: Context,
                config: MachineConfig | None = None,
                memo: dict | None = None,
                recorder: Recorder | None = None) -> bool:
    """True iff some final context is reachable from start.

    Memoizes results that do not depend on an in-progress ancestor.
    """
    config = config or MachineConfig()
    memo = memo if memo is not None else {}
    budget = [config.step_budget]

    def go(c: Context, visiting: set[Context]) -> tuple[bool, bool]:
        # returns (reachable, tainted-by-cycle)
        if c in memo:
            return memo[c], False
        if is_final(net, c):
            memo[c] = True
            return True, False
        if c in visiting:
            return False, True
        if budget[0] <= 0:
            raise BudgetExhausted("machine step budget exhausted", c)
        visiting.add(c)
        tainted = False
        result = False
        for d in step(net, c, config):
            budget[0] -= 1
            if recorder:
                recorder.record(c, d)
            r, t = go(d, visiting)
            tainted = tainted or t
            if r:
                result = True
                break
        visiting.discard(c)
        if result or not tainted:
            memo[c] = result
        return result, tainted

    ok, _ = go(start, set())
    return ok


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
