"""The token machine's walks on the one explorer, against the walks they replace.

Each walk of the transition relation, and the final-context test, was once
written out by hand.  Those versions are copied below as references, with
the intended changes: the suite's checks iterate copies in sorted order,
and the no-stuck reference walks from every canonical start with one set
of contexts seen, as the canonical walk does.  Every result is compared: run trees and traces at three budgets;
reach_final's answers, memo and cycle flag; the copies, against runs of
reach_final from every standard signature up to size 4; the no-stuck and
subtree checks; and is_final on every context of a canonical transition.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from pnlab import corpus, lam
from pnlab import net as N
from pnlab.families import gen_family
from pnlab.machine import (
    SYMBOLS,
    BudgetExhausted,
    Context,
    Entry,
    MachineConfig,
    RunResult,
    is_final,
    parse_context,
    reach_final,
    run,
    step,
)
from pnlab.signatures import (
    E,
    all_standard_sigs,
    is_sig,
    lsig,
    msig,
    nsig,
    psig,
    rsig,
    sig_size,
    simplifications,
    subtrees,
)
from pnlab.suite import check_no_stuck
from pnlab.weights import (
    WeightComputer,
    canonical_walk,
    check_subtree_property,
    mux_indices,
    search_copy_candidates,
)

# --- references: the walks as they were before the explorer -----------------


def ref_pos_final_stack(v):
    if not v:
        return False
    top, rest = v[-1], v[:-1]
    if not rest:
        if top == E:
            return True
        return top in SYMBOLS
    if top == "a":
        return ref_neg_final_stack(rest)
    if top in ("o", "f", "x", "s"):
        return ref_pos_final_stack(rest)
    if top == E:
        return ref_pos_final_stack(rest)
    return False


def ref_neg_final_stack(v):
    if not v:
        return False
    top, rest = v[-1], v[:-1]
    if not rest:
        return top in SYMBOLS
    if top == "a":
        return ref_pos_final_stack(rest)
    if top in ("o", "f", "x", "s"):
        return ref_neg_final_stack(rest)
    if is_sig(top):
        return ref_neg_final_stack(rest)
    return False


def _endpoint(net, c):
    e = net.edges[c.edge]
    return e.tgt if c.pol == "+" else e.src


def ref_is_final(net, c):
    vid, port = _endpoint(net, c)
    label = net.vertices[vid].label
    if c.pol == "+":
        if label in (N.CONCL, N.WEAK):
            return ref_pos_final_stack(c.stack)
        if label == N.DER and port == "bang":
            return c.stack == (E,)
        return False
    return label == N.PREM and ref_neg_final_stack(c.stack)


def ref_run(net, start, config=None, trace=None):
    config = config or MachineConfig()
    budget = [config.step_budget]

    def explore(c, steps, visited):
        while True:
            if ref_is_final(net, c):
                return RunResult("final", c, steps)
            succs = step(net, c, config)
            if not succs:
                return RunResult("stuck", c, steps)
            if budget[0] <= 0:
                return RunResult("budget", c, steps)
            if len(succs) == 1:
                d = succs[0]
                budget[0] -= 1
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
                if trace is not None:
                    trace.append(d)
                if d in visited:
                    branches.append(RunResult("cycle", d, steps + 1))
                else:
                    branches.append(explore(d, steps + 1, visited | {d}))
            return RunResult("branch", c, steps, branches)

    return explore(start, 0, frozenset([start]))


def ref_reach_final(net, start, config, memo):
    """reach_final and its watching copy: (reachable, cycle seen)."""
    budget = [config.step_budget]
    seen = [False]

    def go(c, visiting):
        if c in memo:
            return memo[c], False
        if ref_is_final(net, c):
            memo[c] = True
            return True, False
        if c in visiting:
            seen[0] = True
            return False, True
        if budget[0] <= 0:
            raise BudgetExhausted("machine step budget exhausted", c)
        visiting.add(c)
        tainted = False
        result = False
        for d in step(net, c, config):
            budget[0] -= 1
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
    return ok, seen[0]


def ref_check_no_stuck(net, comp):
    """A depth-first walk from every canonical start: each simplification
    of each copy, in order, with one set of contexts seen."""
    out = []
    cfg = comp.config
    seen = set()
    for e, be in comp.report().entries.items():
        for u in be.sequences:
            for t in sorted(be.copies[u]):
                for s in sorted(simplifications(t)):
                    start = Context(e, u, (s,), "+")
                    if start in seen:
                        continue
                    seen.add(start)
                    frontier = [start]
                    while frontier:
                        c = frontier.pop()
                        succs = step(net, c, cfg)
                        if not succs and not ref_is_final(net, c):
                            out.append(f"stuck canonical context {c}")
                        new = [d for d in dict.fromkeys(succs) if d not in seen]
                        seen.update(new)
                        frontier.extend(reversed(new))
    return out


def ref_check_subtree_property(net, edge, us, t, comp, limit=10**5):
    witnessed = set()
    seen = set()
    frontier = []
    for v in simplifications(t):
        c = Context(edge, us, (v,), "+")
        frontier.append(c)
        seen.add(c)
    while frontier:
        c = frontier.pop()
        if c.pol == "+" and len(c.stack) == 1 and is_sig(c.stack[0]):
            witnessed.add(c.stack[0])
        for d in step(net, c, comp.config):
            if d not in seen:
                if len(seen) >= limit:
                    raise BudgetExhausted("subtree search limit", d)
                seen.add(d)
                frontier.append(d)
    return all(u in witnessed for u in subtrees(t))


# --- nets ---------------------------------------------------------------------


def _church(k):
    body = "x"
    for _ in range(k):
        body = f"f ({body})"
    return f"(\\f:t -> t. \\x:t. {body})"


def _applied(text):
    sig = {"g": lam.parse_type("t -> t"), "z": lam.parse_type("t")}
    return lam.from_lambda(lam.parse_lambda(f"{text} g z"), sig)


def _composed(j, k):
    body = "y"
    for _ in range(j):
        body = f"h ({body})"
    outer = f"(\\h:(t -> t) -> (t -> t). \\y:(t -> t). {body})"
    return _applied(f"{outer} {_church(k)}")


def _nets():
    nets = dict(corpus.full_corpus())
    for n in range(1, 7):
        nets[f"dr-ladder-{n}"] = gen_family("dr-ladder", n)
    nets["copy-example"] = gen_family("copy-example")
    nets["jump-example"] = gen_family("jump-example")
    for k in range(7):
        nets[f"church-{k}"] = _applied(_church(k))
    nets["compose-2-2"] = _composed(2, 2)
    return nets


NETS = _nets()
STACKS = ((E,), (lsig(E),), (rsig(E),), (nsig(E, E),), (msig(1),),
          ("a",), ("o",), (E, "a"))
BUDGETS = (10**7, 5, 2)


# --- comparisons --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(NETS))
def test_run_matches_reference(name):
    net = NETS[name]
    big = net.size() > 40
    for e in sorted(net.edges):
        for stack in STACKS[:2] if big else STACKS:
            for pol in "+-":
                start = Context(e, (), stack, pol)
                for budget in BUDGETS:
                    config = MachineConfig(step_budget=budget)
                    got_trace, want_trace = [], []
                    r = run(net, start, config, got_trace)
                    w = ref_run(net, start, config, want_trace)
                    assert r == w, (e, stack, pol, budget)
                    assert got_trace == want_trace


@pytest.mark.parametrize("name", sorted(NETS))
def test_reach_final_and_is_final_match_reference(name):
    net = NETS[name]
    config = MachineConfig()
    transitions = canonical_walk(WeightComputer(net)).transitions
    starts = list(dict.fromkeys(c for pair in transitions for c in pair))
    for c in starts:
        assert is_final(net, c) == ref_is_final(net, c), c
    memo, ref_memo = {}, {}
    for c in starts:
        assert (reach_final(net, c, config, memo)
                == ref_reach_final(net, c, config, ref_memo)), c
    assert list(memo.items()) == list(ref_memo.items())


@pytest.mark.parametrize("name", sorted(NETS))
def test_copy_search_and_checks_match_reference(name):
    """The walk's copies are the standard signatures up to size 4 that the
    reference confirms, and each copy it returns passes the reference."""
    from test_shared_verify import ref_confirm

    net = NETS[name]
    comp = WeightComputer(net)
    rep = comp.report()
    config = comp.config
    pool = all_standard_sigs(4, mux_indices(net))
    memo = {}
    for e, be in rep.entries.items():
        for u in be.sequences:
            copies = search_copy_candidates(net, e, u, config)
            assert copies == be.copies[u], (e, u)
            assert ref_confirm(comp, e, u, sorted(copies), memo)[0] == copies
            want = ref_confirm(comp, e, u, pool, memo)[0]
            assert {t for t in copies if sig_size(t) <= 4} == want, (e, u)
            for t in sorted(be.copies[u]):
                assert (check_subtree_property(net, e, u, t, comp)
                        == ref_check_subtree_property(net, e, u, t, comp))
    stuck = canonical_walk(comp).stuck
    assert check_no_stuck(stuck) == ref_check_no_stuck(net, comp)


def test_references_meet_every_outcome_but_cycles():
    """The run comparison on nets covers each kind of outcome but cycles,
    which the next test covers."""
    kinds = set()
    for name in ("lambda-church", "dr-ladder-3"):
        net = NETS[name]
        for e in net.edges:
            for stack in STACKS:
                for pol in "+-":
                    for budget in BUDGETS:
                        r = ref_run(net, Context(e, (), stack, pol),
                                    MachineConfig(step_budget=budget))
                        kinds.update(o.kind for o in (r, *r.outcomes()))
    assert kinds == {"final", "stuck", "budget", "branch"}


def _random_graph(rng):
    """Successor lists over a few integers, mostly one successor, some
    more, with cycles; and a set of final nodes."""
    n = rng.randrange(2, 12)
    succs = {v: [rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
             for v in range(n)}
    return succs, {v for v in range(n) if rng.random() < 0.2}


def _graph_net(succs, finals, stacks=None):
    """A net whose transition table holds one entry per graph node.

    Node v is the context (ev, [], stacks[v], +), with stack e when stacks
    is None.  Its edge ends at a conclusion when v is final and at a
    premise otherwise, so that the reference's is_final reads the net; its
    entry's rule gives the contexts of v's successors, or none when v is
    final, as a final context has none.
    """
    ctx = {v: Context(f"e{v}", (), (E,) if stacks is None else stacks[v], "+")
           for v in succs}
    vertices, edges = {}, {}
    for v in succs:
        vertices[f"v{v}"] = N.Vertex(f"v{v}", N.CONCL if v in finals else N.PREM)
        edges[f"e{v}"] = N.Edge(f"e{v}", (f"w{v}", "edge"), (f"v{v}", "edge"),
                                None)
    net = N.ProofNet(vertices, edges, {})
    for v, ws in succs.items():
        out = () if v in finals else tuple(ctx[w] for w in ws)
        net._index.transitions[f"e{v}", "+"] = Entry(
            vertices[f"v{v}"], "edge", lambda us, st, config, out=out: list(out),
            "+" if v in finals else None)
    return net, ctx


def test_run_and_reach_final_match_reference_on_cyclic_graphs():
    """The walks on random graphs with cycles, given as transition tables."""
    rng = random.Random(7)
    kinds = set()
    cycles = 0
    for _ in range(400):
        succs, finals = _random_graph(rng)
        net, ctx = _graph_net(succs, finals)
        memo, ref_memo = {}, {}
        for start in map(ctx.get, succs):
            for budget in (10**7, 3, 1):
                config = MachineConfig(step_budget=budget)
                got_trace, want_trace = [], []
                r = run(net, start, config, got_trace)
                assert r == ref_run(net, start, config, want_trace)
                assert got_trace == want_trace
                kinds.update(o.kind for o in (r, *r.outcomes()))
            config = MachineConfig()
            answer = reach_final(net, start, config, memo)
            assert answer == ref_reach_final(net, start, config, ref_memo)
            cycles += answer[1]
        assert list(memo.items()) == list(ref_memo.items())
    assert kinds == {"final", "stuck", "budget", "branch", "cycle"}
    assert cycles


# --- where paths merge ----------------------------------------------------------

MERGE_SIGS = (E, lsig(E), rsig(E), nsig(E, E), msig(1), psig(E))
MERGE_STACKS = ((), *((x,) for x in MERGE_SIGS + SYMBOLS),
                *((x, y) for x in MERGE_SIGS + SYMBOLS for y in MERGE_SIGS + SYMBOLS))


def test_only_contexts_with_one_stack_element_have_two_predecessors():
    """Every transition from the contexts with U one of (), [e], [l(e)] and
    a stack of at most two elements over six signatures and the symbols,
    on every corpus net and the families' small members, with jumps on
    and off.  A context with two predecessors has one stack element, and
    is one of two shapes, each met: a join, a box's principal edge with
    '+', reached by the box exit from its inner edge and by the jump from
    a door; and its mirror, a door's outer edge with '-', reached by the
    box exit from the door's inner edge and by the jump from the principal
    (on corpus net copy, (e1, [e], eps, -) and (e2, [], e, -) both step to
    (e3, [], e, -)).  Without jumps no context has two."""
    nets = {**corpus.full_corpus(), **{k: NETS[k] for k in (
        "dr-ladder-3", "copy-example", "jump-example", "church-2")}}
    shapes = {}
    for name, net in sorted(nets.items()):
        outer = {net.edge_at(d, "outer").id
                 for b in net.boxes.values() for d in b.doors}
        for jumps in (True, False):
            config = MachineConfig(jumps_enabled=jumps)
            preds = {}
            for e in net.edges:
                for pol in "+-":
                    for us in ((), (E,), (lsig(E),)):
                        for stack in MERGE_STACKS:
                            c = Context(e, us, stack, pol)
                            for d in step(net, c, config):
                                preds.setdefault(d, set()).add(c)
            for d, ps in preds.items():
                if len(ps) > 1:
                    assert jumps and len(d.stack) == 1, (name, d, ps)
                    if d.pol == "+" and d.edge in net.principal_edges():
                        shape = "join"
                    else:
                        assert d.pol == "-" and d.edge in outer, (name, d, ps)
                        shape = "mirror"
                    shapes.setdefault(shape, (name, d, ps))
    assert sorted(shapes) == ["join", "mirror"]
    net = corpus.full_corpus()["copy"]
    assert (step(net, Context("e1", (E,), (), "-"))
            == step(net, Context("e2", (), (E,), "-"))
            == [Context("e3", (), (E,), "-")])


def _stacked(rng, succs, finals):
    """A stack for each node: one element for a node with two or more
    predecessors, two or three for the others, all e on a final node, so
    that a merge has one stack element as on a net."""
    preds = {v: set() for v in succs}
    for v, ws in succs.items():
        if v not in finals:
            for w in ws:
                preds[w].add(v)
    picks = (E, lsig(E), nsig(E, E), "a", "o")
    return {v: (E,) if len(preds[v]) > 1 else
            (E,) * rng.choice((2, 3)) if v in finals else
            tuple(rng.choice(picks) for _ in range(rng.choice((2, 3))))
            for v in succs}


def test_walks_match_reference_on_cyclic_graphs_with_longer_stacks():
    """The cyclic graphs again, with stacks of two or three elements
    wherever a node has at most one predecessor: run and reach_final check
    those nodes against the path only when they start the walk."""
    rng = random.Random(11)
    kinds = set()
    cycles = untracked = 0
    for _ in range(400):
        succs, finals = _random_graph(rng)
        stacks = _stacked(rng, succs, finals)
        net, ctx = _graph_net(succs, finals, stacks)
        untracked += sum(len(st) > 1 for st in stacks.values())
        memo, ref_memo = {}, {}
        for start in map(ctx.get, succs):
            for budget in (1000, 3, 1):
                config = MachineConfig(step_budget=budget)
                got_trace, want_trace = [], []
                r = run(net, start, config, got_trace)
                assert r == ref_run(net, start, config, want_trace)
                assert got_trace == want_trace
                kinds.update(o.kind for o in (r, *r.outcomes()))
            config = MachineConfig(step_budget=1000)
            answer = reach_final(net, start, config, memo)
            assert answer == ref_reach_final(net, start, config, ref_memo)
            cycles += answer[1]
        assert list(memo.items()) == list(ref_memo.items())
    assert kinds == {"final", "stuck", "budget", "branch", "cycle"}
    assert cycles and untracked > 1000


def test_a_run_looks_up_only_its_start_and_possible_merges(monkeypatch):
    """On dr-ladder 11 a run of 8186 transitions looks up 7 contexts in
    the set of those on its path: the start and six with at most one
    stack element.  The canonical walk, which filters successors through
    a seen set of its own, looks up its starts alone."""
    from pnlab import machine

    looked_up = []

    class RecordingSet(set):
        def __contains__(self, x):
            looked_up.append(x)
            return super().__contains__(x)

    monkeypatch.setattr(machine, "set", RecordingSet, raising=False)
    net = gen_family("dr-ladder", 11)
    start = parse_context(net, "concl / eps / a / -")
    assert run(net, start).steps == 8186
    assert looked_up[0] == start and len(looked_up) == 7
    assert all(len(c.stack) <= 1 for c in looked_up)
    looked_up.clear()
    assert reach_final(net, start) == (True, False)
    assert looked_up[0] == start and len(looked_up) == 7

    comp = WeightComputer(NETS["church-3"])
    comp.report()
    looked_up.clear()
    walk = canonical_walk(comp)
    assert len(walk.transitions) > 100
    starts = [c for c in looked_up if len(c.stack) == 1 and c.pol == "+"
              and c.edge in comp.net.box_edges()]
    assert looked_up == starts and len(set(starts)) == len(starts)


# --- path length and hash order -----------------------------------------------


def test_long_paths_need_no_python_frames():
    """dr-ladder 11 has token paths of 8186 transitions."""
    net = gen_family("dr-ladder", 11)
    config = MachineConfig()
    start = parse_context(net, "concl / eps / a / -")
    assert reach_final(net, start, config) == (True, False)
    for e in sorted(net.edges):
        search_copy_candidates(net, e, (), config)


TRANSITIONS_SCRIPT = """
from pnlab import lam
from pnlab.weights import WeightComputer, canonical_walk
sig = {"g": lam.parse_type("t -> t"), "z": lam.parse_type("t")}
net = lam.from_lambda(lam.parse_lambda(
    "(\\\\f:t -> t. \\\\x:t. f (f (f x))) g z"), sig)
for c, d in canonical_walk(WeightComputer(net)).transitions:
    print(c, d)
"""


def _transitions_under(seed: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", TRANSITIONS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_recorded_transitions_do_not_depend_on_hash_seed():
    first = _transitions_under("1")
    assert first.count("\n") > 100
    assert _transitions_under("3") == first
