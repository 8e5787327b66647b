"""Local rewriting agrees with the whole-net passes it replaced.

`normalize` and `reduction_metrics` keep each net's live cuts in a map that
`update_cuts` brings up to date from the edges a step touched; along every
step that map must equal `find_cuts` of the reduct.  The references below
are the functions as they were before: `Strategy.permitted` with its
pairwise scan, the recursive `reduction_metrics` that ran `find_cuts` on
every state, and `canonical_key` as a queue walk through `edge_at` that
prints the recursive `alpha_canon` tuple of each edge's formula.  Box
contents a step edits are kept as `EditedSet`s, which must act as the
frozensets they stand for.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from pnlab import net as N
from pnlab import rewrite
from pnlab.formulas import Atom
from pnlab.net import EditedSet
from pnlab.net import Cut as CutRecord
from pnlab.rewrite import (
    CUT_KINDS,
    STRATEGIES,
    TRIANGLE,
    MetricsBudget,
    canonical_key,
    find_cuts,
    fire,
    normalize,
    reduction_metrics,
)

from pnlab.terms import Ax, Cut, Derelict, Promote, elaborate

from test_formulas import ref_alpha_canon
from test_golden import _applied, _church, composed
from test_net_index import family_nets

A = Atom("a")


def church(k):
    return _applied(_church(k, "t"))


# --- the references -------------------------------------------------------------


def ref_permitted(kind, cuts):
    if kind == "arrow":
        return list(cuts)
    all_w = all(c.kind == "W" for c in cuts)
    out = []
    for c in cuts:
        if c.kind == "W" and not all_w:
            continue
        if kind == "triangle":
            if any(d.level < c.level and d.kind != "W" for d in cuts):
                continue
            if c.kind == "!" and any(
                    d.level == c.level and d.kind not in ("W", "!")
                    for d in cuts):
                continue
        out.append(c)
    return out


def ref_canonical_key(net, texts=None):
    """The key as it was.  `texts` may carry the reference formula texts
    from call to call: formula id -> (formula, text)."""
    texts = {} if texts is None else texts
    order = {}
    chunks = []

    def text(f):
        hit = texts.get(id(f))
        if hit is None:
            hit = texts[id(f)] = (f, str(ref_alpha_canon(f)))
        return hit[1]

    def bfs(root):
        queue = [root]
        order.setdefault(root, len(order))
        while queue:
            vid = queue.pop(0)
            v = net.vertices[vid]
            parts = [f"{v.label}/{v.arity}"]
            for port in N.vertex_ports(v):
                try:
                    e = net.edge_at(vid, port)
                except N.NetError:
                    parts.append(f"{port}:-")
                    continue
                out = e.src == (vid, port)
                nbr, nport = e.tgt if out else e.src
                if nbr not in order:
                    order[nbr] = len(order)
                    queue.append(nbr)
                parts.append(
                    f"{port}:{'>' if out else '<'}{order[nbr]}.{nport}:"
                    f"{text(e.formula)}")
            chunks.append(f"{order[vid]}({';'.join(parts)})")

    try:
        bfs(net.conclusion_vertex())
    except N.NetError:
        pass
    while True:
        rest = sorted(set(net.vertices) - set(order), key=N._numkey)
        if not rest:
            break
        best = None
        for root in rest:
            snap_order, snap_chunks = dict(order), list(chunks)
            bfs(root)
            cand = ";".join(chunks[len(snap_chunks):])
            if best is None or cand < best[0]:
                best = (cand, root)
            order.clear()
            order.update(snap_order)
            del chunks[len(snap_chunks):]
        bfs(best[1])
    boxparts = []
    for pid in net.boxes:
        b = net.boxes[pid]
        boxparts.append(
            f"[{order[pid]}|{','.join(str(order[d]) for d in b.doors)}|"
            f"{','.join(sorted(str(order[c]) for c in b.contents))}]")
    return net.system + "|" + ";".join(chunks) + "|" + "".join(sorted(boxparts))


def ref_reduction_metrics(net, strategy, step_budget=10**5, state_budget=10**5):
    memo = {}
    steps_used = [0]

    def explore(cur):
        key = rewrite.canonical_key(cur)
        if key in memo:
            return memo[key]
        if len(memo) >= state_budget:
            raise MetricsBudget("state budget exhausted")
        memo[key] = (0, cur.size())
        cuts = ref_permitted(strategy.kind, rewrite.find_cuts(cur))
        best_steps, best_size = 0, cur.size()
        for cut in cuts:
            steps_used[0] += 1
            if steps_used[0] > step_budget:
                raise MetricsBudget("step budget exhausted")
            nxt, _ = rewrite.fire(cur, cut)
            ns, nz = explore(nxt)
            best_steps = max(best_steps, 1 + ns)
            best_size = max(best_size, nz)
        memo[key] = (best_steps, best_size)
        return memo[key]

    return explore(net)


# --- the nets -----------------------------------------------------------------------


def rewrite_nets(all_nets):
    nets = {**all_nets, **family_nets()}
    # a !-step on a box that holds a D-cut; the merge keeps that cut's level
    der = Cut(Promote(Ax(A)), Derelict(Ax(A), 1), 1)
    nets["merge-around-cut"] = elaborate(Cut(Promote(der), Promote(Ax(A)), 1))
    for k in range(9):
        nets[f"church{k}"] = church(k)
    for j, k in ((2, 2), (2, 3), (3, 2)):
        nets[f"composed{j},{k}"] = composed(j, k)
    return nets


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except MetricsBudget as exc:
        return "budget", str(exc)


# --- the live-cut map ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_live_cuts_equal_find_cuts_along_normalize(all_nets, monkeypatch, strategy):
    update = rewrite.update_cuts
    kinds = set()

    def checked(cuts, net, cut, reduct):
        update(cuts, net, cut, reduct)
        kinds.add(cut.kind)
        live = sorted(cuts.values(), key=lambda c: N._numkey(c.edge))
        assert live == find_cuts(reduct), (cut, reduct.size())

    monkeypatch.setattr(rewrite, "update_cuts", checked)
    for name, net in rewrite_nets(all_nets).items():
        _, trace = normalize(net, STRATEGIES[strategy])
        assert trace.status == "normal", name
    assert kinds == set(CUT_KINDS)


def test_permitted_matches_the_pairwise_reference(all_nets):
    rng = random.Random(7)
    lists = [find_cuts(net) for net in rewrite_nets(all_nets).values()]
    for _ in range(2000):
        lists.append([CutRecord(f"e{i}", rng.choice(CUT_KINDS), rng.randrange(4))
                      for i in range(rng.randrange(7))])
    for cuts in lists:
        for name, strategy in STRATEGIES.items():
            assert strategy.permitted(cuts) == ref_permitted(name, cuts), cuts


# --- reduction metrics --------------------------------------------------------------


def fire_log(monkeypatch):
    """Record each `rewrite.fire` call as (net size, cut)."""
    log = []

    def logged(net, cut):
        log.append((net.size(), cut))
        return fire(net, cut)

    monkeypatch.setattr(rewrite, "fire", logged)
    return log


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_reduction_metrics_match_the_recursive_reference(all_nets, monkeypatch,
                                                         strategy):
    log = fire_log(monkeypatch)
    nets = dict(all_nets)
    nets.update((f"church{k}", church(k)) for k in (2, 3, 4))
    for name, net in nets.items():
        if strategy != "triangle" and name == "church4":
            continue  # about 20 s under each; church 3 covers their branching
        got = outcome(reduction_metrics, net, STRATEGIES[strategy])
        calls = log[:]
        log.clear()
        assert got == outcome(ref_reduction_metrics, net, STRATEGIES[strategy]), name
        assert calls == log, name  # the same fires in the same order
        log.clear()


def test_reduction_metrics_budgets_run_out_where_they_did(monkeypatch):
    log = fire_log(monkeypatch)
    net = church(3)
    for steps, states in ((0, 10), (5, 10), (37, 10**5), (10**5, 1), (10**5, 9)):
        got = outcome(reduction_metrics, net, TRIANGLE, steps, states)
        calls = log[:]
        log.clear()
        want = outcome(ref_reduction_metrics, net, TRIANGLE, steps, states)
        assert got == want and calls == log, (steps, states)
        assert got[0] == "budget"
        log.clear()


RECURSION_SCRIPT = """
import sys
from pnlab import lam
from pnlab.rewrite import TRIANGLE, reduction_metrics
sig = {"g": lam.parse_type("t -> t"), "z": lam.parse_type("t")}
net = lam.from_lambda(lam.parse_lambda(
    "(\\\\f:t -> t. \\\\x:t. f (f (f (f (f x))))) g z"), sig)
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 40)
print(reduction_metrics(net, TRIANGLE))
"""


def test_reduction_metrics_need_no_frame_per_state():
    """A longest sequence of 42 steps, under a recursion limit 40 frames
    above the caller's depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", RECURSION_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "(42, 83)"


# --- canonical keys -----------------------------------------------------------------


def test_canonical_key_matches_the_reference(all_nets, monkeypatch):
    nets = list(all_nets.values())
    for net in all_nets.values():
        nets.extend(fire(net, cut)[0] for cut in find_cuts(net))
    for net in nets:
        assert canonical_key(net) == ref_canonical_key(net)

    seen = []
    texts = {}

    def checked(net):
        key = canonical_key(net)
        assert key == ref_canonical_key(net, texts)
        seen.append(key)
        return key

    monkeypatch.setattr(rewrite, "canonical_key", checked)
    for k in (2, 3, 4):
        reduction_metrics(church(k), TRIANGLE)
    assert len(set(seen)) > 200
    seen.clear()
    assert reduction_metrics(composed(2, 2), TRIANGLE) == (90, 109)
    assert len(seen) > 14000 and len(set(seen)) > 3800


def test_canonical_key_of_a_deep_formula():
    deep = "!" * 3000 + "a"
    net = N.parse_net("pnet 1\nvertex v1 prem\nvertex v2 concl\n"
                      f"edge e1 v1 edge v2 edge {deep}\nend\n")
    text = "('bang', " * 3000 + "('atom', 'a')" + ")" * 3000
    assert canonical_key(net) == (f"MELL|0(concl/0;edge:<1.edge:{text});"
                                  f"1(prem/0;edge:>0.edge:{text})|")


# --- edited sets --------------------------------------------------------------------


def test_edited_sets_act_as_their_frozensets():
    rng = random.Random(3)
    universe = [f"v{i}" for i in range(30)]
    for _ in range(300):
        plain = frozenset(rng.sample(universe, rng.randrange(12)))
        cur = plain
        chain = []
        for _ in range(rng.randrange(1, 8)):
            added = set(rng.sample(universe, rng.randrange(4)))
            removed = set(rng.sample(universe, rng.randrange(4))) - added
            plain = (plain - removed) | added
            cur = EditedSet(cur, added, removed)
            chain.append((cur, plain))
        other = frozenset(rng.sample(universe, rng.randrange(12)))
        for edited, want in reversed(chain):  # newest first: bases stay lazy
            assert edited == want and want == edited and not edited != want
            assert hash(edited) == hash(want) and eval(repr(edited)) == want
            assert len(edited) == len(want) and set(edited) == set(want)
            assert all(x in edited for x in want) and "nosuch" not in edited
            for a, b in ((edited, other), (edited, set(other)),
                         (set(other), edited), (other, edited)):
                ea = set(a) if type(a) is EditedSet else a
                eb = set(b) if type(b) is EditedSet else b
                assert a & b == ea & eb and a | b == ea | eb
                assert a - b == ea - eb and a ^ b == ea ^ eb
                assert (a <= b, a < b, a >= b, a > b) == \
                    (ea <= eb, ea < eb, ea >= eb, ea > eb)
            grown = set(other)
            grown |= edited
            assert type(grown) is set and grown == other | want


def test_edited_sets_compute_their_value_once_edits_pile_up():
    base = frozenset({"v1", "v2", "v3"})
    first = EditedSet(base, {"v4"}, set())
    second = EditedSet(first, set(), {"v1"})
    assert first._value is None and second._value is None  # 2 edits, 3 members
    third = EditedSet(second, {"v5", "v6"}, set())  # 4 edits: computed now
    assert third._value == {"v2", "v3", "v4", "v5", "v6"}
    assert third._base is None  # the chain below it can be freed
    assert second == {"v2", "v3", "v4"} and first == {"v1", "v2", "v3", "v4"}
