"""Local rewriting agrees with the whole-net passes it replaced.

`normalize` and `reduction_metrics` keep each net's live cuts in a map that
`update_cuts` brings up to date from the edges a step touched; along every
step that map must equal `find_cuts` of the reduct.  The references below
are the functions as they were before: `Strategy.permitted` with its
pairwise scan, the recursive `reduction_metrics` that ran `find_cuts` on
every state and fired every permitted cut of it, and `canonical_key` as a
queue walk through `edge_at` that prints the recursive `alpha_canon` tuple
of each edge's formula.  `reduction_metrics` fires one order of two
independent cuts; two such cuts must commute, and the recursive search
is the oracle for its maxima and for the cuts it may fire.  A
reduct of a keyed net keys from the rows its parent hands on, less those
its step made stale; its key must equal the reference and the key of the
same net read afresh.  A box record a step edits keeps the record it
replaces and the step's edit until its contents are read, and must act as
the plain record it stands for.  A `Walk` fires every step after its first
in place, on the reduct it made; each reduct must be the one a pure `fire`
makes, and the walk's input must come out as it went in.
"""

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pnlab import corpus, machine
from pnlab import net as N
from pnlab import rewrite
from pnlab.families import gen_family
from pnlab.formulas import Atom, Lolli, Tensor
from pnlab.net import Box
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
    pick_cut,
    reduction_metrics,
    relevelled,
    update_cuts,
)

from pnlab.terms import Ax, Contr, Cut, Derelict, Promote, RLolli, RTensor, elaborate

from test_formulas import ref_alpha_canon
from test_golden import _applied, _church, composed
from test_net_index import family_nets, table_snapshot

A, B = Atom("a"), Atom("b")


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

    def checked(cuts, reduct, moved):
        update(cuts, reduct, moved)
        live = sorted(cuts.values(), key=lambda c: N._numkey(c.edge))
        assert live == find_cuts(reduct), reduct.size()
        assert all(type(b.contents) is frozenset for b in reduct.boxes.values())

    monkeypatch.setattr(rewrite, "update_cuts", checked)
    kinds = set()
    for name, net in rewrite_nets(all_nets).items():
        _, trace = normalize(net, STRATEGIES[strategy])
        assert trace.status == "normal", name
        kinds.update(s.kind for s in trace.steps)
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


def box_around_cut():
    """An X-cut on a box whose contents hold a D-cut two edges inside it,
    out of reach of a halo that left the box's contents out."""
    closed = Cut(Promote(RLolli(Ax(A), 1)), Derelict(Ax(Lolli(A, A)), 1), 1)
    inside = RTensor(closed, Derelict(Ax(B), 1))
    pair = Tensor(Lolli(A, A), B)
    twice = Contr(RTensor(Derelict(Ax(pair), 1), Derelict(Ax(pair), 1)), 1, 2)
    return elaborate(Cut(Promote(inside), twice, 1))


def oracle_nets(all_nets, strategy):
    """The corpus, church 0-6 and composed (j,k) up to (1,3) and (2,2) under
    triangle; the corpus, church 0-3 and composed (1,1) and (1,2) under
    double and arrow, where the oracle's search grows fastest; and under
    each, two nets with a cut inside a box that another cut copies or
    merges."""
    nets = dict(all_nets)
    nets["copy-around-cut"] = box_around_cut()
    der = Cut(Promote(Ax(A)), Derelict(Ax(A), 1), 1)
    nets["merge-around-cut"] = elaborate(Cut(Promote(der), Promote(Ax(A)), 1))
    if strategy == "triangle":
        churches, pairs = range(7), ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
    else:
        churches, pairs = range(4), ((1, 1), (1, 2))
    nets.update((f"church{k}", church(k)) for k in churches)
    nets.update((f"composed{j},{k}", composed(j, k)) for j, k in pairs)
    return nets


def fire_log(monkeypatch):
    """Record each `rewrite.fire` call as (the source's key, the cut's name:
    its source vertex's number in that key, and its port)."""
    log = []

    def logged(net, cut):
        numbering = {}
        key = canonical_key(net, numbering)
        vid, port = net.edges[cut.edge].src
        log.append((key, (numbering[vid], port)))
        return fire(net, cut)

    monkeypatch.setattr(rewrite, "fire", logged)
    return log


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_reduction_metrics_match_the_recursive_reference(all_nets, monkeypatch,
                                                         strategy):
    """The maxima of the search that fires every permitted cut of every
    state; each cut the search fires, the oracle fires from the same key,
    and a cut fires twice from one key only as a counted refire."""
    log = fire_log(monkeypatch)
    refired = 0
    for name, net in oracle_nets(all_nets, strategy).items():
        stats = {}
        got = outcome(reduction_metrics, net, STRATEGIES[strategy], stats=stats)
        fired = log[:]
        log.clear()
        assert got == outcome(ref_reduction_metrics, net, STRATEGIES[strategy]), name
        assert set(fired) <= set(log), name
        assert stats["fired"] == len(fired), name
        assert len(fired) - len(set(fired)) == stats["refired"], name
        refired += stats["refired"]
        log.clear()
    assert refired > 0


def test_reduction_metrics_budgets_run_out_at_their_counts(monkeypatch):
    """A step budget one below the fires of a search, or a state budget one
    below its distinct keys, runs out; budgets equal to them do not."""
    net = church(3)
    stats = {}
    want = reduction_metrics(net, TRIANGLE, stats=stats)
    fires, states = stats["fired"], stats["states"]
    assert reduction_metrics(net, TRIANGLE, fires) == want
    for steps in (0, 5, fires - 1):
        partial = {}
        with pytest.raises(MetricsBudget, match="step budget exhausted"):
            reduction_metrics(net, TRIANGLE, steps, stats=partial)
        assert partial["fired"] == steps
    monkeypatch.setattr(rewrite, "STATE_BUDGET", states)
    assert reduction_metrics(net, TRIANGLE) == want
    for budget in (1, 9, states - 1):
        monkeypatch.setattr(rewrite, "STATE_BUDGET", budget)
        with pytest.raises(MetricsBudget, match="state budget exhausted"):
            reduction_metrics(net, TRIANGLE)


def test_sleep_sets_fire_fewer_cuts():
    """The maxima stay, with fewer fires than the 36, 105, 277 and 14,462 of
    the search that fired every permitted cut of every state, and the
    counts repeat exactly."""
    for net, want, most in ((church(2), (12, 32), 35), (church(3), (20, 47), 104),
                            (church(4), (30, 64), 150),
                            (composed(2, 2), (90, 109), 14462 // 2)):
        stats = {}
        assert reduction_metrics(net, TRIANGLE, stats=stats) == want
        assert stats["fired"] <= most, stats
    first, again = {}, {}
    reduction_metrics(church(4), TRIANGLE, stats=first)
    reduction_metrics(church(4), TRIANGLE, stats=again)
    assert first == again


def search_states(net, strategy, monkeypatch, stride=1):
    """Every `stride`-th distinct state `reduction_metrics` enters from net."""
    keys = set()
    kept = []

    def kept_key(cur, numbering=None):
        key = canonical_key(cur, numbering)
        if key not in keys:
            keys.add(key)
            if len(keys) % stride == 0:
                kept.append(cur)
        return key

    with monkeypatch.context() as m:
        m.setattr(rewrite, "canonical_key", kept_key)
        reduction_metrics(net, strategy)
    return kept


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_independent_cuts_commute(all_nets, monkeypatch, strategy):
    """On the states the search enters (every tenth on composed (2,2)):
    two permitted cuts, neither of whose footprint meets the other's halo,
    fire in either order to one key, and each is still a permitted cut of
    the same kind and level once the other has fired."""
    perm = STRATEGIES[strategy].permitted
    pairs = 0
    for name, net in oracle_nets(all_nets, strategy).items():
        stride = 10 if name == "composed2,2" else 1
        for cur in search_states(net, STRATEGIES[strategy], monkeypatch, stride):
            permitted = perm(find_cuts(cur))
            fps = [rewrite.footprint(cur, c) for c in permitted]
            halos = [rewrite.halo(cur, fp) for fp in fps]
            for i, a in enumerate(permitted):
                for j in range(i + 1, len(permitted)):
                    independent = fps[j].isdisjoint(halos[i])
                    assert independent == fps[i].isdisjoint(halos[j]), name
                    if not independent:
                        continue
                    b = permitted[j]
                    ra, rb = fire(cur, a)[0], fire(cur, b)[0]
                    assert b in perm(find_cuts(ra)) and a in perm(find_cuts(rb)), \
                        (name, a, b)
                    assert canonical_key(fire(ra, b)[0]) == \
                        canonical_key(fire(rb, a)[0]), (name, a, b)
                    pairs += 1
    assert pairs > 1000, pairs


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

    def checked(net, numbering=None):
        key = canonical_key(net, numbering)
        assert key == ref_canonical_key(net, texts) == canonical_key(net)
        assert numbering is None or set(numbering) == set(net.vertices)
        assert all(type(b.contents) is frozenset for b in net.boxes.values())
        seen.append(key)
        return key

    monkeypatch.setattr(rewrite, "canonical_key", checked)
    for k in (2, 3, 4):
        reduction_metrics(church(k), TRIANGLE)
    assert len(set(seen)) > 200
    seen.clear()
    assert reduction_metrics(composed(2, 2), TRIANGLE) == (90, 109)
    assert len(set(seen)) > 3800


# a box whose content has an edge to the conclusion, past its doors: its
# W-step leaves the conclusion with an empty port and no new edge there
LEAKY_BOX = """\
pnet 1
vertex v1 rbang
vertex v2 weak
vertex v3 prem
vertex v4 ltensor
vertex v5 concl
edge e1 v3 edge v4 pair a * b
edge e2 v4 left v1 inner a
edge e3 v4 right v5 edge b
edge e4 v1 principal v2 edge !a
box v1 - v3,v4
end
"""


def inheriting_nets(all_nets):
    nets = dict(all_nets)  # the corpus, with the copy, jump and forall nets
    nets.update((f"church{k}", church(k)) for k in (2, 3, 4))
    nets.update((f"dr-ladder{n}", gen_family("dr-ladder", n)) for n in range(1, 7))
    nets["copy-example"] = gen_family("copy-example")
    nets["jump-example"] = gen_family("jump-example")
    nets["ell"] = corpus.ell_fixture()
    nets["sll"] = corpus.sll_fixture()
    nets["lll"] = corpus.lll_fixture()
    nets["lll-sec"] = corpus.lll_sec_fixture()
    nets["leaky-box"] = N.parse_net(LEAKY_BOX)
    return nets


def test_reducts_key_from_the_rows_they_inherit(all_nets):
    """Each net is keyed before its cuts fire, for three generations, so
    every reduct keys from the rows of its parent; each key must equal the
    reference and the key of the same net read afresh, which inherits
    nothing, and no row may outlive its vertex."""
    texts = {}
    kinds = set()
    for name, net in inheriting_nets(all_nets).items():
        generation = [net]
        for _ in range(3):
            children = []
            for cur in generation:
                canonical_key(cur)  # the parent's rows, for every reduct below
                for cut in find_cuts(cur):
                    reduct, _ = fire(cur, cut)
                    kinds.add(cut.kind)
                    rows = reduct._index.key_rows
                    assert rows is not None and set(rows) <= set(reduct.vertices)
                    key = canonical_key(reduct)
                    assert key == ref_canonical_key(reduct, texts), (name, cut)
                    assert key == canonical_key(N.parse_net(N.print_net(reduct)))
                    assert set(rows) == set(reduct.vertices)
                    assert all(type(b.contents) is frozenset
                               for b in reduct.boxes.values())
                    children.append(reduct)
            generation = children
    assert kinds == set(CUT_KINDS)


def top_numbered(net, last):
    """The net with its vertices renamed so that those in `last` have the
    largest ids, the others keeping their order."""
    ids = sorted(net.vertices, key=lambda vid: (vid in last, N._numkey(vid)))
    names = {vid: f"v{i}" for i, vid in enumerate(ids, 1)}
    text = re.sub(r"\bv\d+\b", lambda m: names[m[0]], N.print_net(net))
    return N.parse_net(text)


def test_a_fresh_id_may_name_a_dropped_vertex(all_nets):
    """A fresh id is one more than the largest live one, so once a step
    drops the vertices with the largest ids the next step that adds
    vertices names them again; their rows must not come back."""
    texts = {}
    reused = set()
    for name, net in inheriting_nets(all_nets).items():
        for cut in find_cuts(net):
            dropped = set(net.vertices) - set(fire(net, cut)[0].vertices)
            if not dropped:
                continue
            cur = top_numbered(net, dropped)  # the edge ids stay
            canonical_key(cur)
            mid = fire(cur, cut)[0]
            canonical_key(mid)
            for nxt in find_cuts(mid):
                reduct = fire(mid, nxt)[0]
                rows = reduct._index.key_rows
                assert set(rows) <= set(reduct.vertices)
                again = (set(reduct.vertices) - set(mid.vertices)) & set(cur.vertices)
                if again:
                    reused.add((name, cut.kind, nxt.kind))
                    assert not again & set(rows)
                key = canonical_key(reduct)
                assert key == ref_canonical_key(reduct, texts), (name, cut, nxt)
                assert key == canonical_key(N.parse_net(N.print_net(reduct)))
    assert len(reused) >= 3, reused


def test_each_edit_of_a_step_drops_the_rows_it_changes():
    """One surgeon edit at a time on a keyed net: the vertex it adds, drops
    or relabels, and each end of an edge it puts, re-ends or deletes, before
    and after, lose their rows; every other row is handed on."""
    net = church(2)
    canonical_key(net)
    parent_rows = net._index.key_rows
    door = next(v.id for v in net.vertices.values() if v.label == N.LBANG)
    edge = net.edges[next(iter(net.edges))]
    other = next(vid for vid in net.vertices if vid not in (*edge.src, *edge.tgt))
    fresh_end = (f"v{len(net.vertices) + 1}", "edge")

    def relabel(s):
        s.relabel(door, N.DER)
        return {door}

    def add(s):
        vid = s.fresh_v()
        s.add_vertex(N.Vertex(vid, N.WEAK), None)
        return {vid}

    def drop(s):
        s.drop_vertex(other)
        return {other}

    def delete(s):
        s.del_edge(edge.id)
        return {edge.src[0], edge.tgt[0]}

    def reend(s):
        s.reend(edge.id, tgt=(other, "x"))
        return {edge.src[0], edge.tgt[0], other}

    def put(s):
        s.put_edge(N.Edge("e999", (other, "x"), fresh_end, edge.formula))
        return {other, fresh_end[0]}

    for edit in (relabel, add, drop, delete, reend, put):
        s = rewrite._Surgeon(net)
        stale = edit(s)
        rows = s.freeze()._index.key_rows
        assert set(rows) == set(parent_rows) - stale, edit.__name__


def test_reducts_of_an_unkeyed_net_inherit_no_rows(all_nets):
    for net in inheriting_nets(all_nets).values():
        fresh = N.parse_net(N.print_net(net))
        for cut in find_cuts(fresh):
            assert fire(fresh, cut)[0]._index.key_rows is None
    net = church(3)
    for _, reduct, _ in rewrite.Walk(net, TRIANGLE):
        assert reduct._index.key_rows is None


def test_canonical_key_of_a_deep_formula():
    deep = "!" * 3000 + "a"
    net = N.parse_net("pnet 1\nvertex v1 prem\nvertex v2 concl\n"
                      f"edge e1 v1 edge v2 edge {deep}\nend\n")
    text = "('bang', " * 3000 + "('atom', 'a')" + ")" * 3000
    assert canonical_key(net) == (f"MELL|0(concl/0;edge:<1.edge:{text});"
                                  f"1(prem/0;edge:>0.edge:{text})|")


# --- edited box records ----------------------------------------------------------


def test_edited_box_records_act_as_plain_ones():
    rng = random.Random(3)
    universe = [f"v{i}" for i in range(30)]
    for _ in range(300):
        contents = frozenset(rng.sample(universe, rng.randrange(12)))
        cur = Box("v99", (), contents)
        chain = []
        for _ in range(rng.randrange(1, 8)):
            added = set(rng.sample(universe, rng.randrange(4)))
            removed = set(rng.sample(universe, rng.randrange(4))) - added
            doors = tuple(rng.sample(universe, rng.randrange(3)))
            contents = (contents - removed) | added
            cur = cur.edited(doors, added, removed)
            chain.append((cur, Box("v99", doors, contents)))
        for edited, plain in reversed(chain):  # newest first: bases stay lazy
            assert edited == plain and plain == edited and not edited != plain
            assert hash(edited) == hash(plain) and eval(repr(edited)) == plain
            assert type(edited.contents) is frozenset
            assert edited.contents == plain.contents
            assert edited != Box("v98", plain.doors, plain.contents)
            assert edited != Box("v99", plain.doors + ("v0",), plain.contents)
            assert edited != Box("v99", plain.doors, plain.contents | {"v30"})
            assert edited != (edited.principal, edited.doors, edited.contents)
    assert repr(Box("v1", ("v2",), frozenset({"v3"}))) == \
        "Box(principal='v1', doors=('v2',), contents=frozenset({'v3'}))"
    assert repr(Box("v1", (), frozenset())) == \
        "Box(principal='v1', doors=(), contents=frozenset())"


def test_edited_box_records_compute_their_contents_once_edits_pile_up():
    base = Box("v9", (), frozenset({"v1", "v2", "v3"}))
    first = base.edited(("v8",), {"v4"}, set())
    second = first.edited(("v8",), set(), {"v1"})
    assert first._contents is None and second._contents is None  # 2 edits, 3 members
    third = second.edited(("v8",), {"v5", "v6"}, set())  # 4 edits: computed now
    assert third._contents == {"v2", "v3", "v4", "v5", "v6"}
    assert third._edit is None  # the chain below it can be freed
    assert second.contents == {"v2", "v3", "v4"}
    assert first.contents == {"v1", "v2", "v3", "v4"}


def test_few_edited_box_records_of_a_walk_compute_their_contents(monkeypatch):
    """A triangle walk of church 20 edits the boxes around each redex;
    only the records a step reads, or whose edits pile up, compute their
    contents."""
    made, computed = [], []
    edited, contents = Box.edited, Box.contents.fget

    def counted_edited(self, doors, added, removed):
        made.append(edited(self, doors, added, removed))
        return made[-1]

    def counted_contents(self):
        if self._contents is None:  # only an edited record waits
            computed.append(self)
        return contents(self)

    monkeypatch.setattr(Box, "edited", counted_edited)
    monkeypatch.setattr(Box, "contents", property(counted_contents))
    _, trace = normalize(church(20), TRIANGLE)
    assert trace.status == "normal"
    assert len(made) > 3000
    assert len(computed) <= 0.02 * len(made), (len(computed), len(made))


# --- walks that fire in place ------------------------------------------------------


def keyed_and_run(net):
    """Key the net and compile one machine entry, so that its reduct is
    handed key rows and a machine-stale set."""
    canonical_key(net)
    machine.table_entry(net, next(iter(net.edges)), "+")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_walk_leaves_its_input_unchanged(all_nets, strategy):
    for name, net in rewrite_nets(all_nets).items():
        keyed_and_run(net)
        before = table_snapshot(net)
        rows = dict(net._index.key_rows)
        _, trace = normalize(net, STRATEGIES[strategy])
        assert trace.status == "normal", name
        assert table_snapshot(net) == before, name
        assert net._index.key_rows == rows, name


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_walk_in_place_makes_the_reducts_of_pure_steps(all_nets, strategy):
    """Before each step the walk takes, the same cut fires pure on the
    same reduct; the reduct the walk makes in place, on the previous
    reduct's own dicts, must have the same touched edges with their edges
    before the step, live cuts, handed key rows, machine-stale set and
    canonical key."""
    steps = 0
    for name, net in rewrite_nets(all_nets).items():
        walk = rewrite.Walk(net, STRATEGIES[strategy])
        want = prev = None
        for i, (cut, reduct, _) in enumerate(walk):
            if want is None:
                assert reduct.vertices is not net.vertices, name
            else:
                want_cut, pure, cuts, rows = want
                where = (name, i, cut)
                assert cut == want_cut, where
                assert reduct.vertices is prev.vertices, where
                assert reduct.edges is prev.edges, where
                assert reduct._index.touched == pure._index.touched, where
                assert walk.cuts == cuts, where
                assert reduct._index.key_rows == rows, where
                assert reduct._index.inherited[2] == pure._index.inherited[2], where
                assert canonical_key(reduct) == canonical_key(pure), where
                steps += 1
            want = None
            if walk.cuts:
                keyed_and_run(reduct)
                nxt = pick_cut(STRATEGIES[strategy].permitted(list(walk.cuts.values())))
                pure, _ = fire(reduct, nxt)
                cuts = dict(walk.cuts)
                update_cuts(cuts, pure, relevelled(reduct, nxt))
                want = (nxt, pure, cuts, dict(pure._index.key_rows))
            prev = reduct
        assert want is None and not walk.cuts, name
    assert steps > 700


def test_a_forall_step_touches_the_edges_whose_formulas_change(named_nets):
    """The forall fixture's step deletes its cut e3 and splices e2 with e6
    into e2; the witness changes the formulas of e1 and e2 alone, so e4
    and e5 are not touched and their ends keep their key rows."""
    net = named_nets["forall"]
    canonical_key(net)
    cut, = [c for c in find_cuts(net) if c.kind == "forall"]
    reduct, _ = fire(net, cut)
    assert set(reduct._index.touched) == {"e1", "e2", "e3", "e6"}
    assert set(reduct._index.key_rows) == {"v5", "v6"}
    assert canonical_key(reduct) == ref_canonical_key(reduct)
