"""Cut detection, the eight cut-elimination rules, and normalization.

Rule kinds use the names -o, *, forall, !, X, D, N, W.  Strategies:

  * arrow:    unrestricted reduction
  * double:   a W-cut fires only when every cut in the net is a W-cut
  * triangle: additionally level by level; a cut at level n fires only when
    all cuts at smaller levels are W-cuts, and a !-cut at level n only when
    every level-n cut is a W-cut or a !-cut

Firing is pure: net in, net out.  Deterministic tie-break picks the lowest
level, then the lowest edge id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import net as N
from .formulas import Formula, Forall, match_instance, substitute, alpha_canon
from .net import Box, Cut, Edge, ProofNet, Vertex

CUT_KINDS = ("-o", "*", "forall", "!", "X", "D", "N", "W")
EXPONENTIAL_KINDS = ("!", "X", "D", "N", "W")
# The kinds whose level-by-level steps each consume one unit of weight.  A
# box merge leaves the weight unchanged: the merged box-edge contributes
# sum(R - 1), which the merge conditions pin to zero.
WEIGHT_KINDS = ("X", "N")
BOX_KINDS = ("!", "X", "N")


class RewriteError(ValueError):
    pass


_REDEX = {
    (N.RLOLLI, "concl", N.LLOLLI, "fun"): "-o",
    (N.RTENSOR, "concl", N.LTENSOR, "pair"): "*",
    (N.RFORALL, "concl", N.LFORALL, "fa"): "forall",
    (N.RBANG, "principal", N.LBANG, "outer"): "!",
    (N.RBANG, "principal", N.CONTR, "merged"): "X",
    (N.RBANG, "principal", N.DER, "bang"): "D",
    (N.RBANG, "principal", N.DIG, "bang"): "N",
    (N.RBANG, "principal", N.WEAK, "edge"): "W",
}


def classify_edge(net: ProofNet, eid: str):
    e = net.edges[eid]
    sv = net.vertices[e.src[0]]
    tv = net.vertices[e.tgt[0]]
    return _REDEX.get((sv.label, e.src[1], tv.label, e.tgt[1]))


def find_cuts(net: ProofNet) -> list[Cut]:
    out = []
    for e in net.edges_sorted():
        kind = classify_edge(net, e.id)
        if kind:
            out.append(Cut(e.id, kind, net.depth(e.id)))
    return out


# --- strategies -----------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    kind: str  # 'arrow' | 'double' | 'triangle'

    def permitted(self, cuts: list[Cut]) -> list[Cut]:
        if self.kind == "arrow":
            return list(cuts)
        all_w = all(c.kind == "W" for c in cuts)
        out = []
        for c in cuts:
            if c.kind == "W" and not all_w:
                continue
            if self.kind == "triangle":
                if any(d.level < c.level and d.kind != "W" for d in cuts):
                    continue
                if c.kind == "!" and any(
                        d.level == c.level and d.kind not in ("W", "!")
                        for d in cuts):
                    continue
            out.append(c)
        return out


ARROW = Strategy("arrow")
DOUBLE = Strategy("double")
TRIANGLE = Strategy("triangle")

STRATEGIES = {"arrow": ARROW, "double": DOUBLE, "triangle": TRIANGLE}


@dataclass
class TraceStep:
    index: int
    kind: str
    edge: str
    level: int
    size_after: int
    provenance: dict[str, tuple[str, str]] | None = None
    weight_after: int | None = None
    t_after: int | None = None


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    status: str = "normal"  # 'normal' | 'budget'

    def render(self) -> str:
        lines = []
        for s in self.steps:
            extra = ""
            if s.weight_after is not None:
                extra = f" W={s.weight_after} T={s.t_after}"
            lines.append(
                f"{s.index} {s.kind} {s.edge} level={s.level} size={s.size_after}{extra}")
        lines.append(f"status {self.status}")
        return "\n".join(lines) + "\n"


# --- mutable surgery ------------------------------------------------------


class _Surgeon:
    """Mutable copy of a net under one rewrite step.

    It keeps a port index in step with its edges, and hands it to the
    reduct together with the largest ids when they are still exact.
    """

    def __init__(self, net: ProofNet):
        self.system = net.system
        self.index = net._index  # of the source net, for its box lookups
        self.vertices = dict(net.vertices)
        self.edges = dict(net.edges)
        self.ports = dict(self.index.ports)
        self.boxes = {pid: (list(b.doors), set(b.contents))
                      for pid, b in net.boxes.items()}
        self.vn = self.index.max_vertex_id
        self.en = self.index.max_edge_id
        self.provenance: dict[str, tuple[str, str]] = {}

    def fresh_v(self) -> str:
        self.vn += 1
        return f"v{self.vn}"

    def fresh_e(self) -> str:
        self.en += 1
        return f"e{self.en}"

    def edge_at(self, vid: str, port: str) -> Edge:
        e = self.ports.get((vid, port))
        if e is None:
            raise RewriteError(f"no edge at {vid}.{port}")
        return e

    def put_edge(self, e: Edge):
        """Insert an edge, or replace the one with its id in place."""
        old = self.edges.get(e.id)
        if old is not None:
            self._unport(old)
        self.edges[e.id] = e
        self.ports[e.src] = e
        self.ports[e.tgt] = e

    def del_edge(self, eid: str):
        self._unport(self.edges.pop(eid))

    def _unport(self, e: Edge):
        for end in (e.src, e.tgt):
            if self.ports.get(end) is e:
                del self.ports[end]

    def reend(self, eid: str, src=None, tgt=None):
        e = self.edges[eid]
        self.put_edge(Edge(e.id, src or e.src, tgt or e.tgt, e.formula))

    def drop_vertex(self, vid: str):
        """Remove a vertex of the source net from the vertices and boxes."""
        del self.vertices[vid]
        for pid in self.index.enclosing.get(vid, ()):
            if pid in self.boxes:
                self.boxes[pid][1].discard(vid)
        for pid in self.index.inner_boxes.get(vid, ()):
            if pid in self.boxes:
                doors = self.boxes[pid][0]
                if vid in doors:
                    doors.remove(vid)

    def splice(self, pairs: list[tuple[tuple[str, str], tuple[str, str]]]):
        """Glue dangling edge ends pairwise and merge the resulting chains.

        Each pair names two vertex ports whose vertices are being removed;
        the edges incident there are joined into one edge running from the
        chain's surviving source to its surviving target.
        """
        # map: edge whose tgt end dangles -> edge whose src end dangles
        glue: dict[str, str] = {}
        involved: set[str] = set()
        for end_a, end_b in pairs:
            ea = self.edge_at(*end_a)
            eb = self.edge_at(*end_b)
            if ea.src == end_a and eb.tgt == end_b:
                src_dangler, tgt_dangler = ea, eb
            elif ea.tgt == end_a and eb.src == end_b:
                src_dangler, tgt_dangler = eb, ea
            else:
                raise RewriteError(f"splice ends {end_a}/{end_b} have equal orientation")
            glue[tgt_dangler.id] = src_dangler.id
            involved |= {ea.id, eb.id}
        sources = set(glue.values())
        done: set[str] = set()
        for start in sorted(involved, key=N._numkey):
            if start in sources or start in done or start not in glue:
                continue
            chain = [start]
            cur = start
            while cur in glue:
                cur = glue[cur]
                chain.append(cur)
            done.update(chain)
            keep = min(chain, key=N._numkey)
            first, last = self.edges[chain[0]], self.edges[chain[-1]]
            merged = Edge(keep, first.src, last.tgt, first.formula)
            for eid in chain:
                self.del_edge(eid)
            self.put_edge(merged)
        leftovers = involved - done
        if leftovers:
            raise RewriteError(f"splice produced a closed loop through {sorted(leftovers)}")

    def freeze(self) -> ProofNet:
        boxes = {pid: Box(pid, tuple(doors), frozenset(contents))
                 for pid, (doors, contents) in self.boxes.items()}
        net = ProofNet(self.vertices, self.edges, boxes, self.system)
        index = net._index
        index.ports = self.ports
        # every live id is at most the last one handed out, so that one is
        # the maximum exactly when it is still alive
        if f"v{self.vn}" in self.vertices:
            index.max_vertex_id = self.vn
        if f"e{self.en}" in self.edges:
            index.max_edge_id = self.en
        return net


# --- the eight rules ------------------------------------------------------


def fire(net: ProofNet, cut: Cut) -> tuple[ProofNet, dict[str, tuple[str, str]]]:
    """Apply one cut-elimination step; returns the reduct and, for X-steps,
    the provenance map from fresh identifiers to (original, side)."""
    e = net.edges.get(cut.edge)
    if e is None or classify_edge(net, cut.edge) != cut.kind:
        raise RewriteError(f"cut {cut} is not present in the net")
    s = _Surgeon(net)
    v, w = e.src[0], e.tgt[0]
    kind = cut.kind

    if kind == "-o":
        s.del_edge(e.id)
        s.drop_vertex(v)
        s.drop_vertex(w)
        s.splice([((v, "bound"), (w, "arg")), ((v, "body"), (w, "res"))])
    elif kind == "*":
        s.del_edge(e.id)
        s.drop_vertex(v)
        s.drop_vertex(w)
        s.splice([((v, "left"), (w, "left")), ((v, "right"), (w, "right"))])
    elif kind == "forall":
        fa = e.formula
        if not isinstance(fa, Forall):
            raise RewriteError("forall cut edge does not carry a quantified formula")
        inst = s.edge_at(w, "inst").formula
        m = match_instance(fa.body, inst, fa.binder)
        if m is None:
            raise RewriteError("forall instance does not match the quantified body")
        witness = m[1]
        s.del_edge(e.id)
        s.drop_vertex(v)
        s.drop_vertex(w)
        s.splice([((v, "prem"), (w, "inst"))])
        if witness is not None:
            for ed in list(s.edges.values()):
                s.put_edge(Edge(ed.id, ed.src, ed.tgt,
                                substitute(ed.formula, fa.binder, witness)))
    elif kind == "!":
        _fire_bang(s, net, v, w, e)
    elif kind == "D":
        _fire_der(s, net, v, w, e)
    elif kind == "W":
        _fire_weak(s, net, v, w, e)
    elif kind == "X":
        _fire_contr(s, net, v, w, e)
    elif kind == "N":
        _fire_dig(s, net, v, w, e)
    else:
        raise RewriteError(f"unknown cut kind {kind}")
    return s.freeze(), s.provenance


def _fire_bang(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    # box v merges into the box owning door w
    inner_box = net.boxes[v]
    host_pid = net.door_box(w)
    if host_pid is None:
        raise RewriteError(f"door {w} not attached to a box")
    at = net.boxes[host_pid].doors.index(w)
    s.del_edge(e.id)
    s.drop_vertex(v)
    s.drop_vertex(w)
    s.splice([((v, "inner"), (w, "inner"))])
    doors, contents = s.boxes[host_pid]
    del s.boxes[v]
    doors[at:at] = list(inner_box.doors)
    contents |= inner_box.contents
    # enclosing boxes already contained the merged material


def _fire_der(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    box = net.boxes[v]
    s.del_edge(e.id)
    s.drop_vertex(v)
    s.drop_vertex(w)
    s.splice([((v, "inner"), (w, "plain"))])
    del s.boxes[v]
    for d in box.doors:
        s.vertices[d] = Vertex(d, N.DER)
        outer = s.edge_at(d, "outer")
        s.reend(outer.id, tgt=(d, "bang"))
        inner = s.edge_at(d, "inner")
        s.reend(inner.id, src=(d, "plain"))


def _fire_weak(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    box = net.boxes[v]
    dead_vertices = {v, w} | set(box.contents)
    for eid, ed in list(s.edges.items()):
        if ed.src[0] in dead_vertices or ed.tgt[0] in dead_vertices:
            s.del_edge(eid)
    for vid in dead_vertices:
        s.drop_vertex(vid)
    for pid in list(s.boxes):
        if pid not in s.vertices:
            del s.boxes[pid]
    for d in box.doors:
        s.vertices[d] = Vertex(d, N.WEAK)
        outer = s.edge_at(d, "outer")
        s.reend(outer.id, tgt=(d, "edge"))


def _copyset(net: ProofNet, pid: str) -> tuple[set[str], set[str]]:
    """Vertices of the box (principal, doors, contents) and its internal edges."""
    b = net.boxes[pid]
    vs = {pid} | set(b.doors) | set(b.contents)
    ports = net._index.ports
    es = set()
    for vid in vs:
        for port in N.vertex_ports(net.vertices[vid]):
            e = ports.get((vid, port))
            if e is None or e.src[0] not in vs or e.tgt[0] not in vs:
                continue
            if e.src == (pid, "principal"):
                continue  # principal edge is outside the box
            es.add(e.id)
    return vs, es


def _fire_contr(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    box = net.boxes[v]
    vs, es = _copyset(net, v)
    copies = {}
    for side in ("l", "r"):
        vmap, emap = {}, {}
        for vid in sorted(vs, key=N._numkey):
            nv = s.fresh_v()
            old = s.vertices[vid]
            s.vertices[nv] = Vertex(nv, old.label, old.arity)
            vmap[vid] = nv
            s.provenance[nv] = (vid, side)
        for eid in sorted(es, key=N._numkey):
            ne = s.fresh_e()
            old = s.edges[eid]
            s.put_edge(Edge(ne, (vmap[old.src[0]], old.src[1]),
                            (vmap[old.tgt[0]], old.tgt[1]), old.formula))
            emap[eid] = ne
            s.provenance[ne] = (eid, side)
        # box records inside the copied region (including the box itself)
        for pid in list(net.boxes):
            if pid in vs:
                doors, contents = net.boxes[pid].doors, net.boxes[pid].contents
                s.boxes[vmap[pid]] = ([vmap[d] for d in doors],
                                      {vmap[c] for c in contents})
        copies[side] = vmap
    # rewire the contraction's split edges to the two fresh principal ports
    left = s.edge_at(w, "left")
    right = s.edge_at(w, "right")
    s.reend(left.id, src=(copies["l"][v], "principal"))
    s.reend(right.id, src=(copies["r"][v], "principal"))
    # each former premise feeds both copies through a fresh contraction
    new_contr = []
    for d in box.doors:
        outer = s.edge_at(d, "outer")
        x = s.fresh_v()
        s.vertices[x] = Vertex(x, N.CONTR)
        new_contr.append(x)
        s.reend(outer.id, tgt=(x, "merged"))
        for side, port in (("l", "left"), ("r", "right")):
            ne = s.fresh_e()
            s.put_edge(Edge(ne, (x, port), (copies[side][d], "outer"),
                            outer.formula))
    # enclosing boxes pick up the copies and the new contractions
    for pid in net._index.enclosing.get(v, ()):
        contents = s.boxes[pid][1]
        for side in ("l", "r"):
            contents.update(copies[side][x] for x in vs)
        contents.update(new_contr)
    # drop the originals and the cut
    s.del_edge(e.id)
    for eid in es:
        s.del_edge(eid)
    for vid in vs:
        s.drop_vertex(vid)
    s.drop_vertex(w)
    for pid in list(s.boxes):
        if pid not in s.vertices:
            del s.boxes[pid]


def _fire_dig(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    from .formulas import Bang

    box = net.boxes[v]
    r0 = s.fresh_v()
    s.vertices[r0] = Vertex(r0, N.RBANG)
    dbang = s.edge_at(w, "dbang")
    s.reend(e.id, tgt=(r0, "inner"))
    s.reend(dbang.id, src=(r0, "principal"))
    s.drop_vertex(w)
    new_doors = []
    new_digs = []
    for d in box.doors:
        outer = s.edge_at(d, "outer")
        nk = s.fresh_v()
        d0 = s.fresh_v()
        s.vertices[nk] = Vertex(nk, N.DIG)
        s.vertices[d0] = Vertex(d0, N.LBANG)
        new_digs.append(nk)
        new_doors.append(d0)
        s.reend(outer.id, tgt=(nk, "bang"))
        e1 = s.fresh_e()
        s.put_edge(Edge(e1, (nk, "dbang"), (d0, "outer"), Bang(outer.formula)))
        e2 = s.fresh_e()
        s.put_edge(Edge(e2, (d0, "inner"), (d, "outer"), outer.formula))
    s.boxes[r0] = (new_doors, {v} | set(box.doors) | set(box.contents))
    for pid in net._index.enclosing.get(v, ()):
        contents = s.boxes[pid][1]
        contents.add(r0)
        contents.update(new_doors)
        contents.update(new_digs)


# --- normalization --------------------------------------------------------


def pick_cut(cuts: list[Cut]) -> Cut:
    return min(cuts, key=lambda c: (c.level, N._numkey(c.edge)))


def normalize(net: ProofNet, strategy: Strategy = ARROW,
              budget: int = 10**5) -> tuple[ProofNet, ReductionTrace]:
    trace = ReductionTrace()
    cur = net
    for i in range(budget):
        cuts = find_cuts(cur)
        if not cuts:
            return cur, trace
        permitted = strategy.permitted(cuts)
        if not permitted:
            raise RewriteError("strategy permits no cut but cuts remain")
        cut = pick_cut(permitted)
        cur, prov = fire(cur, cut)
        trace.steps.append(TraceStep(i, cut.kind, cut.edge, cut.level,
                                     cur.size(), prov or None))
    trace.status = "budget"
    return cur, trace


# --- exhaustive reduction-graph metrics ------------------------------------


class MetricsBudget(RuntimeError):
    pass


def canonical_key(net: ProofNet) -> str:
    """Isomorphism-invariant key: breadth-first relabelling from the
    conclusion, then remaining components from their least roots."""
    order: dict[str, int] = {}
    chunks: list[str] = []

    def bfs(root: str):
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
                    f"{alpha_canon(e.formula)}")
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


def reduction_metrics(net: ProofNet, strategy: Strategy = ARROW,
                      step_budget: int = 10**5,
                      state_budget: int = 10**5) -> tuple[int, int]:
    """Exact maxima over all permitted reduction sequences:
    (longest step count, largest reachable reduct size)."""
    memo: dict[str, tuple[int, int]] = {}
    steps_used = [0]

    def explore(cur: ProofNet) -> tuple[int, int]:
        key = canonical_key(cur)
        if key in memo:
            return memo[key]
        if len(memo) >= state_budget:
            raise MetricsBudget("state budget exhausted")
        memo[key] = (0, cur.size())  # provisional; nets are strongly normalizing
        cuts = strategy.permitted(find_cuts(cur))
        best_steps, best_size = 0, cur.size()
        for cut in cuts:
            steps_used[0] += 1
            if steps_used[0] > step_budget:
                raise MetricsBudget("step budget exhausted")
            nxt, _ = fire(cur, cut)
            ns, nz = explore(nxt)
            best_steps = max(best_steps, 1 + ns)
            best_size = max(best_size, nz)
        memo[key] = (best_steps, best_size)
        return memo[key]

    return explore(net)
