"""Cut detection, the eight cut-elimination rules, and normalization.

Rule kinds use the names -o, *, forall, !, X, D, N, W.  Strategies:

  * arrow:    unrestricted reduction
  * double:   a W-cut fires only when every cut in the net is a W-cut
  * triangle: additionally level by level; a cut at level n fires only when
    all cuts at smaller levels are W-cuts, and a !-cut at level n only when
    every level-n cut is a W-cut or a !-cut

`fire` is pure, net in, net out, unless it is asked to fire in place.
Deterministic tie-break picks the lowest level, then the lowest edge id.
The cuts of -o, * and forall, and the ports their steps splice, are read
from the one declared table `net.CONNECTIVES`, which the token machine
reads too.

Rewriting is local (Lafont's interaction nets).  A step edits only the
entries of the net's dicts and index tables (port -> edge, vertex -> boxes
around it, principal or door -> its box, box ranks) that the redex and any
box it copies, opens or moves touch, and hands the tables to the reduct,
with the edges it put, re-ended or deleted.  A pure step first makes
shallow copies of the seven tables, O(|G|) in C; a step in place edits the
net's own and spends the net.  `reduction_metrics` branches, so it fires
pure steps.  `Walk`, which `normalize` and the suite's Theorem 2 and
monotonicity checks step through, does not: its first step is pure, so
its input is never edited, and every later one fires in place on the
reduct the walk made.  A box a step edits gets a new record from
`Box.edited`, which keeps the old record and the step's edit until its
contents are read, so the boxes around a redex are not copied.  A step
makes one set of stale vertices: those it added, dropped or relabelled,
and the ends of the edges it touched, before and after it.  A net that
has been keyed hands on its key rows (vertex -> what `canonical_key`
writes for it) less those of the stale vertices, so a reduct is keyed
from the rows its step changed.  A net that has run the token machine
hands on its compiled entries and chains, which the reduct takes on first
use unless they read a stale vertex where a label or a port's edge
changed.  A net with none of these hands on nothing.  `Walk` and
`reduction_metrics` run `find_cuts` once, on their input; after each step
`update_cuts` reclassifies the touched edges and re-reads the level of the
cuts inside a box that a D- or N-step moved.

`reduction_metrics` searches the whole reduction graph, keying each
reduct, but fires only one order of two permitted cuts that commute: two
cuts whose steps touch disjoint parts of the net, one edge apart at
least (`footprint`, `halo`), reach one reduct in either order, and each
stays permitted after the other.  It skips a cut asleep at a reduct
(sleep sets), and a cut already fired from a reduct with the same key,
unless the reduct it made then slept a cut that it would not sleep now.
`docs/DECISIONS.md` ("Independent cuts" and "Sleep sets and the memo")
derives both rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import net as N
from .formulas import Forall, match_instance, substitute
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


# (source label, port, target label, port) of a cut edge -> its kind; a
# connective's cut runs from its right vertex's principal port to its left's
_REDEX = {
    **{(right[0], right[1], left[0], left[1]): kind
       for kind, (right, left) in N.CONNECTIVES.items()},
    (N.RBANG, "principal", N.LBANG, "outer"): "!",
    (N.RBANG, "principal", N.CONTR, "merged"): "X",
    (N.RBANG, "principal", N.DER, "bang"): "D",
    (N.RBANG, "principal", N.DIG, "bang"): "N",
    (N.RBANG, "principal", N.WEAK, "edge"): "W",
}

# kind -> the auxiliary ports its step splices, right with left, in pairs
# sharing a stack symbol
_SPLICED = {kind: [(right[2][sym], left[2][sym]) for sym in right[2]]
            for kind, (right, left) in N.CONNECTIVES.items()}


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
        active = [c for c in cuts if c.kind != "W"]
        if not active:
            return list(cuts)  # W-cuts fire once nothing else is left
        if self.kind == "double":
            return active
        lowest = min(c.level for c in active)
        # levels where a !-cut must wait for the other kinds
        busy = {c.level for c in active if c.kind != "!"}
        return [c for c in active if c.level == lowest
                and not (c.kind == "!" and c.level in busy)]


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


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    status: str = "normal"  # 'normal' | 'budget'

    def render(self) -> str:
        lines = [f"{s.index} {s.kind} {s.edge} level={s.level} size={s.size_after}"
                 for s in self.steps]
        lines.append(f"status {self.status}")
        return "\n".join(lines) + "\n"


# --- mutable surgery ------------------------------------------------------


class _Surgeon:
    """One rewrite step on a net's dicts and index tables.

    It keeps the port index, the box tables (`enclosing`, `inner_boxes`)
    and the box ranks in step with its edges and boxes, and hands them to
    the reduct, together with the largest ids when they are still exact and
    the edges it put, re-ended or deleted, and what the source net built of
    its key rows and machine tables (see `freeze`).  A pure step works on
    shallow copies of the seven tables (vertices, edges, boxes, ports,
    enclosing, inner_boxes, box ranks); a step in place edits the net's
    own, so the net must not be read once its reduct is made.  Either way a
    table list is replaced, never changed in place, since the lists are
    shared, and a box record is replaced only when the step edits it.
    Every write to the vertices goes through `add_vertex`, `drop_vertex` or
    `relabel`, which note the vertex as changed, and every edge that comes
    to a port goes through `put_edge`.  `touched` maps each edge id that
    `put_edge` or `del_edge` wrote to its edge before the step (None for a
    fresh one), logged at its first write, before the change.
    """

    def __init__(self, net: ProofNet, in_place: bool = False):
        index = net._index
        tables = (net.vertices, net.edges, index.ports, net.boxes,
                  index.enclosing, index.inner_boxes, index.box_rank)
        if not in_place:
            # dict.copy clones the hash table where dict() re-inserts each key
            tables = [t.copy() for t in tables]
        (self.vertices, self.edges, self.ports, self.boxes, self.enclosing,
         self.inner_boxes, self.rank) = tables
        self.in_place = in_place
        self.system = net.system
        self.edited: dict[str, tuple[list[str], set[str], set[str]]] = {}
        self.touched: dict[str, Edge | None] = {}
        self.source = index  # for the key rows and tables the reduct inherits
        self.changed: set[str] = set()  # vertices added, dropped or relabelled
        self.vn = index.max_vertex_id
        self.en = index.max_edge_id
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
        self.touched.setdefault(e.id, old)
        self.edges[e.id] = e
        self.ports[e.src] = e
        self.ports[e.tgt] = e

    def del_edge(self, eid: str):
        old = self.edges.pop(eid)
        self._unport(old)
        self.touched.setdefault(eid, old)

    def _unport(self, e: Edge):
        for end in (e.src, e.tgt):
            if self.ports.get(end) is e:
                del self.ports[end]

    def reend(self, eid: str, src=None, tgt=None):
        e = self.edges[eid]
        self.put_edge(Edge(e.id, src or e.src, tgt or e.tgt, e.formula))

    # --- boxes and their tables ---

    def _edit(self, pid: str) -> tuple[list[str], set[str], set[str]]:
        """A box's doors, copied, and its contents' added and removed
        members, kept from its first edit in this step until `freeze`."""
        edit = self.edited.get(pid)
        if edit is None:
            edit = self.edited[pid] = (list(self.boxes[pid].doors), set(), set())
        return edit

    def add_contents(self, pid: str, ids):
        _, added, removed = self._edit(pid)
        added.update(ids)
        removed.difference_update(ids)

    def remove_content(self, pid: str, vid: str):
        _, added, removed = self._edit(pid)
        added.discard(vid)
        removed.add(vid)

    def contents(self, pid: str):
        """A box's contents as they stand in this step."""
        contents = self.boxes[pid].contents
        edit = self.edited.get(pid)
        if edit is not None:
            contents = (contents - edit[2]) | edit[1]
        return contents

    def _enlist(self, table: dict[str, list[str]], key: str, pid: str):
        """Add box pid to table[key], in box order."""
        boxes = table.get(key)
        if boxes is None:
            table[key] = [pid]
        elif pid not in boxes:
            rank = self.rank
            at = len(boxes)
            while at and rank[boxes[at - 1]] > rank[pid]:
                at -= 1
            table[key] = [*boxes[:at], pid, *boxes[at:]]

    @staticmethod
    def _delist(table: dict[str, list[str]], key: str, pid: str):
        boxes = table.get(key)
        if boxes is not None and pid in boxes:
            rest = [q for q in boxes if q != pid]
            if rest:
                table[key] = rest
            else:
                del table[key]

    def add_vertex(self, vertex: Vertex, around):
        """Insert a fresh vertex into the boxes `around` (a table list)."""
        self.vertices[vertex.id] = vertex
        self.changed.add(vertex.id)
        if around:
            self.enclosing[vertex.id] = around
            for pid in around:
                self.add_contents(pid, (vertex.id,))

    def extend_box(self, pid: str, at: int, doors, contents):
        """Insert doors into a box's doors at position `at`, and add contents."""
        self._edit(pid)[0][at:at] = doors
        self.add_contents(pid, contents)
        for d in doors:
            self._enlist(self.inner_boxes, d, pid)
        for c in contents:
            self._enlist(self.enclosing, c, pid)

    def add_box(self, pid: str, doors: list[str], contents: set[str]):
        """Append a box record after every other box."""
        self.rank[pid] = next(reversed(self.rank.values()), -1) + 1
        self.boxes[pid] = Box(pid, tuple(doors), frozenset(contents))
        for c in contents:
            self._enlist(self.enclosing, c, pid)
        for vid in (pid, *doors):
            self._enlist(self.inner_boxes, vid, pid)

    def delete_box(self, pid: str):
        contents = self.contents(pid)
        doors = self._edit(pid)[0]
        del self.edited[pid], self.boxes[pid]
        for c in contents:
            self._delist(self.enclosing, c, pid)
        for vid in (pid, *doors):
            self._delist(self.inner_boxes, vid, pid)
        del self.rank[pid]

    def drop_vertex(self, vid: str, dying=()):
        """Remove a vertex from the vertices, the tables and the boxes,
        except from the boxes in `dying`, which are deleted after it."""
        del self.vertices[vid]
        self.changed.add(vid)
        for pid in self.enclosing.pop(vid, ()):
            if pid not in dying:
                self.remove_content(pid, vid)
        for pid in self.inner_boxes.pop(vid, ()):
            if pid != vid and pid not in dying:  # vid is a door of pid
                self._edit(pid)[0].remove(vid)

    def relabel(self, vid: str, label: str):
        """Give a vertex a new label, in the boxes it was in."""
        self.vertices[vid] = Vertex(vid, label)
        self.changed.add(vid)

    def erase(self, dead: set[str]):
        """Drop vertices, and the boxes whose principal is among them."""
        for vid in dead:
            self.drop_vertex(vid, dead)
        for pid in dead:
            if pid in self.boxes:
                self.delete_box(pid)

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
        source = self.source
        rows = source.key_rows
        entries, chains = source.transitions, source.chains
        jumps = set() if entries or chains else None
        for pid, (doors, added, removed) in self.edited.items():
            box, doors = self.boxes[pid], tuple(doors)
            if jumps is not None and doors != box.doors:
                # the doors lists that changed, and the doors moved
                jumps.add(N.doors_of(pid))
                jumps.update(set(doors).symmetric_difference(box.doors))
            self.boxes[pid] = box.edited(doors, added, removed)
        net = ProofNet(self.vertices, self.edges, self.boxes, self.system)
        index = net._index
        index.ports = self.ports
        index.enclosing = self.enclosing
        index.inner_boxes = self.inner_boxes
        index.box_rank = self.rank
        index.touched = self.touched
        # every live id is at most the last one handed out, so that one is
        # the maximum exactly when it is still alive
        if f"v{self.vn}" in self.vertices:
            index.max_vertex_id = self.vn
        if f"e{self.en}" in self.edges:
            index.max_edge_id = self.en
        before, after = self.touched, self.edges
        if rows is not None:
            # A row reads its vertex's label and, at each port, the edge's
            # direction, formula and other end.  An edge that changes any
            # of these is touched, and the vertex is one of its ends before
            # or after the step, or else is changed.  These are the stale
            # vertices; every other row is handed on.
            stale = set(self.changed)
            for eid, old in before.items():
                for e in (old, after.get(eid)):
                    if e is not None:
                        stale.add(e.src[0])
                        stale.add(e.tgt[0])
            if not self.in_place:
                rows = rows.copy()
            index.key_rows = rows
            for vid in stale:
                rows.pop(vid, None)
        if jumps is not None:
            # An entry reads a label and which edge is at each port, and a
            # jump the doors of a box (machine.Entry.reads), not the other
            # ends or formulas of those edges.  So of the stale vertices it
            # can read anew only the changed ones and those where an edge
            # left or came to a port, besides the doors lists that changed.
            moved = self.changed | jumps
            for eid, e in before.items():
                f = after.get(eid)
                for end, now in ((e and e.src, f and f.src),
                                 (e and e.tgt, f and f.tgt)):
                    if end != now:
                        if end:
                            moved.add(end[0])
                        if now:
                            moved.add(now[0])
            index.inherited = (entries, chains, moved)
        return net


# --- the eight rules ------------------------------------------------------


def fire(net: ProofNet, cut: Cut, in_place: bool = False
         ) -> tuple[ProofNet, dict[str, tuple[str, str]]]:
    """Apply one cut-elimination step; returns the reduct and, for X-steps,
    the provenance map from fresh identifiers to (original, side).

    The step is pure unless `in_place`: then it edits the net's own dicts
    and tables and hands them to the reduct, so the net must not be read
    again.  `Walk` fires so every step after its first, on the reduct it
    made the step before."""
    e = net.edges.get(cut.edge)
    if e is None or classify_edge(net, cut.edge) != cut.kind:
        raise RewriteError(f"cut {cut} is not present in the net")
    s = _Surgeon(net, in_place)
    v, w = e.src[0], e.tgt[0]
    kind = cut.kind

    if kind in _SPLICED:
        pairs = _SPLICED[kind]
        witness = None
        if kind == "forall":
            fa = e.formula
            if not isinstance(fa, Forall):
                raise RewriteError("forall cut edge does not carry a quantified formula")
            (_, inst), = pairs  # one auxiliary port a side
            m = match_instance(fa.body, s.edge_at(w, inst).formula, fa.binder)
            if m is None:
                raise RewriteError("forall instance does not match the quantified body")
            witness = m[1]
        s.del_edge(e.id)
        s.drop_vertex(v)
        s.drop_vertex(w)
        s.splice([((v, p), (w, q)) for p, q in pairs])
        if witness is not None:
            # substitute keeps a formula with no free binder as it is; the
            # calls share one memo, so each subformula is read once
            memo: dict = {}
            substituted = []
            for ed in s.edges.values():
                f = substitute(ed.formula, fa.binder, witness, memo)
                if f is not ed.formula:
                    substituted.append(Edge(ed.id, ed.src, ed.tgt, f))
            for ed in substituted:
                s.put_edge(ed)
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
    s.delete_box(v)
    s.extend_box(host_pid, at, inner_box.doors, inner_box.contents)
    # enclosing boxes already contained the merged material


def _fire_der(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    box = net.boxes[v]
    s.del_edge(e.id)
    s.drop_vertex(v)
    s.drop_vertex(w)
    s.splice([((v, "inner"), (w, "plain"))])
    s.delete_box(v)
    for d in box.doors:
        s.relabel(d, N.DER)
        outer = s.edge_at(d, "outer")
        s.reend(outer.id, tgt=(d, "bang"))
        inner = s.edge_at(d, "inner")
        s.reend(inner.id, src=(d, "plain"))


def _fire_weak(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    box = net.boxes[v]
    dead = {v, w} | box.contents
    for vid in dead:
        for port in N.vertex_ports(s.vertices[vid]):
            ed = s.ports.get((vid, port))
            if ed is not None:
                s.del_edge(ed.id)
    s.erase(dead)
    for d in box.doors:
        s.relabel(d, N.WEAK)
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
    # the copied box and the boxes inside it, in box order
    inner = sorted((pid for pid in vs if pid in net.boxes),
                   key=net._index.box_rank.__getitem__)
    around = s.enclosing.get(v)  # the boxes that receive both copies
    copies = {}
    for side in ("l", "r"):
        vmap, emap = {}, {}
        for vid in sorted(vs, key=N._numkey):
            nv = s.fresh_v()
            old = s.vertices[vid]
            s.add_vertex(Vertex(nv, old.label, old.arity), around)
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
        for pid in inner:
            b = net.boxes[pid]
            s.add_box(vmap[pid], [vmap[d] for d in b.doors],
                      {vmap[c] for c in b.contents})
        copies[side] = vmap
    # rewire the contraction's split edges to the two fresh principal ports
    left = s.edge_at(w, "left")
    right = s.edge_at(w, "right")
    s.reend(left.id, src=(copies["l"][v], "principal"))
    s.reend(right.id, src=(copies["r"][v], "principal"))
    # each former premise feeds both copies through a fresh contraction
    for d in box.doors:
        outer = s.edge_at(d, "outer")
        x = s.fresh_v()
        s.add_vertex(Vertex(x, N.CONTR), around)
        s.reend(outer.id, tgt=(x, "merged"))
        for side, port in (("l", "left"), ("r", "right")):
            ne = s.fresh_e()
            s.put_edge(Edge(ne, (x, port), (copies[side][d], "outer"),
                            outer.formula))
    # drop the originals and the cut
    s.del_edge(e.id)
    for eid in es:
        s.del_edge(eid)
    s.erase(vs)
    s.drop_vertex(w)


def _fire_dig(s: _Surgeon, net: ProofNet, v: str, w: str, e: Edge):
    from .formulas import Bang

    box = net.boxes[v]
    around = s.enclosing.get(v)  # the boxes that receive the new vertices
    r0 = s.fresh_v()
    s.add_vertex(Vertex(r0, N.RBANG), around)
    dbang = s.edge_at(w, "dbang")
    s.reend(e.id, tgt=(r0, "inner"))
    s.reend(dbang.id, src=(r0, "principal"))
    s.drop_vertex(w)
    new_doors = []
    for d in box.doors:
        outer = s.edge_at(d, "outer")
        nk = s.fresh_v()
        d0 = s.fresh_v()
        s.add_vertex(Vertex(nk, N.DIG), around)
        s.add_vertex(Vertex(d0, N.LBANG), around)
        new_doors.append(d0)
        s.reend(outer.id, tgt=(nk, "bang"))
        e1 = s.fresh_e()
        s.put_edge(Edge(e1, (nk, "dbang"), (d0, "outer"), Bang(outer.formula)))
        e2 = s.fresh_e()
        s.put_edge(Edge(e2, (d0, "inner"), (d, "outer"), outer.formula))
    s.add_box(r0, new_doors, {v} | set(box.doors) | box.contents)


# --- normalization --------------------------------------------------------


def pick_cut(cuts: list[Cut]) -> Cut:
    return min(cuts, key=lambda c: (c.level, N._numkey(c.edge)))


# kinds whose step moves a whole box one level up or down; a !-step only
# hands the contents of one box to another box at the same level
RELEVEL_KINDS = ("D", "N")


def relevelled(net: ProofNet, cut: Cut) -> frozenset[str]:
    """The vertices the step of `cut` moves one level: the contents of the
    cut's box for a D- or N-step, and none for the others.  They are read
    from the net before the cut fires."""
    if cut.kind in RELEVEL_KINDS:
        return net.boxes[net.edges[cut.edge].src[0]].contents
    return frozenset()


def update_cuts(cuts: dict[str, Cut], reduct: ProofNet, moved: frozenset[str]):
    """Turn the live-cut map of a net into that of its reduct: reclassify
    only the edges the step put, re-ended or deleted.

    An edge the step did not touch changes level only when the step moves
    the box of the cut one level and the edge lies in that box, which for a
    cut means that its source vertex is among the `moved` vertices
    (`relevelled`); only those levels are read again.
    """
    touched = reduct._index.touched
    for eid in touched:
        cuts.pop(eid, None)
    if moved and cuts:
        for eid, c in cuts.items():
            if reduct.edges[eid].src[0] in moved:
                level = reduct.depth(eid)
                if level != c.level:
                    cuts[eid] = Cut(eid, c.kind, level)
    for eid in touched:
        if eid in reduct.edges:
            kind = classify_edge(reduct, eid)
            if kind:
                cuts[eid] = Cut(eid, kind, reduct.depth(eid))


# the default number of steps normalize takes before it gives up
REWRITE_BUDGET = 10**5


class Walk:
    """The steps a strategy takes from a net.  Iterating fires the cut the
    strategy picks until none is left or `budget` steps are taken, and
    yields (cut, reduct, provenance) per step; `cuts` then holds the cuts
    left in the last reduct.

    The walk never branches, so only its first step is pure: every later
    one fires in place on the reduct the walk made the step before.  The
    input net is never edited, but a yielded reduct lives only until the
    next step; a caller that keeps one copies it (`ProofNet.copy`)."""

    def __init__(self, net: ProofNet, strategy: Strategy,
                 budget: int = REWRITE_BUDGET):
        self.net, self.strategy, self.budget = net, strategy, budget
        self.cuts: dict[str, Cut] = {}

    def __iter__(self):
        cur = self.net
        cuts = self.cuts = {c.edge: c for c in find_cuts(cur)}
        for _ in range(self.budget):
            if not cuts:
                return
            permitted = self.strategy.permitted(list(cuts.values()))
            if not permitted:
                raise RewriteError("strategy permits no cut but cuts remain")
            cut = pick_cut(permitted)
            moved = relevelled(cur, cut)
            cur, prov = fire(cur, cut, in_place=cur is not self.net)
            update_cuts(cuts, cur, moved)
            yield cut, cur, prov


def normalize(net: ProofNet, strategy: Strategy = ARROW,
              budget: int = REWRITE_BUDGET) -> tuple[ProofNet, ReductionTrace]:
    """Walk the strategy from the net; the status is 'budget' when cuts
    remain after `budget` steps."""
    trace = ReductionTrace()
    cur = net
    walk = Walk(net, strategy, budget)
    for i, (cut, cur, prov) in enumerate(walk):
        trace.steps.append(TraceStep(i, cut.kind, cut.edge, cut.level,
                                     cur.size(), prov or None))
    if walk.cuts:
        trace.status = "budget"
    return cur, trace


# --- exhaustive reduction-graph metrics ------------------------------------


class MetricsBudget(RuntimeError):
    pass


def canonical_key(net: ProofNet, numbering: dict[str, str] | None = None) -> str:
    """Isomorphism-invariant key: breadth-first relabelling from the
    conclusion, then remaining components from their least roots.

    An empty dict passed as `numbering` is filled with the number, as
    text, that each vertex has in the key.  Two nets with one key are
    isomorphic through the vertices that have the same number.

    Each vertex is written as its label and arity, then each of its ports
    as '-' when no edge ends there, or as the edge's direction, the
    neighbour's number and port, and the edge formula's `alpha_canon` text,
    which the formula object computes once and keeps.  All of that but the
    neighbours' numbers is the vertex's key row (`net._Index.key_row`),
    kept in the net's index once built.  A reduct of a keyed net inherits
    every row but those of the step's stale vertices: the ones it added,
    dropped or relabelled, and the ends of the edges it touched, before
    and after it (`_Surgeon.freeze`).  So keying a reduct builds only the
    rows the step changed.
    """
    index = net._index
    rows = index.key_rows
    if rows is None:
        rows = index.key_rows = {}
    vertices = net.vertices
    # vertex -> its number, as text
    order: dict[str, str] = {} if numbering is None else numbering
    out: list[str] = []  # the text of the vertices, each led by ';'

    def bfs(root: str) -> list[str]:
        """Number and write the component of root; returns its vertices."""
        queue = [root]
        order[root] = str(len(order))
        append, number = out.append, order.get
        for vid in queue:  # the loop also reaches what it appends
            row = rows.get(vid)
            if row is None:
                row = rows[vid] = index.key_row(vid)
            head, links = row
            append(f";{order[vid]}{head}")
            for nbr, text in links:
                n = number(nbr)
                if n is None:
                    n = order[nbr] = str(len(order))
                    queue.append(nbr)
                append(n)
                append(text)
        return queue

    conclusions = index.conclusions
    if len(conclusions) == 1:
        bfs(conclusions[0])
    while len(order) < len(vertices):
        rest = sorted((v for v in vertices if v not in order), key=N._numkey)
        best = None
        for root in rest:  # try each root, then undo its numbering and text
            mark = len(out)
            for vid in bfs(root):
                del order[vid]
            cand = "".join(out[mark:])
            del out[mark:]
            if best is None or cand < best[0]:
                best = (cand, root)
        bfs(best[1])
    boxparts = []
    for pid in net.boxes:
        b = net.boxes[pid]
        boxparts.append(
            f"[{order[pid]}|{','.join([order[d] for d in b.doors])}|"
            f"{','.join(sorted([order[c] for c in b.contents]))}]")
    return f"{net.system}|{''.join(out)[1:]}|{''.join(sorted(boxparts))}"


def footprint(net: ProofNet, cut: Cut) -> set[str]:
    """The vertices a cut's step reads or rewrites: its two ends; for an
    exponential cut also the principal, doors and contents of the box
    whose principal is its source; and for a !-cut also the principal and
    doors of the box its target is a door of."""
    e = net.edges[cut.edge]
    v, w = e.src[0], e.tgt[0]
    out = {v, w}
    if cut.kind in EXPONENTIAL_KINDS:
        box = net.boxes[v]
        out.update(box.doors)
        out.update(box.contents)
        if cut.kind == "!":
            host = net.door_box(w)
            out.add(host)
            out.update(net.boxes[host].doors)
    return out


def halo(net: ProofNet, vids: set[str]) -> set[str]:
    """The vertices, and every vertex one edge away from one of them."""
    ports, vertices = net._index.ports, net.vertices
    out = set(vids)
    for vid in vids:
        for port in N.vertex_ports(vertices[vid]):
            e = ports.get((vid, port))
            if e is not None:
                out.add(e.src[0])
                out.add(e.tgt[0])
    return out


@dataclass
class _Entry:
    """What the metrics search knows of one canonical key."""

    longest: int
    largest: int
    # the name of each cut fired from the key -> the names of the cuts its
    # reduct slept, when it last fired
    fired: dict[tuple[str, str], frozenset] = field(default_factory=dict)


@dataclass
class _State:
    """A visit of a reduct on the metrics stack, with its cuts to fire,
    each with the edge ids of the cuts its reduct sleeps."""

    entry: _Entry
    net: ProofNet
    cuts: dict[str, Cut]  # every live cut, by edge
    todo: list[tuple[Cut, set[str]]]
    fired: int = 0


# the number of distinct states reduction_metrics enters before it gives up
STATE_BUDGET = 10**5


def reduction_metrics(net: ProofNet, strategy: Strategy = ARROW,
                      step_budget: int = 10**5,
                      stats: dict[str, int] | None = None) -> tuple[int, int]:
    """Exact maxima over all permitted reduction sequences:
    (longest step count, largest reachable reduct size).

    A depth-first walk on an explicit stack that fires one order of each
    pair of commuting cuts (sleep sets; `docs/DECISIONS.md`, "Sleep sets
    and the memo").  Two permitted cuts are independent when neither's
    footprint meets the other's halo; then either order reaches one
    reduct, and each cut is still permitted after the other.  A visit
    does not fire the cuts asleep at it: a reduct sleeps the cuts asleep
    at its parent, or ahead of its cut in the parent's order, that are
    independent of its cut.  Sleep sets are held by edge id.

    The memo maps each canonical key to its maxima so far and, for each
    cut fired from it, named by its source vertex's number in the key and
    its port, the names of the cuts that reduct slept.  A visit of a known
    key fires only its awake cuts that were never fired from the key, or
    whose reduct slept a cut that this visit would not make it sleep; so
    every reachable state is entered, and for every sequence a reordering
    of it by swaps of independent steps is counted.  `step_budget`
    bounds the fires and `STATE_BUDGET` the distinct keys.  `stats`, when
    given, is filled with the counts `states` (distinct keys), `fired`,
    `slept` (the permitted cuts left unfired, asleep, summed over visits),
    `revisited` (fires whose reduct's key was known) and `refired` (fires
    of a cut fired from its key before, whose reduct now sleeps less).
    """
    memo: dict[str, _Entry] = {}
    stack: list[_State] = []
    count = {"fired": 0, "slept": 0, "revisited": 0, "refired": 0}

    def enter(cur: ProofNet, parent: _State | None, cut: Cut | None,
              sleep: set[str]):
        """The maxima of a visit with nothing to fire, or None after
        pushing the visit."""
        numbering: dict[str, str] = {}
        key = canonical_key(cur, numbering)
        entry = memo.get(key)
        if entry is None:
            if len(memo) >= STATE_BUDGET:
                raise MetricsBudget("state budget exhausted")
            # provisional until its state pops; nets are strongly normalizing
            entry = memo[key] = _Entry(0, cur.size())
        else:
            count["revisited"] += 1
        if parent is None:
            cuts = {c.edge: c for c in find_cuts(cur)}
        else:
            cuts = dict(parent.cuts)
            update_cuts(cuts, cur, relevelled(parent.net, cut))
        permitted = sorted(strategy.permitted(list(cuts.values())),
                           key=lambda c: N._numkey(c.edge))
        edges = cur.edges
        name = {c.edge: (numbering[edges[c.edge].src[0]], edges[c.edge].src[1])
                for c in permitted}
        asleep = [c for c in permitted if c.edge in sleep]
        count["slept"] += len(asleep)
        fired = entry.fired
        # the awake cuts never fired from the key first, then the others
        order = sorted((c for c in permitted if c.edge not in sleep),
                       key=lambda c: name[c.edge] in fired)
        # footprints are read only where two cuts are compared
        fps = ({c.edge: footprint(cur, c) for c in permitted}
               if len(permitted) > 1 else {})
        todo = []
        for i, c in enumerate(order):
            before = fired.get(name[c.edge])
            if before is not None and not before:
                continue  # its reduct slept nothing, so it missed nothing
            ahead = [*asleep, *order[:i]]
            near = halo(cur, fps[c.edge]) if ahead else set()
            child = {b.edge for b in ahead if fps[b.edge].isdisjoint(near)}
            names = frozenset(name[b] for b in child)
            if before is None:
                fired[name[c.edge]] = names
            elif before <= names:
                continue  # its reduct was entered sleeping no more than now
            else:
                fired[name[c.edge]] = names = before & names
                child = {b for b in child if name[b] in names}
                count["refired"] += 1
            todo.append((c, child))
        if not todo:
            return entry.longest, entry.largest
        stack.append(_State(entry, cur, cuts, todo))
        return None

    try:
        result = enter(net, None, None, set())
        while stack:
            top = stack[-1]
            if top.fired < len(top.todo):
                cut, sleep = top.todo[top.fired]
                top.fired += 1
                if count["fired"] == step_budget:
                    raise MetricsBudget("step budget exhausted")
                count["fired"] += 1
                nxt, _ = fire(top.net, cut)
                result = enter(nxt, top, cut, sleep)
                if result is None:
                    continue
            else:
                stack.pop()
                result = top.entry.longest, top.entry.largest
                if not stack:
                    break
            entry = stack[-1].entry
            entry.longest = max(entry.longest, 1 + result[0])
            entry.largest = max(entry.largest, result[1])
        return result
    finally:
        if stats is not None:
            stats.update(states=len(memo), **count)
