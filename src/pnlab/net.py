"""Proof-nets as labelled directed graphs with ordered ports and nested boxes.

Edges are directed from the side that produces a formula toward the side
that consumes it: premise edges leave P vertices, the conclusion edge enters
C, a box's principal edge leaves its R! vertex.  Port order is explicit and
fixed per vertex label, since the token machine distinguishes left and right
premises.

Nets are immutable values: rewriting always builds a new net, and a net's
vertex, edge and box dicts must never change after construction.  Every
structural lookup goes through one set of indexes per net, each built once,
on its first query, in O(|G| + sum of box contents): port -> edge; vertex ->
the boxes around it, which gives depth and the box tree; principal or door
vertex -> its box; the principal edges; the conclusion vertices; and the
largest numbered ids.  A reduct built by `rewrite.fire` receives its port
index, box tables and box ranks from the rewriter instead, which shares
every list it did not change with the source net; lists in the tables are
therefore never changed in place.  The index also keeps the token
machine's compiled transitions (`machine.table_entry`); those hold resolved
edges and vertices, so a reduct always starts with an empty table.
`retag` (`dataclasses.replace`) shares the index with its source net; that
is safe because no index depends on the system tag.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field, replace
from functools import cached_property

from .formulas import (
    Atom,
    Bang,
    Forall,
    Formula,
    Lolli,
    Sec,
    Tensor,
    format_formula,
    match_instance,
    parse_formula,
)

# vertex labels
RLOLLI = "rlolli"
LLOLLI = "llolli"
RTENSOR = "rtensor"
LTENSOR = "ltensor"
RFORALL = "rforall"
LFORALL = "lforall"
RBANG = "rbang"
LBANG = "lbang"
WEAK = "weak"
CONTR = "contr"
DER = "der"
DIG = "dig"
PREM = "prem"
CONCL = "concl"
MUX = "mux"
RSEC = "rsec"
LSEC = "lsec"

BASE_LABELS = frozenset(
    {RLOLLI, LLOLLI, RTENSOR, LTENSOR, RFORALL, LFORALL, RBANG, LBANG,
     WEAK, CONTR, DER, DIG, PREM, CONCL}
)

BOX_PRINCIPALS = frozenset({RBANG, RSEC})
BOX_DOORS = frozenset({LBANG, LSEC})

SYSTEMS = ("MELL", "ELL", "SLL", "LLL")

# named ports per label; mux has ports 0..arity (0 = merged)
PORTS = {
    RLOLLI: ("bound", "body", "concl"),
    LLOLLI: ("fun", "arg", "res"),
    RTENSOR: ("left", "right", "concl"),
    LTENSOR: ("pair", "left", "right"),
    RFORALL: ("prem", "concl"),
    LFORALL: ("fa", "inst"),
    RBANG: ("inner", "principal"),
    LBANG: ("outer", "inner"),
    RSEC: ("inner", "principal"),
    LSEC: ("outer", "inner"),
    WEAK: ("edge",),
    CONTR: ("merged", "left", "right"),
    DER: ("bang", "plain"),
    DIG: ("bang", "dbang"),
    PREM: ("edge",),
    CONCL: ("edge",),
}

# ports at which an edge points INTO the vertex (edge target); all other
# ports are edge sources.
IN_PORTS = {
    RLOLLI: {"body"},
    LLOLLI: {"fun", "arg"},
    RTENSOR: {"left", "right"},
    LTENSOR: {"pair"},
    RFORALL: {"prem"},
    LFORALL: {"fa"},
    RBANG: {"inner"},
    LBANG: {"outer"},
    RSEC: {"inner"},
    LSEC: {"outer"},
    WEAK: {"edge"},
    CONTR: {"merged"},
    DER: {"bang"},
    DIG: {"bang"},
    PREM: set(),
    CONCL: {"edge"},
    MUX: {"merged"},
}

# The multiplicative connectives and the quantifier, each declared once, by
# cut kind: its right and its left vertex, each as (label, principal port,
# stack symbol -> auxiliary port).  A cut joins the two principal ports and
# its step splices the auxiliary ports that share a symbol; the token pushes
# a port's symbol when it leaves that port for the principal one, and pops
# it to leave the principal port for that port.
CONNECTIVES = {
    "-o": ((RLOLLI, "concl", {"a": "bound", "o": "body"}),
           (LLOLLI, "fun", {"a": "arg", "o": "res"})),
    "*": ((RTENSOR, "concl", {"f": "left", "x": "right"}),
          (LTENSOR, "pair", {"f": "left", "x": "right"})),
    "forall": ((RFORALL, "concl", {"s": "prem"}),
               (LFORALL, "fa", {"s": "inst"})),
}


class NetError(ValueError):
    pass


@dataclass(frozen=True)
class Vertex:
    id: str
    label: str
    arity: int = 0  # mux only: number of split ports


@dataclass(frozen=True)
class Edge:
    id: str
    src: tuple[str, str]  # (vertex id, port name)
    tgt: tuple[str, str]
    formula: Formula


class EditedSet(AbstractSet):
    """A frozen set given as a base set with some members removed and then
    some added; its value is computed on first use.

    `rewrite.fire` stores the contents of a box it edits this way, so that
    a step inside deep boxes does not copy the contents of every box
    around it.  The base may itself be an edited set; the value is computed
    without recursion, and eagerly once the pending edits outnumber the
    members of the last computed value.  It compares, hashes and prints as
    the frozenset of its value.
    """

    __slots__ = ("_base", "_added", "_removed", "_pending", "_anchor", "_value")

    def __init__(self, base, added, removed):
        self._added = frozenset(added)
        self._removed = frozenset(removed)
        pending = len(self._added) + len(self._removed)
        if type(base) is EditedSet and base._value is None:
            self._pending = base._pending + pending
            self._anchor = base._anchor
        else:
            self._pending = pending
            self._anchor = len(base)
        self._base = base
        self._value = None
        if self._pending > self._anchor:
            self.value()

    def value(self) -> frozenset:
        if self._value is None:
            chain = []
            node = self
            while type(node) is EditedSet and node._value is None:
                chain.append(node)
                node = node._base
            base = node._value if type(node) is EditedSet else node
            # value = (base - removed) | added, with each edit's removals
            # applied before its additions, oldest edit first
            added: set = set()
            removed: set = set()
            for n in reversed(chain):
                added -= n._removed
                added |= n._added
                removed |= n._removed
            self._value = frozenset((base - removed) | added)
            self._base = self._added = self._removed = None
        return self._value

    def __contains__(self, item):
        return item in self.value()

    def __iter__(self):
        return iter(self.value())

    def __len__(self):
        return len(self.value())

    def __hash__(self):
        return hash(self.value())

    def __repr__(self):
        return repr(self.value())

    def __eq__(self, other):
        return self.value() == _plain(other)

    def __le__(self, other):
        return self.value() <= _plain(other)

    def __lt__(self, other):
        return self.value() < _plain(other)

    def __ge__(self, other):
        return self.value() >= _plain(other)

    def __gt__(self, other):
        return self.value() > _plain(other)

    def __and__(self, other):
        return self.value() & _plain(other)

    def __or__(self, other):
        return self.value() | _plain(other)

    def __sub__(self, other):
        return self.value() - _plain(other)

    def __xor__(self, other):
        return self.value() ^ _plain(other)

    def __rand__(self, other):
        return other & self.value()

    def __ror__(self, other):
        return other | self.value()

    def __rsub__(self, other):
        return other - self.value()

    def __rxor__(self, other):
        return other ^ self.value()


def _plain(x):
    return x.value() if type(x) is EditedSet else x


@dataclass(frozen=True)
class Box:
    principal: str  # R! / Rsec vertex id
    doors: tuple[str, ...]  # L! / Lsec vertex ids, ordered
    contents: frozenset[str]  # vertex ids strictly inside (or an EditedSet)


@dataclass(frozen=True)
class Cut:
    edge: str
    kind: str  # one of -o * forall ! X D N W
    level: int


def port_name(v: Vertex, port: str) -> str:
    if port not in vertex_ports(v):
        raise NetError(f"vertex {v.id} ({v.label}) has no port {port}")
    return port


def mux_ports(arity: int) -> tuple[str, ...]:
    return ("merged",) + tuple(f"split{i}" for i in range(1, arity + 1))


def vertex_ports(v: Vertex) -> tuple[str, ...]:
    return mux_ports(v.arity) if v.label == MUX else PORTS[v.label]


def is_in_port(v: Vertex, port: str) -> bool:
    if v.label == MUX:
        return port == "merged"
    return port in IN_PORTS[v.label]


class _Index:
    """The lookup tables of one net, each built on its first query.

    It holds the net's dicts, never the net itself, so the two form no
    reference cycle.  Box lists are box keys in the order of `boxes`, and
    box ranks increase in that order.
    """

    def __init__(self, vertices, edges, boxes):
        self.vertices = vertices
        self.edges = edges
        self.boxes = boxes
        self.edge_boxes: dict[str, list[str]] = {}  # filled per queried edge
        # (edge, polarity) -> machine.Entry, filled per queried pair
        self.transitions: dict[tuple[str, str], object] = {}
        # for a reduct: the edges the step put, re-ended or deleted
        self.touched: set[str] | None = None

    @cached_property
    def ports(self) -> dict[tuple[str, str], Edge]:
        """(vertex, port) -> the first edge, in edge order, with that end."""
        out: dict[tuple[str, str], Edge] = {}
        for e in self.edges.values():
            out.setdefault(e.src, e)
            out.setdefault(e.tgt, e)
        return out

    @cached_property
    def enclosing(self) -> dict[str, list[str]]:
        """Identifier -> the boxes listing it among their contents."""
        out: dict[str, list[str]] = {}
        for pid, b in self.boxes.items():
            for c in b.contents:
                if c in out:
                    out[c].append(pid)
                else:
                    out[c] = [pid]
        return out

    @cached_property
    def inner_boxes(self) -> dict[str, list[str]]:
        """Vertex -> the boxes whose principal or door it is."""
        out: dict[str, list[str]] = {}
        for pid, b in self.boxes.items():
            for vid in (b.principal, *b.doors):
                boxes = out.get(vid)
                if boxes is None:
                    out[vid] = [pid]
                elif boxes[-1] != pid:  # a vertex listed twice in one box
                    boxes.append(pid)
        return out

    @cached_property
    def box_rank(self) -> dict[str, int]:
        """Box -> a number that increases in box order."""
        return {pid: i for i, pid in enumerate(self.boxes)}

    @cached_property
    def principal_edges(self) -> dict[str, str]:
        """Principal edge id -> label of its source, in edge id order."""
        out = []
        for e in self.edges.values():
            vid, port = e.src
            v = self.vertices.get(vid)
            if port == "principal" and v is not None and v.label in BOX_PRINCIPALS:
                out.append((e.id, v.label))
        out.sort(key=lambda item: _numkey(item[0]))
        return dict(out)

    @cached_property
    def conclusions(self) -> list[str]:
        return [v.id for v in self.vertices.values() if v.label == CONCL]

    @cached_property
    def max_vertex_id(self) -> int:
        return _max_numbered(self.vertices, "v")

    @cached_property
    def max_edge_id(self) -> int:
        return _max_numbered(self.edges, "e")

    def end_boxes(self, end: tuple[str, str]) -> set[str]:
        """The boxes an edge end lies inside: those holding its vertex, and
        for an `inner` port also the box of that principal or door."""
        vid, port = end
        out = set(self.enclosing.get(vid, ()))
        if port == "inner":
            out.update(self.inner_boxes.get(vid, ()))
        return out

    def around_edge(self, eid: str) -> list[str]:
        """The boxes holding both ends of an edge, in box order."""
        out = self.edge_boxes.get(eid)
        if out is None:
            e = self.edges[eid]
            out = sorted(self.end_boxes(e.src) & self.end_boxes(e.tgt),
                         key=self.box_rank.__getitem__)
            self.edge_boxes[eid] = out
        return out


def _max_numbered(ids, prefix: str) -> int:
    """Largest n with prefix+n among ids (0 when there is none)."""
    best = 0
    for k in ids:
        if k.startswith(prefix) and k[len(prefix):].isdigit():
            best = max(best, int(k[len(prefix):]))
    return best


@dataclass(frozen=True)
class ProofNet:
    vertices: dict[str, Vertex]
    edges: dict[str, Edge]
    boxes: dict[str, Box]  # keyed by principal vertex id
    system: str = "MELL"
    _index: _Index | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._index is None:
            object.__setattr__(self, "_index",
                               _Index(self.vertices, self.edges, self.boxes))

    # --- structural accessors (section-2 notation) ---

    def vertices_sorted(self) -> list[Vertex]:
        return [self.vertices[k] for k in sorted(self.vertices, key=_numkey)]

    def edges_sorted(self) -> list[Edge]:
        return [self.edges[k] for k in sorted(self.edges, key=_numkey)]

    def size(self) -> int:
        """|G| = number of vertices."""
        return len(self.vertices)

    def edge_at(self, vid: str, port: str) -> Edge:
        e = self._index.ports.get((vid, port))
        if e is None:
            raise NetError(f"no edge at {vid}.{port}")
        return e

    def door_box(self, vid: str):
        """Principal vertex of the box listing vid as a door, or None."""
        for pid in self._index.inner_boxes.get(vid, ()):
            if vid in self.boxes[pid].doors:
                return pid
        return None

    def depth(self, item: str) -> int:
        """Box-depth of a vertex or edge id: number of enclosing boxes.

        An edge lies in a box when both of its ends do.
        """
        if item in self.vertices:
            return len(self._index.enclosing.get(item, ()))
        if item in self.edges:
            return len(self._index.around_edge(item))
        raise NetError(f"unknown identifier {item}")

    def net_depth(self) -> int:
        items = list(self.vertices) + list(self.edges)
        return max((self.depth(x) for x in items), default=0)

    def theta(self, item: str):
        """Principal vertex of the innermost box containing item, or None."""
        if item in self.vertices:
            around = self._index.enclosing.get(item, ())
        elif item in self.edges:
            around = self._index.around_edge(item)
        else:
            return None
        best = None
        best_depth = -1
        for pid in around:
            d = self.depth(pid)
            if d > best_depth:
                best, best_depth = pid, d
        return best

    def rho(self, vid: str) -> str:
        """Principal edge of a box principal vertex."""
        v = self.vertices[vid]
        if v.label not in BOX_PRINCIPALS:
            raise NetError(f"rho expects a box principal vertex, got {v.label}")
        return self.edge_at(vid, "principal").id

    def sigma(self, item: str):
        t = self.theta(item)
        return self.rho(t) if t is not None else None

    def box_edges(self) -> list[str]:
        """B_G: edges leaving an R! vertex, in id order.

        Sec-box principal edges are not box-edges: sec boxes are never
        duplicated and carry no weight.
        """
        return [e for e, label in self._index.principal_edges.items()
                if label == RBANG]

    def principal_edges(self):
        """Principal edges of both box kinds, as a set-like view in id order."""
        return self._index.principal_edges.keys()

    def interior_vertices(self) -> list[str]:
        """I_G: vertices not labelled with a box principal or door."""
        skip = BOX_PRINCIPALS | BOX_DOORS
        return [v.id for v in self.vertices_sorted() if v.label not in skip]

    def premise_count(self, eid: str) -> int:
        """P_G(e): number of premises of the box with principal edge e."""
        e = self.edges.get(eid)
        if e is None:
            raise NetError(f"unknown edge {eid}")
        v = self.vertices[e.src[0]]
        if v.label not in BOX_PRINCIPALS or e.src[1] != "principal":
            raise NetError(f"{eid} is not a box-edge")
        return len(self.boxes[v.id].doors)

    def conclusion_vertex(self) -> str:
        cs = self._index.conclusions
        if len(cs) != 1:
            raise NetError(f"expected exactly one conclusion vertex, found {len(cs)}")
        return cs[0]

    def conclusion_edge(self) -> str:
        return self.edge_at(self.conclusion_vertex(), "edge").id


def _numkey(ident: str):
    head = ident.rstrip("0123456789")
    tail = ident[len(head):]
    return (head, int(tail) if tail else -1)


# --- validation -----------------------------------------------------------


def validate(net: ProofNet) -> list[str]:
    """Local structural and typing checks; empty list means valid."""
    diags: list[str] = []
    say = diags.append

    if net.system not in SYSTEMS:
        say(f"net: unknown system tag {net.system}")

    unknown = [v for v in net.vertices.values() if v.label not in IN_PORTS]
    for v in unknown:
        say(f"vertex {v.id}: unknown label {v.label}")
    if unknown:
        return diags  # the port checks below need each label's ports

    # every port filled exactly once, with the right direction
    seen: dict[tuple[str, str], list[str]] = {}
    for e in net.edges.values():
        for end, role in ((e.src, "src"), (e.tgt, "tgt")):
            vid, port = end
            v = net.vertices.get(vid)
            if v is None:
                say(f"edge {e.id}: unknown vertex {vid}")
                continue
            try:
                port_name(v, port)
            except NetError:
                say(f"edge {e.id}: vertex {vid} ({v.label}) has no port {port}")
                continue
            inward = is_in_port(v, port)
            if role == "tgt" and not inward:
                say(f"edge {e.id}: enters {vid}.{port}, which is an out-port of {v.label}")
            if role == "src" and inward:
                say(f"edge {e.id}: leaves {vid}.{port}, which is an in-port of {v.label}")
            seen.setdefault(end, []).append(e.id)
    for v in net.vertices.values():
        for port in vertex_ports(v):
            ends = seen.get((v.id, port), [])
            if len(ends) != 1:
                say(f"vertex {v.id} ({v.label}): port {port} has {len(ends)} incident edges")

    cs = [v for v in net.vertices.values() if v.label == CONCL]
    if len(cs) != 1:
        say(f"net: expected exactly one conclusion vertex, found {len(cs)}")

    if any(len(ends) != 1 for ends in seen.values()):
        return diags  # typing checks below assume well-ported nets

    def fml(vid, port):
        return net.edge_at(vid, port).formula

    for v in net.vertices.values():
        try:
            _check_typing(net, v, fml, say)
        except NetError as exc:
            say(f"vertex {v.id}: {exc}")

    _check_boxes(net, say)
    return diags


def _check_typing(net: ProofNet, v: Vertex, fml, say):
    l = v.label
    if l == RLOLLI:
        if fml(v.id, "concl") != Lolli(fml(v.id, "bound"), fml(v.id, "body")):
            say(f"vertex {v.id}: rlolli conclusion formula mismatch")
    elif l == LLOLLI:
        if fml(v.id, "fun") != Lolli(fml(v.id, "arg"), fml(v.id, "res")):
            say(f"vertex {v.id}: llolli formula mismatch")
    elif l == RTENSOR:
        if fml(v.id, "concl") != Tensor(fml(v.id, "left"), fml(v.id, "right")):
            say(f"vertex {v.id}: rtensor conclusion formula mismatch")
    elif l == LTENSOR:
        if fml(v.id, "pair") != Tensor(fml(v.id, "left"), fml(v.id, "right")):
            say(f"vertex {v.id}: ltensor formula mismatch")
    elif l == RFORALL:
        c = fml(v.id, "concl")
        if not isinstance(c, Forall) or c.body != fml(v.id, "prem"):
            say(f"vertex {v.id}: rforall conclusion formula mismatch")
    elif l == LFORALL:
        fa = fml(v.id, "fa")
        if not isinstance(fa, Forall):
            say(f"vertex {v.id}: lforall expects a quantified formula")
        elif match_instance(fa.body, fml(v.id, "inst"), fa.binder) is None:
            say(f"vertex {v.id}: lforall instance does not match the quantified body")
    elif l == DER:
        if fml(v.id, "bang") != Bang(fml(v.id, "plain")):
            say(f"vertex {v.id}: dereliction formula mismatch")
    elif l == DIG:
        if fml(v.id, "dbang") != Bang(fml(v.id, "bang")):
            say(f"vertex {v.id}: digging formula mismatch")
        elif not isinstance(fml(v.id, "bang"), Bang):
            say(f"vertex {v.id}: digging premise must be banged")
    elif l == CONTR:
        m = fml(v.id, "merged")
        if not isinstance(m, Bang):
            say(f"vertex {v.id}: contraction formula must be banged")
        if fml(v.id, "left") != m or fml(v.id, "right") != m:
            say(f"vertex {v.id}: contraction branch formulas mismatch")
    elif l == WEAK:
        if not isinstance(fml(v.id, "edge"), Bang):
            say(f"vertex {v.id}: weakening formula must be banged")
    elif l == RBANG:
        if fml(v.id, "principal") != Bang(fml(v.id, "inner")):
            say(f"vertex {v.id}: box principal formula mismatch")
    elif l == LBANG:
        if fml(v.id, "outer") != Bang(fml(v.id, "inner")):
            say(f"vertex {v.id}: box door formula mismatch")
    elif l == RSEC:
        if fml(v.id, "principal") != Sec(fml(v.id, "inner")):
            say(f"vertex {v.id}: sec-box principal formula mismatch")
    elif l == LSEC:
        outer = fml(v.id, "outer")
        inner = fml(v.id, "inner")
        if outer not in (Bang(inner), Sec(inner)):
            say(f"vertex {v.id}: sec-box door formula mismatch")
    elif l == MUX:
        m = fml(v.id, "merged")
        if not isinstance(m, Bang):
            say(f"vertex {v.id}: mux formula must be banged")
        else:
            for i in range(1, v.arity + 1):
                if fml(v.id, f"split{i}") != m.body:
                    say(f"vertex {v.id}: mux split {i} formula mismatch")


def _check_boxes(net: ProofNet, say):
    idx = net._index
    # box -> edges with exactly one end inside it, in edge order
    crossing: dict[str, list[str]] = {}
    for e in net.edges.values():
        for pid in idx.end_boxes(e.src) ^ idx.end_boxes(e.tgt):
            crossing.setdefault(pid, []).append(e.id)
    # box -> boxes whose principal it lists among its contents
    inside: dict[str, list[str]] = {}
    for qid in net.boxes:
        for pid in idx.enclosing.get(qid, ()):
            inside.setdefault(pid, []).append(qid)
    all_doors: set[str] = set()
    for pid, b in net.boxes.items():
        v = net.vertices.get(pid)
        if v is None or v.label not in BOX_PRINCIPALS or pid != b.principal:
            say(f"box {pid}: principal vertex missing or mislabelled")
            continue
        for d in b.doors:
            dv = net.vertices.get(d)
            if dv is None or dv.label not in BOX_DOORS:
                say(f"box {pid}: door {d} missing or mislabelled")
            if d in all_doors:
                say(f"box {pid}: door {d} shared with another box")
            all_doors.add(d)
        for cid in b.contents:
            if cid not in net.vertices:
                say(f"box {pid}: unknown content vertex {cid}")
        if pid in b.contents or set(b.doors) & b.contents:
            say(f"box {pid}: principal or door listed in contents")
        # boundary crossings only through the principal and the doors
        for eid in crossing.get(pid, ()):
            say(f"box {pid}: edge {eid} crosses the box boundary")
    for v in net.vertices.values():
        if v.label in BOX_PRINCIPALS and v.id not in net.boxes:
            say(f"vertex {v.id}: box principal without a box record")
        if v.label in BOX_DOORS and v.id not in all_doors:
            say(f"vertex {v.id}: box door not attached to any box")
    # nesting forms a forest
    boxes = list(net.boxes.values())
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            inter = a.contents & b.contents
            if inter and not (
                a.contents | {a.principal, *a.doors} <= b.contents
                or b.contents | {b.principal, *b.doors} <= a.contents
            ):
                say(
                    f"boxes {a.principal} and {b.principal}: contents overlap "
                    "without nesting"
                )
    # nesting closure: a nested box brings its doors and contents along
    for pid, b in net.boxes.items():
        for qid in inside.get(pid, ()):
            q = net.boxes[qid]
            missing = ({qid, *q.doors} | q.contents) - (b.contents | {qid})
            if missing:
                say(f"box {pid}: nested box {qid} leaks {sorted(missing)}")
    # depth consistency: direct contents sit one level below the principal edge
    for pid, b in net.boxes.items():
        if pid not in net.vertices:
            continue  # reported above
        try:
            pe = net.rho(pid)
        except NetError:
            continue
        want = net.depth(pe) + 1
        nested: set[str] = set()
        for qid in inside.get(pid, ()):
            q = net.boxes[qid]
            nested |= {qid, *q.doors} | q.contents
        for cid in b.contents - nested:
            if cid not in net.vertices:
                continue  # reported above
            if net.depth(cid) != want:
                say(f"box {pid}: content {cid} has inconsistent depth")

    if net.system != "LLL":
        for v in net.vertices.values():
            if v.label in (RSEC, LSEC):
                say(f"vertex {v.id}: sec-boxes require LLL mode")


# --- serialization --------------------------------------------------------

FORMAT_VERSION = 1


def print_net(net: ProofNet) -> str:
    """Versioned textual format; parse_net(print_net(n)) round-trips."""
    lines = [f"pnet {FORMAT_VERSION}", f"system {net.system}"]
    for v in net.vertices_sorted():
        if v.label == MUX:
            lines.append(f"vertex {v.id} {v.label} {v.arity}")
        else:
            lines.append(f"vertex {v.id} {v.label}")
    for e in net.edges_sorted():
        lines.append(
            f"edge {e.id} {e.src[0]} {e.src[1]} {e.tgt[0]} {e.tgt[1]} "
            f"{format_formula(e.formula)}"
        )
    for pid in sorted(net.boxes, key=_numkey):
        b = net.boxes[pid]
        doors = ",".join(b.doors) if b.doors else "-"
        contents = ",".join(sorted(b.contents, key=_numkey)) if b.contents else "-"
        lines.append(f"box {pid} {doors} {contents}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_net(text: str) -> ProofNet:
    """Read the format of print_net.  Each distinct formula text is read
    once per call, and the edges carrying it share one formula object."""
    vertices: dict[str, Vertex] = {}
    edges: dict[str, Edge] = {}
    boxes: dict[str, Box] = {}
    formulas: dict[str, Formula] = {}  # formula text -> its value
    system = "MELL"
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("pnet "):
        raise NetError("missing pnet header")
    if lines[0].split() != ["pnet", str(FORMAT_VERSION)]:
        raise NetError(f"unsupported format version in {lines[0]!r}")
    for ln in lines[1:]:
        parts = ln.split(None, 1)
        kind = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kind == "system":
            system = rest.strip()
        elif kind == "vertex":
            bits = rest.split()
            if len(bits) == 2:
                vid, label = bits
                vertices[vid] = Vertex(vid, label)
            elif len(bits) == 3 and bits[1] == MUX:
                try:
                    arity = int(bits[2])
                except ValueError:
                    raise NetError(f"bad multiplexer arity in {ln!r}") from None
                vertices[bits[0]] = Vertex(bits[0], MUX, arity)
            else:
                raise NetError(f"bad vertex line {ln!r}")
        elif kind == "edge":
            bits = rest.split(None, 5)
            if len(bits) != 6:
                raise NetError(f"bad edge line {ln!r}")
            eid, sv, sp, tv, tp, ftext = bits
            f = formulas.get(ftext)
            if f is None:
                f = formulas[ftext] = parse_formula(ftext)
            edges[eid] = Edge(eid, (sv, sp), (tv, tp), f)
        elif kind == "box":
            bits = rest.split()
            if len(bits) != 3:
                raise NetError(f"bad box line {ln!r}")
            pid, doors, contents = bits
            ds = tuple(doors.split(",")) if doors != "-" else ()
            cs = frozenset(contents.split(",")) if contents != "-" else frozenset()
            boxes[pid] = Box(pid, ds, cs)
        elif kind == "end":
            break
        else:
            raise NetError(f"bad line {ln!r}")
    return ProofNet(vertices, edges, boxes, system)


def retag(net: ProofNet, system: str) -> ProofNet:
    return replace(net, system=system)
