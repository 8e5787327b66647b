"""Proof-nets as labelled directed graphs with ordered ports and nested boxes.

Edges are directed from the side that produces a formula toward the side
that consumes it: premise edges leave P vertices, the conclusion edge enters
C, a box's principal edge leaves its R! vertex.  Port order is explicit and
fixed per vertex label, since the token machine distinguishes left and right
premises.

Nets are immutable values: a net's vertex, edge and box dicts never change,
and rewriting builds a new net, with one exception.  `rewrite.Walk` does
not branch, so from its second step on it fires in place: the reduct it
made hands its own dicts and tables to the next reduct and is spent.  A
reduct a walk yields lives until the walk's next step.  Every
structural lookup goes through one set of indexes per net, each built once,
on its first query, in O(|G| + sum of box contents): port -> edge; vertex ->
the boxes around it, which gives depth and the box tree; principal or door
vertex -> its box; the principal edges; the conclusion vertices; and the
largest numbered ids.  A reduct built by `rewrite.fire` receives its port
index, box tables and box ranks from the rewriter instead, which shares
every list it did not change with the source net; lists in the tables are
therefore never changed in place, and a box record it edits computes
its contents on first read (`Box.edited`).  The index also keeps the token
machine's compiled transitions (`machine.table_entry`) and the chains of
`weights.Chains`; each entry and chain records the vertices it read, and a
reduct of a net that built them inherits those that read no vertex its step
changed.  Once a net is keyed it also keeps `rewrite.canonical_key`'s row
of each vertex (`_Index.key_row`); a reduct inherits the rows of the
vertices its step left alone.
`retag` (`dataclasses.replace`) shares the index with its source net; that
is safe because no index depends on the system tag.
"""

from __future__ import annotations

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
# it to leave the principal port for that port.  `validate` types -o and *
# from it as well: the auxiliary ports are listed left part first.
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


class Box:
    """A box record: its principal vertex, its doors in order, and the
    vertex ids strictly inside it; it compares, hashes and prints by these.

    `rewrite.fire` gives a box it edits a new record from `edited`, which
    keeps the record it replaces and the step's edit, so that a step inside
    deep boxes does not copy the contents of every box around it.
    `contents`, always a frozenset, is computed on first read, without
    recursion, and eagerly once the pending edits outnumber the members
    last computed.
    """

    __slots__ = ("principal", "doors", "_contents", "_edit")

    def __init__(self, principal: str, doors: tuple[str, ...], contents):
        self.principal = principal  # R! / Rsec vertex id
        self.doors = doors  # L! / Lsec vertex ids, ordered
        self._contents: frozenset[str] | None = contents
        # while _contents is None: (the record replaced, the members added,
        # those removed, the edits pending since the last computed
        # contents, the size of those)
        self._edit: tuple | None = None

    def edited(self, doors: tuple[str, ...], added, removed) -> Box:
        """The record with these doors, and with `removed` taken out of
        its contents and then `added` put in."""
        box = Box(self.principal, doors, None)
        pending = len(added) + len(removed)
        if self._edit is None:
            anchor = len(self._contents)
        else:
            pending += self._edit[3]
            anchor = self._edit[4]
        box._edit = (self, frozenset(added), frozenset(removed), pending, anchor)
        if pending > anchor:
            box.contents  # computed now
        return box

    @property
    def contents(self) -> frozenset[str]:
        if self._contents is None:
            chain, box = [], self
            while box._contents is None:
                chain.append(box._edit)
                box = box._edit[0]
            # each edit's removals are applied before its additions, oldest
            # edit first
            added, removed = set(), set()
            for _, a, r, _, _ in reversed(chain):
                added -= r
                added |= a
                removed |= r
            self._contents = (box._contents - removed) | added
            self._edit = None
        return self._contents

    def __eq__(self, other):
        if type(other) is not Box:
            return NotImplemented
        return (self.principal == other.principal and self.doors == other.doors
                and self.contents == other.contents)

    def __hash__(self):
        return hash((self.principal, self.doors, self.contents))

    def __repr__(self):
        return (f"Box(principal={self.principal!r}, doors={self.doors!r}, "
                f"contents={self.contents!r})")


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

    A reduct from `rewrite.fire` is handed what its parent had built of
    the machine's tables: `inherited` holds the parent's entries, its
    chain tables and the vertices the step made stale.  The reduct takes
    a parent's entry when it first queries its key (`machine.table_entry`)
    and the parent's chains when it first walks with that setting of
    jumps (`weights.Chains`), each only if it read no stale vertex, so a
    reduct that is never run costs nothing for them; `docs/DECISIONS.md`
    ("What a reduct inherits") says why that is sound.
    """

    def __init__(self, vertices, edges, boxes):
        self.vertices = vertices
        self.edges = edges
        self.boxes = boxes
        self.edge_boxes: dict[str, list[str]] = {}  # filled per queried edge
        # (edge, polarity) -> machine.Entry, filled per queried pair
        self.transitions: dict[tuple[str, str], object] = {}
        # whether jumps are enabled -> the tables of weights.Chains
        self.chains: dict[bool, object] = {}
        # for a reduct: (the parent's entries, its chain tables, the stale
        # vertices), when the parent had built either
        self.inherited: tuple | None = None
        # for a reduct: the edges the step put, re-ended or deleted, each
        # with its edge before the step (None for a fresh one)
        self.touched: dict[str, Edge | None] | None = None
        # vertex -> its key row (see key_row), filled per keyed vertex; None
        # until the net is first keyed
        self.key_rows: dict[str, tuple] | None = None

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
    def box_parent(self) -> dict[str, str]:
        """Box -> the innermost box listing its principal among its
        contents, the one with the fewest contents (the first in box order
        on a tie); a box listed by none has no entry."""
        out: dict[str, str] = {}
        for qid in self.boxes:
            listed = self.enclosing.get(qid)
            if listed:
                out[qid] = min(listed,
                               key=lambda pid: len(self.boxes[pid].contents))
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

    def key_row(self, vid: str) -> tuple:
        """What `rewrite.canonical_key` writes for a vertex, less the
        numbers of its neighbours: (head, ((neighbour, text), ...)).

        The head is the `(label/arity` text and every port up to the first
        neighbour's number; each neighbour's text runs from after its
        number to the next neighbour's number, or to the closing `)`.  A
        port is written as `-` when no edge ends there, else as the edge's
        direction, the neighbour's number and port, and the edge formula's
        canonical text.  The row depends on the vertex's label and on the
        edges at its ports alone.
        """
        v = self.vertices[vid]
        ports = self.ports
        nbrs = []
        texts = []  # the head, then the text after each neighbour's number
        text = f"({v.label}/{v.arity}"
        for port in vertex_ports(v):
            e = ports.get((vid, port))
            if e is None:
                text += f";{port}:-"
                continue
            src = e.src
            if src[0] == vid and src[1] == port:
                (nbr, nport), arrow = e.tgt, ">"
            else:
                (nbr, nport), arrow = src, "<"
            texts.append(f"{text};{port}:{arrow}")
            nbrs.append(nbr)
            text = f".{nport}:{e.formula.canon}"
        texts.append(text + ")")
        return texts[0], tuple(zip(nbrs, texts[1:]))

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


def doors_of(pid: str) -> tuple[str, str]:
    """What a compiled entry or chain reads of a box's list of doors, as
    against its principal vertex: stale when a step changes that list."""
    return ("doors", pid)


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

    def copy(self) -> ProofNet:
        """The same net on dicts of its own, with its indexes to build: a
        reduct kept past the next step of a `rewrite.Walk`, which edits
        it in place."""
        return ProofNet(self.vertices.copy(), self.edges.copy(),
                        self.boxes.copy(), self.system)


def _numkey(ident: str):
    head = ident.rstrip("0123456789")
    tail = ident[len(head):]
    return (head, int(tail) if tail else -1)


# --- validation -----------------------------------------------------------


def _closed(b: Box, pid: str) -> set[str]:
    """A box's principal pid, doors and contents."""
    return {pid, *b.doors} | b.contents


class _Nesting:
    """The box forest that validate's nesting checks read.

    A box's parent is the innermost box listing its principal
    (`_Index.box_parent`).  The link to it is kept where the box lies
    inside it: the box's principal, doors and contents are among the
    parent's contents, and its principal is not among its own.  Following
    kept links from a box gives its chain, each box inside the next, so
    every box on a chain lies inside the boxes above it.  Where the boxes
    listing an identifier are exactly a chain, no check between two of
    them can fail, so the pairwise checks run only where they are not: on a
    well-nested net the checks are one pass over the contents.
    """

    def __init__(self, net: ProofNet):
        self.net = net
        idx, boxes = net._index, net.boxes
        self.up: dict[str, str] = {}  # box -> parent, where the link is kept
        for qid, q in boxes.items():
            p = idx.box_parent.get(qid)
            if (p is not None and q.principal == qid and qid not in q.contents
                    and _closed(q, qid) <= boxes[p].contents):
                self.up[qid] = p
        kids: dict[str, list[str]] = {}
        for qid, p in self.up.items():
            kids.setdefault(p, []).append(qid)
        self.kids = kids
        # an Euler tour of the kept links: a is on c's chain exactly when
        # enter[a] <= enter[c] < leave[a]; height is the chain's length
        self.enter: dict[str, int] = {}
        self.leave: dict[str, int] = {}
        self.height: dict[str, int] = {}
        for root in boxes:
            if root in self.up:
                continue
            todo = [(root, 1)]
            while todo:
                b, h = todo.pop()
                if h < 0:
                    self.leave[b] = len(self.enter)
                    continue
                self.enter[b] = len(self.enter)
                self.height[b] = h
                todo.append((b, -1))
                todo.extend((k, h + 1) for k in reversed(kids.get(b, ())))
        self._reps: dict[str, str | None] = {}
        # box -> the boxes whose principal it lists, in box order
        self.inside: dict[str, list[str]] = {}
        for qid in boxes:
            for pid in idx.enclosing.get(qid, ()):
                self.inside.setdefault(pid, []).append(qid)

    def chain_of(self, listed) -> str | None:
        """The box whose chain is exactly the distinct boxes listed, "" when
        none is listed, and None when they are no chain."""
        if not listed:
            return ""
        height, enter, leave = self.height, self.enter, self.leave
        c = max(listed, key=height.__getitem__)
        if height[c] != len(listed):
            return None
        at = enter[c]
        if all(enter[a] <= at < leave[a] for a in listed):
            return c
        return None

    def rep(self, vid: str) -> str | None:
        """chain_of the boxes holding vid."""
        r = self._reps.get(vid, 0)
        if r == 0:
            r = self._reps[vid] = self.chain_of(
                self.net._index.enclosing.get(vid, ()))
        return r

    def crossings(self) -> dict[str, list[str]]:
        """Box -> the edges with exactly one end inside it, in edge order."""
        idx = self.net._index
        out: dict[str, list[str]] = {}
        for e in self.net.edges.values():
            r = self._end_rep(e.src)
            if r is not None and r == self._end_rep(e.tgt):
                continue  # both ends lie in the same boxes
            for pid in idx.end_boxes(e.src) ^ idx.end_boxes(e.tgt):
                out.setdefault(pid, []).append(e.id)
        return out

    def _end_rep(self, end: tuple[str, str]) -> str | None:
        """chain_of idx.end_boxes(end), or None when it is not known."""
        vid, port = end
        r = self.rep(vid)
        if port != "inner" or r is None:
            return r
        extra = self.net._index.inner_boxes.get(vid, ())
        if len(extra) == 1 and r == self.up.get(extra[0], ""):
            return extra[0]
        return None

    def overlaps(self):
        """The pairs of boxes, in box order, whose contents meet without
        one box lying inside the other."""
        idx = self.net._index
        rank = idx.box_rank
        pairs: set[tuple[int, int]] = set()
        for x, listed in idx.enclosing.items():
            if len(listed) > 1 and self.rep(x) is None:
                ranks = sorted(rank[pid] for pid in listed)
                pairs.update((i, j) for k, i in enumerate(ranks)
                             for j in ranks[k + 1:])
        boxes = list(self.net.boxes.values())
        for i, j in sorted(pairs):
            a, b = boxes[i], boxes[j]
            if not (a.contents | {a.principal, *a.doors} <= b.contents
                    or b.contents | {b.principal, *b.doors} <= a.contents):
                yield a, b

    def leaks(self):
        """(box, nested box, what the nested box brings along that the box
        does not hold), in box order and then nested box order."""
        idx, boxes = self.net._index, self.net.boxes
        rank = idx.box_rank
        out = []
        for qid, q in boxes.items():
            listed = idx.enclosing.get(qid, ())
            if not listed or (qid in self.up
                              and self.rep(qid) == self.up[qid]):
                continue
            for pid in listed:
                missing = _closed(q, qid) - (boxes[pid].contents | {qid})
                if missing:
                    out.append((rank[pid], rank[qid], pid, qid, missing))
        out.sort(key=lambda row: row[:2])
        return [row[2:] for row in out]

    def nested(self, pid: str) -> set[str]:
        """The principals, doors and contents of the boxes whose principal
        pid lists among its contents."""
        boxes = self.net.boxes
        inside = self.inside.get(pid, ())
        if len(inside) == self.leave[pid] - self.enter[pid] - 1:
            # they are the boxes below pid, so they lie inside its children
            inside = self.kids.get(pid, ())
        out: set[str] = set()
        for qid in inside:
            out |= _closed(boxes[qid], qid)
        return out


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


# label -> (principal port, constructor, ports of its formula's parts, the
# name in its mismatch message): the formula at the principal port must be
# the constructor applied to the parts' formulas.  The multiplicatives are
# read from CONNECTIVES.
_BUILT_FORMULAS = {
    DER: ("bang", Bang, ("plain",), "dereliction"),
    DIG: ("dbang", Bang, ("bang",), "digging"),
    RBANG: ("principal", Bang, ("inner",), "box principal"),
    LBANG: ("outer", Bang, ("inner",), "box door"),
    RSEC: ("principal", Sec, ("inner",), "sec-box principal"),
    **{label: (principal, make, tuple(aux.values()),
               label + (" conclusion" if principal == "concl" else ""))
       for kind, make in (("-o", Lolli), ("*", Tensor))
       for label, principal, aux in CONNECTIVES[kind]},
}


def _check_typing(net: ProofNet, v: Vertex, fml, say):
    l = v.label
    built = _BUILT_FORMULAS.get(l)
    if built is not None:
        principal, make, parts, name = built
        want = make(*[fml(v.id, p) for p in parts])
        if fml(v.id, principal) != want:
            say(f"vertex {v.id}: {name} formula mismatch")
        elif l == DIG and not isinstance(fml(v.id, "bang"), Bang):
            say(f"vertex {v.id}: digging premise must be banged")
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
    elif l == CONTR:
        m = fml(v.id, "merged")
        if not isinstance(m, Bang):
            say(f"vertex {v.id}: contraction formula must be banged")
        if fml(v.id, "left") != m or fml(v.id, "right") != m:
            say(f"vertex {v.id}: contraction branch formulas mismatch")
    elif l == WEAK:
        if not isinstance(fml(v.id, "edge"), Bang):
            say(f"vertex {v.id}: weakening formula must be banged")
    elif l == LSEC:
        outer = fml(v.id, "outer")
        inner = fml(v.id, "inner")
        if outer != Bang(inner) and outer != Sec(inner):
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
    nest = _Nesting(net)
    crossing = nest.crossings()
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
    for a, b in nest.overlaps():
        say(f"boxes {a.principal} and {b.principal}: contents overlap "
            "without nesting")
    # nesting closure: a nested box brings its doors and contents along
    for pid, qid, missing in nest.leaks():
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
        for cid in b.contents - nest.nested(pid):
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
    once per call, and the edges carrying it share one formula object.
    The texts also share one map of parenthesized groups, so each distinct
    group is read once per call too, a repeat of it anywhere in the net is
    skipped after one C-level comparison of its text, and equal groups
    share one formula object wherever they occur.  Reading the formulas
    costs Python work for each distinct group, not the texts' length."""
    vertices: dict[str, Vertex] = {}
    edges: dict[str, Edge] = {}
    boxes: dict[str, Box] = {}
    formulas: dict[str, Formula] = {}  # formula text -> its value
    groups: dict = {}  # parse_formula's groups read so far
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
                f = formulas[ftext] = parse_formula(ftext, groups)
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
