"""Sequent proof terms and their elaboration into proof-nets.

One constructor per sequent rule.  Premises are addressed positionally,
1-based and left to right; the documented order conventions are:

  * ax F            proves F |- F (one premise)
  * cut P Q i       splices P's premises in place of Q's premise i
  * weak P F        appends a premise !F
  * contr P i j     contracts premises i < j, result sits at position i
  * rlolli P i      discharges premise i
  * llolli P Q k    premises: P's, then Q's minus k, then the new arrow
  * rtensor P Q     premises: P's then Q's
  * ltensor P i j   pairs premises i and j, result at min(i, j)
  * promote P       boxes P; doors in premise order
  * derelict P i / dig P i     in place at i
  * rforall P a     binder a must not occur free in the premises
  * lforall P i Q B premise i must read Q's body with B for its binder
  * mux P i j ...   SLL multiplexer over the listed premises (mux P F: arity 0)
  * spromote P i... LLL sec-box; listed premises get !-doors, the rest sec

Binders introduced by rforall are renamed to globally fresh atoms so the
forall rewrite step can substitute globally.

Reading and elaboration are each one post-order pass on an explicit stack,
and proof terms are `formulas.Tree`s, which compare, hash and print on one,
so the depth of a term costs no Python frames.  The reader is driven by
`_RULES` (rule name -> constructor and argument kinds), the elaborator by
`_JOINS` (term class -> subterm fields and the rule that joins their
judgements).  Ids are handed out in post-order, so a subterm owns exactly
the vertex and edge ids handed out while it was elaborated: a box's
contents and the edges an rforall renames are id ranges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import net as N
from .formulas import (
    Atom,
    Bang,
    Forall,
    Formula,
    Lolli,
    Sec,
    Tensor,
    Tree,
    feq,
    free_atoms,
    parse_formula,
    substitute,
)


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at offset {pos})")
        self.pos = pos


class ElaborationError(ValueError):
    pass


# --- proof term AST -------------------------------------------------------


class ProofTerm(Tree):
    """A sequent proof term."""


@dataclass(frozen=True, eq=False, repr=False)
class Ax(ProofTerm):
    formula: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Cut(ProofTerm):
    left: ProofTerm
    right: ProofTerm
    premise: int


@dataclass(frozen=True, eq=False, repr=False)
class Weak(ProofTerm):
    sub: ProofTerm
    formula: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Contr(ProofTerm):
    sub: ProofTerm
    i: int
    j: int


@dataclass(frozen=True, eq=False, repr=False)
class RLolli(ProofTerm):
    sub: ProofTerm
    i: int


@dataclass(frozen=True, eq=False, repr=False)
class LLolli(ProofTerm):
    left: ProofTerm
    right: ProofTerm
    hook: int


@dataclass(frozen=True, eq=False, repr=False)
class RTensor(ProofTerm):
    left: ProofTerm
    right: ProofTerm


@dataclass(frozen=True, eq=False, repr=False)
class LTensor(ProofTerm):
    sub: ProofTerm
    i: int
    j: int


@dataclass(frozen=True, eq=False, repr=False)
class Promote(ProofTerm):
    sub: ProofTerm


@dataclass(frozen=True, eq=False, repr=False)
class Derelict(ProofTerm):
    sub: ProofTerm
    i: int


@dataclass(frozen=True, eq=False, repr=False)
class Dig(ProofTerm):
    sub: ProofTerm
    i: int


@dataclass(frozen=True, eq=False, repr=False)
class RForall(ProofTerm):
    sub: ProofTerm
    binder: str


@dataclass(frozen=True, eq=False, repr=False)
class LForall(ProofTerm):
    sub: ProofTerm
    i: int
    quantified: Formula
    witness: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Mux(ProofTerm):
    sub: ProofTerm
    indices: tuple[int, ...]
    formula: Formula | None = None  # arity-0 case


@dataclass(frozen=True, eq=False, repr=False)
class SPromote(ProofTerm):
    sub: ProofTerm
    bang_indices: tuple[int, ...]


# --- s-expression reader -------------------------------------------------

# every non-blank character is a parenthesis or part of a run of others
_SEXP_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str):
    return [(m.group(), m.start()) for m in _SEXP_TOKEN.finditer(text)]


def _read(toks):
    """Read the s-expression that starts at toks[0], on an explicit stack.

    A node is (token, offset) for an atom and (list of nodes, offset) for a
    list.  Returns the node, the index of the token after it, and each
    list's token span [first, end) by the offset of its '('.
    """
    spans = {}
    opens = []  # (items, offset, first token) of each list not yet closed
    for i, (tok, pos) in enumerate(toks):
        if tok == "(":
            opens.append(([], pos, i))
            continue
        node = (tok, pos)
        if tok == ")":
            if not opens:
                raise ParseError("unexpected )", pos)
            items, start, first = opens.pop()
            spans[start] = (first, i + 1)
            node = (items, start)
        if not opens:
            return node, i + 1, spans
        opens[-1][0].append(node)
    raise ParseError("missing )", opens[-1][1])


def _formula_at(node, toks, spans) -> Formula:
    """The formula of a node's tokens, spaced as `(a (b c))` is."""
    val, pos = node
    if not isinstance(val, str):
        first, end = spans[pos]
        val = " ".join(t for t, _ in toks[first:end])
        val = val.replace("( ", "(").replace(" )", ")")
    try:
        return parse_formula(val)
    except ValueError as exc:
        raise ParseError(f"bad formula: {exc}", pos) from exc


def _int_at(node) -> int:
    val, pos = node
    if not isinstance(val, str) or not val.isdigit():
        raise ParseError(f"expected a premise index, found {val!r}", pos)
    return int(val)


def _name_at(node) -> str:
    val, pos = node
    if not isinstance(val, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", val):
        raise ParseError(f"expected a name, found {val!r}", pos)
    return val


def _make_mux(sub, *rest):
    if len(rest) == 1 and isinstance(rest[0], Formula):
        return Mux(sub, (), rest[0])
    return Mux(sub, rest)


# rule name -> (constructor, argument kinds): t a proof term, i a premise
# index, f a formula, n a name; a trailing * takes any number of indices,
# or for mux a lone formula
_RULES = {
    "ax": (Ax, "f"), "cut": (Cut, "tti"), "weak": (Weak, "tf"),
    "contr": (Contr, "tii"), "rlolli": (RLolli, "ti"), "llolli": (LLolli, "tti"),
    "rtensor": (RTensor, "tt"), "ltensor": (LTensor, "tii"),
    "promote": (Promote, "t"), "derelict": (Derelict, "ti"), "dig": (Dig, "ti"),
    "rforall": (RForall, "tn"), "lforall": (LForall, "tiff"),
    "mux": (_make_mux, "t*"),
    "spromote": (lambda sub, *ix: SPromote(sub, ix), "t*"),
}


def _rule_at(node):
    """The frame of a rule node: its constructor, one kind per argument, the
    arguments, and their values read so far."""
    val, pos = node
    if isinstance(val, str):
        raise ParseError(f"expected a proof term, found {val!r}", pos)
    if not val or not isinstance(val[0][0], str):
        raise ParseError("expected a rule name", pos)
    (head, hpos), *args = val
    if head not in _RULES:
        raise ParseError(f"unknown rule name {head!r}", hpos)
    make, kinds = _RULES[head]
    fixed = kinds.rstrip("*")
    if len(args) < len(fixed) or (fixed == kinds and len(args) > len(fixed)):
        raise ParseError(
            f"rule {head} takes {len(fixed)} argument(s), got {len(args)}", hpos)
    rest = args[len(fixed):]
    lone = len(rest) == 1 and isinstance(rest[0][0], str) and not rest[0][0].isdigit()
    tail = "f" if head == "mux" and lone else "i"
    return make, fixed + tail * len(rest), args, []


def _term_at(root, toks, spans) -> ProofTerm:
    """The proof term of a read s-expression, on an explicit stack.  The
    arguments of a rule are read in order, a subterm completely before the
    next argument."""
    stack = [_rule_at(root)]
    while True:
        make, kinds, args, values = stack[-1]
        k = len(values)
        if k == len(args):
            stack.pop()
            term = make(*values)
            if not stack:
                return term
            stack[-1][3].append(term)
        elif kinds[k] == "t":
            stack.append(_rule_at(args[k]))
        elif kinds[k] == "i":
            values.append(_int_at(args[k]))
        elif kinds[k] == "n":
            values.append(_name_at(args[k]))
        else:
            values.append(_formula_at(args[k], toks, spans))


def parse_proof_term(text: str) -> ProofTerm:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input")
    node, i, spans = _read(toks)
    if i != len(toks):
        raise ParseError("trailing input", toks[i][1])
    return _term_at(node, toks, spans)


# --- elaboration ----------------------------------------------------------


@dataclass
class _MEdge:
    src: tuple[str, str] | None
    tgt: tuple[str, str] | None
    formula: Formula


@dataclass
class Builder:
    vertices: dict[str, N.Vertex] = field(default_factory=dict)
    edges: dict[str, _MEdge] = field(default_factory=dict)
    boxes: dict[str, tuple[tuple[str, ...], set[str]]] = field(default_factory=dict)
    vn: int = 0
    en: int = 0
    fresh_n: int = 0

    def vtx(self, label: str, arity: int = 0) -> str:
        self.vn += 1
        vid = f"v{self.vn}"
        self.vertices[vid] = N.Vertex(vid, label, arity)
        return vid

    def edge(self, src, tgt, formula: Formula) -> str:
        self.en += 1
        eid = f"e{self.en}"
        self.edges[eid] = _MEdge(src, tgt, formula)
        return eid

    def fresh_atom(self, base: str) -> str:
        self.fresh_n += 1
        return f"{base}_{self.fresh_n}"

    def freeze(self, system: str) -> N.ProofNet:
        edges = {}
        for eid, e in self.edges.items():
            if e.src is None or e.tgt is None:
                raise ElaborationError(f"internal: dangling edge {eid}")
            edges[eid] = N.Edge(eid, e.src, e.tgt, e.formula)
        boxes = {pid: N.Box(pid, doors, frozenset(contents))
                 for pid, (doors, contents) in self.boxes.items()}
        return N.ProofNet(dict(self.vertices), edges, boxes, system)


@dataclass
class Judgement:
    premises: list[str]  # edge ids, dangling at src
    concl: str  # edge id, dangling at tgt


def _prem(j: Judgement, i: int, rule: str) -> str:
    if not 1 <= i <= len(j.premises):
        raise ElaborationError(
            f"{rule}: premise index {i} out of range 1..{len(j.premises)}")
    return j.premises[i - 1]


def _on_premise(b: Builder, p: Judgement, i: int, label: str, inner: str,
                outer: str, formula: Formula) -> Judgement:
    """Put a new vertex on premise i: the old premise edge leaves it at port
    `inner`, and a new premise edge of `formula` enters it at `outer`."""
    v = b.vtx(label)
    b.edges[p.premises[i - 1]].src = (v, inner)
    premises = list(p.premises)
    premises[i - 1] = b.edge(None, (v, outer), formula)
    return Judgement(premises, p.concl)


# Each rule below joins the judgements of its subterms.  `marks` holds the
# vertex and edge counters as they were when the term was reached, so the
# ids handed out since then are exactly those its subterms own.


def _ax(b, t, marks):
    e = b.edge(None, None, t.formula)
    return Judgement([e], e)


def _cut(b, t, marks, p, q):
    pe = _prem(q, t.premise, "cut")
    pf = b.edges[pe].formula
    cf = b.edges[p.concl].formula
    if not feq(cf, pf):
        raise ElaborationError(
            f"cut: conclusion {cf} does not match premise {t.premise} ({pf})")
    # merge p's conclusion edge with q's premise edge
    b.edges[p.concl].tgt = b.edges[pe].tgt
    del b.edges[pe]
    concl = p.concl if q.concl == pe else q.concl
    idx = t.premise - 1
    return Judgement(q.premises[:idx] + p.premises + q.premises[idx + 1:], concl)


def _weak(b, t, marks, p):
    w = b.vtx(N.WEAK)
    e = b.edge(None, (w, "edge"), Bang(t.formula))
    return Judgement(p.premises + [e], p.concl)


def _contr(b, t, marks, p):
    if t.i >= t.j:
        raise ElaborationError("contr: indices must satisfy i < j")
    ei = _prem(p, t.i, "contr")
    ej = _prem(p, t.j, "contr")
    fi, fj = b.edges[ei].formula, b.edges[ej].formula
    if not feq(fi, fj) or not isinstance(fi, Bang):
        raise ElaborationError(
            f"contr: premises {t.i} and {t.j} must be equal banged formulas")
    x = b.vtx(N.CONTR)
    b.edges[ei].src = (x, "left")
    b.edges[ej].src = (x, "right")
    e = b.edge(None, (x, "merged"), fi)
    premises = [pe for k, pe in enumerate(p.premises) if k != t.j - 1]
    premises[t.i - 1] = e
    return Judgement(premises, p.concl)


def _rlolli(b, t, marks, p):
    ei = _prem(p, t.i, "rlolli")
    v = b.vtx(N.RLOLLI)
    fi = b.edges[ei].formula
    cf = b.edges[p.concl].formula
    b.edges[ei].src = (v, "bound")
    b.edges[p.concl].tgt = (v, "body")
    e = b.edge((v, "concl"), None, Lolli(fi, cf))
    return Judgement([pe for k, pe in enumerate(p.premises) if k != t.i - 1], e)


def _llolli(b, t, marks, p, q):
    eh = _prem(q, t.hook, "llolli")
    w = b.vtx(N.LLOLLI)
    af = b.edges[p.concl].formula
    bf = b.edges[eh].formula
    b.edges[p.concl].tgt = (w, "arg")
    b.edges[eh].src = (w, "res")
    e = b.edge(None, (w, "fun"), Lolli(af, bf))
    premises = (p.premises
                + [pe for k, pe in enumerate(q.premises) if k != t.hook - 1]
                + [e])
    return Judgement(premises, q.concl)


def _rtensor(b, t, marks, p, q):
    v = b.vtx(N.RTENSOR)
    lf = b.edges[p.concl].formula
    rf = b.edges[q.concl].formula
    b.edges[p.concl].tgt = (v, "left")
    b.edges[q.concl].tgt = (v, "right")
    e = b.edge((v, "concl"), None, Tensor(lf, rf))
    return Judgement(p.premises + q.premises, e)


def _ltensor(b, t, marks, p):
    if t.i == t.j:
        raise ElaborationError("ltensor: indices must differ")
    ei = _prem(p, t.i, "ltensor")
    ej = _prem(p, t.j, "ltensor")
    v = b.vtx(N.LTENSOR)
    fi, fj = b.edges[ei].formula, b.edges[ej].formula
    b.edges[ei].src = (v, "left")
    b.edges[ej].src = (v, "right")
    e = b.edge(None, (v, "pair"), Tensor(fi, fj))
    lo, hi = min(t.i, t.j), max(t.i, t.j)
    premises = [pe for k, pe in enumerate(p.premises) if k != hi - 1]
    premises[lo - 1] = e
    return Judgement(premises, p.concl)


def _promote(b, t, marks, p):
    sec = isinstance(t, SPromote)
    if sec:
        bad = [i for i in t.bang_indices if not 1 <= i <= len(p.premises)]
        if bad:
            raise ElaborationError(f"spromote: premise index {bad[0]} out of range")
    contents = {f"v{k}" for k in range(marks[0] + 1, b.vn + 1)}
    r = b.vtx(N.RSEC if sec else N.RBANG)
    cf = b.edges[p.concl].formula
    b.edges[p.concl].tgt = (r, "inner")
    e = b.edge((r, "principal"), None, (Sec if sec else Bang)(cf))
    doors = []
    premises = []
    for k, pe in enumerate(p.premises):
        door = b.vtx(N.LSEC if sec else N.LBANG)
        doors.append(door)
        fk = b.edges[pe].formula
        b.edges[pe].src = (door, "inner")
        outer = Bang(fk) if (not sec or (k + 1) in t.bang_indices) else Sec(fk)
        premises.append(b.edge(None, (door, "outer"), outer))
    b.boxes[r] = (tuple(doors), contents)
    return Judgement(premises, e)


def _derelict(b, t, marks, p):
    fi = b.edges[_prem(p, t.i, "derelict")].formula
    return _on_premise(b, p, t.i, N.DER, "plain", "bang", Bang(fi))


def _dig(b, t, marks, p):
    fi = b.edges[_prem(p, t.i, "dig")].formula
    if not (isinstance(fi, Bang) and isinstance(fi.body, Bang)):
        raise ElaborationError(f"dig: premise {t.i} must be doubly banged, got {fi}")
    return _on_premise(b, p, t.i, N.DIG, "dbang", "bang", fi.body)


def _rforall(b, t, marks, p):
    for k, pe in enumerate(p.premises):
        if t.binder in free_atoms(b.edges[pe].formula):
            raise ElaborationError(
                f"rforall: binder {t.binder} occurs free in premise {k + 1}")
    fresh = b.fresh_atom(t.binder)
    memo: dict = {}  # the edges' formulas share subformulas
    for k in range(marks[1] + 1, b.en + 1):
        e = b.edges.get(f"e{k}")  # None when a cut merged it away
        if e is not None:
            e.formula = substitute(e.formula, t.binder, Atom(fresh), memo)
    v = b.vtx(N.RFORALL)
    cf = b.edges[p.concl].formula
    b.edges[p.concl].tgt = (v, "prem")
    e = b.edge((v, "concl"), None, Forall(fresh, cf))
    return Judgement(list(p.premises), e)


def _lforall(b, t, marks, p):
    ei = _prem(p, t.i, "lforall")
    q = t.quantified
    if not isinstance(q, Forall):
        raise ElaborationError(f"lforall: {q} is not a quantified formula")
    want = substitute(q.body, q.binder, t.witness)
    fi = b.edges[ei].formula
    if not feq(want, fi):
        raise ElaborationError(f"lforall: premise {t.i} is {fi}, expected {want}")
    return _on_premise(b, p, t.i, N.LFORALL, "inst", "fa", q)


def _mux(b, t, marks, p):
    if not t.indices:
        if t.formula is None:
            raise ElaborationError("mux: arity 0 needs an explicit formula")
        m = b.vtx(N.MUX, 0)
        e = b.edge(None, (m, "merged"), Bang(t.formula))
        return Judgement(p.premises + [e], p.concl)
    if len(set(t.indices)) != len(t.indices):
        raise ElaborationError("mux: duplicate premise indices")
    es = [_prem(p, i, "mux") for i in t.indices]
    fs = [b.edges[x].formula for x in es]
    if any(not feq(f, fs[0]) for f in fs):
        raise ElaborationError("mux: contracted premises must share a formula")
    m = b.vtx(N.MUX, len(es))
    for rank, eid in enumerate(es, start=1):
        b.edges[eid].src = (m, f"split{rank}")
    e = b.edge(None, (m, "merged"), Bang(fs[0]))
    drop = {i - 1 for i in t.indices}
    lo = min(t.indices) - 1
    premises = []
    for k, pe in enumerate(p.premises):
        if k == lo:
            premises.append(e)
        elif k not in drop:
            premises.append(pe)
    return Judgement(premises, p.concl)


# proof term class -> (its subterm fields in elaboration order, its rule)
_JOINS = {
    Ax: ((), _ax), Cut: (("left", "right"), _cut), Weak: (("sub",), _weak),
    Contr: (("sub",), _contr), RLolli: (("sub",), _rlolli),
    LLolli: (("left", "right"), _llolli), RTensor: (("left", "right"), _rtensor),
    LTensor: (("sub",), _ltensor), Promote: (("sub",), _promote),
    SPromote: (("sub",), _promote), Derelict: (("sub",), _derelict),
    Dig: (("sub",), _dig), RForall: (("sub",), _rforall),
    LForall: (("sub",), _lforall), Mux: (("sub",), _mux),
}


def _elab(term: ProofTerm, b: Builder) -> Judgement:
    """Elaborate a term post-order on an explicit stack: its subterms in
    field order, then the rule that joins them, so ids are handed out in
    the order of a left-to-right recursive walk."""
    done: list[Judgement] = []  # judgements of the subterms joined so far
    # (term, None) to reach a term, (term, marks) to join it
    todo: list[tuple] = [(term, None)]
    while todo:
        t, marks = todo.pop()
        if type(t) not in _JOINS:
            raise ElaborationError(f"unknown proof term {t!r}")
        fields, join = _JOINS[type(t)]
        if marks is None:
            todo.append((t, (b.vn, b.en)))
            todo += ((getattr(t, f), None) for f in reversed(fields))
            continue
        n = len(done) - len(fields)
        done[n:] = [join(b, t, marks, *done[n:])]
    return done[0]


def elaborate(term: ProofTerm, system: str = "MELL") -> N.ProofNet:
    b = Builder()
    j = _elab(term, b)
    for pe in j.premises:
        pv = b.vtx(N.PREM)
        b.edges[pe].src = (pv, "edge")
    cv = b.vtx(N.CONCL)
    b.edges[j.concl].tgt = (cv, "edge")
    return b.freeze(system)


def sequent_of(term: ProofTerm) -> tuple[list[Formula], Formula]:
    """Premise formulas and conclusion formula, without building P/C wrappers."""
    b = Builder()
    j = _elab(term, b)
    return ([b.edges[pe].formula for pe in j.premises],
            b.edges[j.concl].formula)
