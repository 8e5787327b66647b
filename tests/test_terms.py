import copy
import re
import sys
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from pnlab import net as N
from pnlab.formulas import (
    Atom,
    Bang,
    Forall,
    Lolli,
    Sec,
    Tensor,
    feq,
    free_atoms,
    parse_formula,
    substitute,
)
from pnlab.net import CONTR, DER, RLOLLI, WEAK, print_net, validate
from pnlab.terms import (
    Ax,
    Builder,
    Contr,
    Cut,
    Derelict,
    Dig,
    ElaborationError,
    LForall,
    LLolli,
    LTensor,
    Mux,
    ParseError,
    Promote,
    RForall,
    RLolli,
    RTensor,
    SPromote,
    Weak,
    elaborate,
    parse_proof_term,
    sequent_of,
)

A = Atom("a")


def test_parse_axiom():
    assert parse_proof_term("(ax a)") == Ax(A)


def test_parse_rlolli_over_axiom():
    assert parse_proof_term("(rlolli (ax a) 1)") == RLolli(Ax(A), 1)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_proof_term("(rlolli")
    assert "offset" in str(err.value)


def test_parse_unknown_rule():
    with pytest.raises(ParseError) as err:
        parse_proof_term("(frob (ax a))")
    assert "unknown rule" in str(err.value)


def test_parse_arity_error():
    with pytest.raises(ParseError) as err:
        parse_proof_term("(cut (ax a) (ax a))")
    assert "takes" in str(err.value)


def test_axiom_elaborates_to_two_vertex_net():
    net = elaborate(Ax(A))
    assert validate(net) == []
    assert net.size() == 2
    [e] = list(net.edges.values())
    assert e.formula == A


def test_rlolli_axiom_loop():
    net = elaborate(RLolli(Ax(A), 1))
    assert validate(net) == []
    assert net.size() == 2  # one rlolli vertex plus the conclusion
    labels = sorted(v.label for v in net.vertices.values())
    assert labels == ["concl", RLOLLI]
    loop = [e for e in net.edges.values() if e.src[0] == e.tgt[0]]
    assert len(loop) == 1


def test_promote_wraps_in_box_with_one_door():
    net = elaborate(Promote(Ax(A)))
    assert validate(net) == []
    [be] = net.box_edges()
    assert net.premise_count(be) == 1
    assert net.edges[be].formula == Bang(A)


def test_sequents():
    prem, concl = sequent_of(RLolli(Ax(A), 1))
    assert prem == [] and concl == Lolli(A, A)
    prem, concl = sequent_of(Weak(Ax(A), A))
    assert prem == [A, Bang(A)] and concl == A
    prem, concl = sequent_of(LLolli(Ax(A), Ax(A), 1))
    assert prem == [A, Lolli(A, A)] and concl == A


def test_cut_formula_mismatch_is_reported():
    with pytest.raises(ElaborationError) as err:
        elaborate(Cut(Ax(A), Derelict(Ax(A), 1), 1))
    assert "cut" in str(err.value)


def test_contr_requires_banged_equal_premises():
    with pytest.raises(ElaborationError):
        elaborate(Contr(LLolli(Ax(A), Ax(A), 1), 1, 2))


def test_premise_index_out_of_range():
    with pytest.raises(ElaborationError) as err:
        elaborate(Derelict(Ax(A), 2))
    assert "out of range" in str(err.value)


def test_rforall_side_condition():
    with pytest.raises(ElaborationError) as err:
        elaborate(RForall(Derelict(Ax(A), 1), "a"))
    assert "occurs free" in str(err.value)


def test_weak_and_contr_structure():
    net = elaborate(Contr(Weak(Weak(Ax(A), A), A), 2, 3))
    assert validate(net) == []
    labels = [v.label for v in net.vertices.values()]
    assert labels.count(WEAK) == 2 and labels.count(CONTR) == 1


def test_dereliction_structure():
    net = elaborate(Derelict(Ax(A), 1))
    assert validate(net) == []
    assert [v.label for v in net.vertices_sorted()].count(DER) == 1


def test_cut_against_axiom_is_identity():
    left = elaborate(Cut(RLolli(Ax(A), 1), Ax(Lolli(A, A)), 1))
    right = elaborate(RLolli(Ax(A), 1))
    from pnlab.rewrite import canonical_key

    assert canonical_key(left) == canonical_key(right)


def test_parse_elaborate_total_on_grammar(all_nets):
    # parse . print round-trips through the term grammar for a sample
    text = "(cut (promote (ax a)) (derelict (ax a) 1) 1)"
    net = elaborate(parse_proof_term(text))
    assert validate(net) == []


# --- the reader and elaborator against the recursive ones they replace -------
#
# parse_proof_term and elaborate once recursed on the depth of the term; they
# are copied below as references.  The passes on explicit stacks must give
# equal terms and nets, and the same error texts.

_REF_SEXP_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")


def ref_tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _REF_SEXP_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad input {text[pos:20]!r}", pos)
            break
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


def ref_read(toks, i):
    if i >= len(toks):
        raise ParseError("unexpected end of input")
    tok, pos = toks[i]
    if tok == "(":
        items = []
        i += 1
        while True:
            if i >= len(toks):
                raise ParseError("missing )", pos)
            if toks[i][0] == ")":
                return (items, pos), i + 1
            node, i = ref_read(toks, i)
            items.append(node)
    if tok == ")":
        raise ParseError("unexpected )", pos)
    return (tok, pos), i + 1


def ref_render_formula(node) -> str:
    val = node[0]
    if isinstance(val, str):
        return val
    return "(" + " ".join(ref_render_formula(x) for x in val) + ")"


def ref_formula_at(node):
    try:
        return parse_formula(ref_render_formula(node))
    except ValueError as exc:
        raise ParseError(f"bad formula: {exc}", node[1]) from exc


def ref_int_at(node) -> int:
    val, pos = node
    if not isinstance(val, str) or not val.isdigit():
        raise ParseError(f"expected a premise index, found {val!r}", pos)
    return int(val)


def ref_name_at(node) -> str:
    val, pos = node
    if not isinstance(val, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", val):
        raise ParseError(f"expected a name, found {val!r}", pos)
    return val


REF_ARITIES = {
    "ax": (1, 1), "cut": (3, 3), "weak": (2, 2), "contr": (3, 3),
    "rlolli": (2, 2), "llolli": (3, 3), "rtensor": (2, 2), "ltensor": (3, 3),
    "promote": (1, 1), "derelict": (2, 2), "dig": (2, 2),
    "rforall": (2, 2), "lforall": (4, 4), "mux": (1, None), "spromote": (1, None),
}


def ref_term_at(node):
    val, pos = node
    if isinstance(val, str):
        raise ParseError(f"expected a proof term, found {val!r}", pos)
    if not val or not isinstance(val[0][0], str):
        raise ParseError("expected a rule name", pos)
    head, hpos = val[0]
    args = val[1:]
    if head not in REF_ARITIES:
        raise ParseError(f"unknown rule name {head!r}", hpos)
    lo, hi = REF_ARITIES[head]
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise ParseError(f"rule {head} takes {lo} argument(s), got {len(args)}", hpos)
    if head == "ax":
        return Ax(ref_formula_at(args[0]))
    if head == "cut":
        return Cut(ref_term_at(args[0]), ref_term_at(args[1]), ref_int_at(args[2]))
    if head == "weak":
        return Weak(ref_term_at(args[0]), ref_formula_at(args[1]))
    if head == "contr":
        return Contr(ref_term_at(args[0]), ref_int_at(args[1]), ref_int_at(args[2]))
    if head == "rlolli":
        return RLolli(ref_term_at(args[0]), ref_int_at(args[1]))
    if head == "llolli":
        return LLolli(ref_term_at(args[0]), ref_term_at(args[1]), ref_int_at(args[2]))
    if head == "rtensor":
        return RTensor(ref_term_at(args[0]), ref_term_at(args[1]))
    if head == "ltensor":
        return LTensor(ref_term_at(args[0]), ref_int_at(args[1]), ref_int_at(args[2]))
    if head == "promote":
        return Promote(ref_term_at(args[0]))
    if head == "derelict":
        return Derelict(ref_term_at(args[0]), ref_int_at(args[1]))
    if head == "dig":
        return Dig(ref_term_at(args[0]), ref_int_at(args[1]))
    if head == "rforall":
        return RForall(ref_term_at(args[0]), ref_name_at(args[1]))
    if head == "lforall":
        return LForall(ref_term_at(args[0]), ref_int_at(args[1]),
                       ref_formula_at(args[2]), ref_formula_at(args[3]))
    if head == "mux":
        sub = ref_term_at(args[0])
        rest = args[1:]
        if len(rest) == 1 and isinstance(rest[0][0], str) and not rest[0][0].isdigit():
            return Mux(sub, (), ref_formula_at(rest[0]))
        return Mux(sub, tuple(ref_int_at(a) for a in rest))
    if head == "spromote":
        return SPromote(ref_term_at(args[0]), tuple(ref_int_at(a) for a in args[1:]))
    raise ParseError(f"unknown rule {head!r}", hpos)


def ref_parse_proof_term(text: str):
    toks = ref_tokenize(text)
    if not toks:
        raise ParseError("empty input")
    node, i = ref_read(toks, 0)
    if i != len(toks):
        raise ParseError("trailing input", toks[i][1])
    return ref_term_at(node)


@dataclass
class RefJudgement:
    premises: list
    concl: str
    own_vertices: set
    own_edges: set


def ref_prem(b, j, i: int, rule: str) -> str:
    if not 1 <= i <= len(j.premises):
        raise ElaborationError(
            f"{rule}: premise index {i} out of range 1..{len(j.premises)}")
    return j.premises[i - 1]


def ref_elab(term, b):
    J = RefJudgement
    if isinstance(term, Ax):
        e = b.edge(None, None, term.formula)
        return J([e], e, set(), {e})

    if isinstance(term, Cut):
        p = ref_elab(term.left, b)
        q = ref_elab(term.right, b)
        pe = ref_prem(b, q, term.premise, "cut")
        pf = b.edges[pe].formula
        cf = b.edges[p.concl].formula
        if not feq(cf, pf):
            raise ElaborationError(
                f"cut: conclusion {cf} does not match premise {term.premise} ({pf})")
        b.edges[p.concl].tgt = b.edges[pe].tgt
        del b.edges[pe]
        q.own_edges.discard(pe)
        concl = p.concl if q.concl == pe else q.concl
        idx = term.premise - 1
        premises = q.premises[:idx] + p.premises + q.premises[idx + 1:]
        return J(premises, concl, p.own_vertices | q.own_vertices,
                 p.own_edges | q.own_edges)

    if isinstance(term, Weak):
        p = ref_elab(term.sub, b)
        w = b.vtx(N.WEAK)
        e = b.edge(None, (w, "edge"), Bang(term.formula))
        return J(p.premises + [e], p.concl,
                 p.own_vertices | {w}, p.own_edges | {e})

    if isinstance(term, Contr):
        p = ref_elab(term.sub, b)
        if term.i >= term.j:
            raise ElaborationError("contr: indices must satisfy i < j")
        ei = ref_prem(b, p, term.i, "contr")
        ej = ref_prem(b, p, term.j, "contr")
        fi, fj = b.edges[ei].formula, b.edges[ej].formula
        if not feq(fi, fj) or not isinstance(fi, Bang):
            raise ElaborationError(
                f"contr: premises {term.i} and {term.j} must be equal banged formulas")
        x = b.vtx(N.CONTR)
        b.edges[ei].src = (x, "left")
        b.edges[ej].src = (x, "right")
        e = b.edge(None, (x, "merged"), fi)
        premises = [pe for k, pe in enumerate(p.premises) if k != term.j - 1]
        premises[term.i - 1] = e
        return J(premises, p.concl, p.own_vertices | {x}, p.own_edges | {e})

    if isinstance(term, RLolli):
        p = ref_elab(term.sub, b)
        ei = ref_prem(b, p, term.i, "rlolli")
        v = b.vtx(N.RLOLLI)
        fi = b.edges[ei].formula
        cf = b.edges[p.concl].formula
        b.edges[ei].src = (v, "bound")
        b.edges[p.concl].tgt = (v, "body")
        e = b.edge((v, "concl"), None, Lolli(fi, cf))
        premises = [pe for k, pe in enumerate(p.premises) if k != term.i - 1]
        return J(premises, e, p.own_vertices | {v}, p.own_edges | {e})

    if isinstance(term, LLolli):
        p = ref_elab(term.left, b)
        q = ref_elab(term.right, b)
        eh = ref_prem(b, q, term.hook, "llolli")
        w = b.vtx(N.LLOLLI)
        af = b.edges[p.concl].formula
        bf = b.edges[eh].formula
        b.edges[p.concl].tgt = (w, "arg")
        b.edges[eh].src = (w, "res")
        e = b.edge(None, (w, "fun"), Lolli(af, bf))
        premises = (p.premises
                    + [pe for k, pe in enumerate(q.premises) if k != term.hook - 1]
                    + [e])
        return J(premises, q.concl, p.own_vertices | q.own_vertices | {w},
                 p.own_edges | q.own_edges | {e})

    if isinstance(term, RTensor):
        p = ref_elab(term.left, b)
        q = ref_elab(term.right, b)
        v = b.vtx(N.RTENSOR)
        lf = b.edges[p.concl].formula
        rf = b.edges[q.concl].formula
        b.edges[p.concl].tgt = (v, "left")
        b.edges[q.concl].tgt = (v, "right")
        e = b.edge((v, "concl"), None, Tensor(lf, rf))
        return J(p.premises + q.premises, e,
                 p.own_vertices | q.own_vertices | {v},
                 p.own_edges | q.own_edges | {e})

    if isinstance(term, LTensor):
        p = ref_elab(term.sub, b)
        if term.i == term.j:
            raise ElaborationError("ltensor: indices must differ")
        ei = ref_prem(b, p, term.i, "ltensor")
        ej = ref_prem(b, p, term.j, "ltensor")
        v = b.vtx(N.LTENSOR)
        fi, fj = b.edges[ei].formula, b.edges[ej].formula
        b.edges[ei].src = (v, "left")
        b.edges[ej].src = (v, "right")
        e = b.edge(None, (v, "pair"), Tensor(fi, fj))
        lo, hi = min(term.i, term.j), max(term.i, term.j)
        premises = [pe for k, pe in enumerate(p.premises) if k != hi - 1]
        premises[lo - 1] = e
        return J(premises, p.concl, p.own_vertices | {v}, p.own_edges | {e})

    if isinstance(term, (Promote, SPromote)):
        p = ref_elab(term.sub, b)
        sec = isinstance(term, SPromote)
        if sec:
            bad = [i for i in term.bang_indices if not 1 <= i <= len(p.premises)]
            if bad:
                raise ElaborationError(f"spromote: premise index {bad[0]} out of range")
        r = b.vtx(N.RSEC if sec else N.RBANG)
        cf = b.edges[p.concl].formula
        b.edges[p.concl].tgt = (r, "inner")
        wrap = Sec if sec else Bang
        e = b.edge((r, "principal"), None, wrap(cf))
        doors = []
        new_premises = []
        new_edges = {e}
        for k, pe in enumerate(p.premises):
            door = b.vtx(N.LSEC if sec else N.LBANG)
            doors.append(door)
            fk = b.edges[pe].formula
            b.edges[pe].src = (door, "inner")
            outer = Bang(fk) if (not sec or (k + 1) in term.bang_indices) else Sec(fk)
            oe = b.edge(None, (door, "outer"), outer)
            new_premises.append(oe)
            new_edges.add(oe)
        b.boxes[r] = (tuple(doors), set(p.own_vertices))
        return J(new_premises, e, p.own_vertices | {r, *doors},
                 p.own_edges | new_edges)

    if isinstance(term, Derelict):
        p = ref_elab(term.sub, b)
        ei = ref_prem(b, p, term.i, "derelict")
        d = b.vtx(N.DER)
        fi = b.edges[ei].formula
        b.edges[ei].src = (d, "plain")
        e = b.edge(None, (d, "bang"), Bang(fi))
        premises = list(p.premises)
        premises[term.i - 1] = e
        return J(premises, p.concl, p.own_vertices | {d}, p.own_edges | {e})

    if isinstance(term, Dig):
        p = ref_elab(term.sub, b)
        ei = ref_prem(b, p, term.i, "dig")
        fi = b.edges[ei].formula
        if not (isinstance(fi, Bang) and isinstance(fi.body, Bang)):
            raise ElaborationError(f"dig: premise {term.i} must be doubly banged, got {fi}")
        n = b.vtx(N.DIG)
        b.edges[ei].src = (n, "dbang")
        e = b.edge(None, (n, "bang"), fi.body)
        premises = list(p.premises)
        premises[term.i - 1] = e
        return J(premises, p.concl, p.own_vertices | {n}, p.own_edges | {e})

    if isinstance(term, RForall):
        p = ref_elab(term.sub, b)
        for k, pe in enumerate(p.premises):
            if term.binder in free_atoms(b.edges[pe].formula):
                raise ElaborationError(
                    f"rforall: binder {term.binder} occurs free in premise {k + 1}")
        fresh = b.fresh_atom(term.binder)
        for eid in p.own_edges:
            if eid in b.edges:
                b.edges[eid].formula = substitute(
                    b.edges[eid].formula, term.binder, Atom(fresh))
        v = b.vtx(N.RFORALL)
        cf = b.edges[p.concl].formula
        b.edges[p.concl].tgt = (v, "prem")
        e = b.edge((v, "concl"), None, Forall(fresh, cf))
        return J(list(p.premises), e, p.own_vertices | {v}, p.own_edges | {e})

    if isinstance(term, LForall):
        p = ref_elab(term.sub, b)
        ei = ref_prem(b, p, term.i, "lforall")
        q = term.quantified
        if not isinstance(q, Forall):
            raise ElaborationError(f"lforall: {q} is not a quantified formula")
        want = substitute(q.body, q.binder, term.witness)
        fi = b.edges[ei].formula
        if not feq(want, fi):
            raise ElaborationError(
                f"lforall: premise {term.i} is {fi}, expected {want}")
        v = b.vtx(N.LFORALL)
        b.edges[ei].src = (v, "inst")
        e = b.edge(None, (v, "fa"), q)
        premises = list(p.premises)
        premises[term.i - 1] = e
        return J(premises, p.concl, p.own_vertices | {v}, p.own_edges | {e})

    if isinstance(term, Mux):
        p = ref_elab(term.sub, b)
        if not term.indices:
            if term.formula is None:
                raise ElaborationError("mux: arity 0 needs an explicit formula")
            m = b.vtx(N.MUX, 0)
            e = b.edge(None, (m, "merged"), Bang(term.formula))
            return J(p.premises + [e], p.concl,
                     p.own_vertices | {m}, p.own_edges | {e})
        if len(set(term.indices)) != len(term.indices):
            raise ElaborationError("mux: duplicate premise indices")
        es = [ref_prem(b, p, i, "mux") for i in term.indices]
        fs = [b.edges[x].formula for x in es]
        if any(not feq(f, fs[0]) for f in fs):
            raise ElaborationError("mux: contracted premises must share a formula")
        m = b.vtx(N.MUX, len(es))
        for rank, eid in enumerate(es, start=1):
            b.edges[eid].src = (m, f"split{rank}")
        e = b.edge(None, (m, "merged"), Bang(fs[0]))
        drop = {i - 1 for i in term.indices}
        lo = min(term.indices) - 1
        premises = []
        for k, pe in enumerate(p.premises):
            if k == lo:
                premises.append(e)
            elif k not in drop:
                premises.append(pe)
        return J(premises, p.concl, p.own_vertices | {m}, p.own_edges | {e})

    raise ElaborationError(f"unknown proof term {term!r}")


def ref_elaborate(term, system: str = "MELL"):
    b = Builder()
    j = ref_elab(term, b)
    for pe in j.premises:
        pv = b.vtx(N.PREM)
        b.edges[pe].src = (pv, "edge")
    cv = b.vtx(N.CONCL)
    b.edges[j.concl].tgt = (cv, "edge")
    return b.freeze(system)


def outcome(fn, *args):
    """("ok", value) or (the error's class name, its text)."""
    try:
        return ("ok", fn(*args))
    except (ParseError, ElaborationError) as exc:
        return (type(exc).__name__, str(exc))


def net_text(term):
    net = elaborate(term)
    return print_net(net), sorted((p, b.doors, sorted(b.contents))
                                  for p, b in net.boxes.items())


def ref_net_text(term):
    net = ref_elaborate(term)
    return print_net(net), sorted((p, b.doors, sorted(b.contents))
                                  for p, b in net.boxes.items())


def assert_same_as_reference(text):
    got = outcome(parse_proof_term, text)
    assert got == outcome(ref_parse_proof_term, text)
    if got[0] == "ok":
        assert outcome(net_text, got[1]) == outcome(ref_net_text, got[1])


_FORMULAS = ["a", "b", "!a", "!!a", "(a -o a)", "(!a -o a)", "(a * b)",
             "(all x. x -o x)", "(all b. b -o b)", "(sec a)", "((a))",
             "(a -o)", "( a  -o  b )", "(() a)", "$", "a.b", "all"]
_INDICES = ["0", "1", "2", "3", "4"]
_NAMES = ["a", "b", "x", "1x", "(a)"]
_formula = st.sampled_from(_FORMULAS)
_index = st.sampled_from(_INDICES)


def _rule(name, *parts):
    return st.builds(lambda *xs: "(" + " ".join((name,) + xs) + ")", *parts)


def _terms(t):
    tail = st.lists(_index, max_size=3).map(" ".join)
    return st.one_of(
        _rule("cut", t, t, _index), _rule("weak", t, _formula),
        _rule("contr", t, _index, _index), _rule("rlolli", t, _index),
        _rule("llolli", t, t, _index), _rule("rtensor", t, t),
        _rule("ltensor", t, _index, _index), _rule("promote", t),
        _rule("derelict", t, _index), _rule("dig", t, _index),
        _rule("rforall", t, st.sampled_from(_NAMES)),
        _rule("lforall", t, _index, _formula, _formula),
        _rule("mux", t, st.one_of(tail, _formula)),
        _rule("spromote", t, tail))


_well_formed = st.recursive(_rule("ax", _formula), _terms, max_leaves=6)
_gaps = st.sampled_from(["", " ", "  ", "\n"])
_pieces = st.sampled_from(["(", ")", "(", ")", "ax", "cut", "weak", "contr",
                           "derelict", "dig", "promote", "mux", "spromote",
                           "rforall", "lforall", "llolli", "frob", "a", "b",
                           "1", "2", "-o", "!", "all", ".", "$", "x1"])
_soup = st.builds(lambda ps, tail: "".join(g + p for g, p in ps) + tail,
                  st.lists(st.tuples(_gaps, _pieces), max_size=16), _gaps)


@settings(max_examples=600, deadline=None)
@given(_well_formed)
def test_well_formed_terms_match_the_recursive_passes(text):
    assert_same_as_reference(text)


@settings(max_examples=600, deadline=None)
@given(_soup)
def test_token_soup_matches_the_recursive_passes(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize("text", [
    "", "   ", ")", "(", "(ax a", "((ax a)", "(ax a))", "(ax a) (ax b)", "a",
    "()", "(())", "((ax a) a)", "(ax)", "(ax a b)", "(frob (ax a))",
    "(derelict (ax a) (1))", "(derelict (ax a) x)", "(rforall (ax a) (b))",
    "(mux (ax !a) a)", "(mux (ax !a) (a))", "(mux (ax a) 1 a)",
    "(ax (a -o))", "(ax ( a\t-o\nb ))", "(cut (frob) (ax a) x)",
    "(cut (ax a) (ax a) x)", "(spromote (ax a) 2)", "(dig (ax !a) 1)",
    "(contr (weak (weak (ax a) a) a) 3 2)", "(ltensor (ax a) 1 1)",
    "(lforall (ax a) 1 a a)", "(lforall (ax a) 1 (all b. b) b)",
    "(mux (weak (weak (ax a) a) b) 2 3)", "(mux (weak (ax a) a) 2 2)",
    "(mux (ax a) 1)", "(rlolli (ax a) 2)", "(cut (ax a) (ax b) 1)",
    "(rforall (derelict (ax a) 1) a)",
    "(rforall (cut (rlolli (ax a) 1) (ax (a -o a)) 1) a)",
    "(promote (cut (promote (ax a)) (derelict (ax a) 1) 1))",
    "(spromote (weak (weak (ax a) a) b) 1 3)",
])
def test_chosen_terms_match_the_recursive_passes(text):
    assert_same_as_reference(text)


def test_passes_need_no_frame_per_level():
    deep = "(derelict " * 3000 + "(ax a)" + " 1)" * 3000
    term = parse_proof_term(deep)
    assert validate(elaborate(term)) == []
    [prem], concl = sequent_of(term)
    assert feq(prem, parse_formula("!" * 3000 + "a")) and concl == A
    assert parse_proof_term("(ax " + "(" * 3000 + "a" + ")" * 3000 + ")") \
        == Ax(A)
    with pytest.raises(ParseError, match="missing \\) \\(at offset 2999\\)"):
        parse_proof_term("(" * 3000 + "ax a")


def test_deep_proof_terms_compare_hash_and_repr_without_a_frame_per_level():
    """Two terms 3,000 derelictions deep, read apart, compared, hashed and
    written under a recursion limit 60 frames above the caller's depth."""
    deep = "(derelict " * 3000 + "(ax a)" + " 1)" * 3000
    term, twin = parse_proof_term(deep), parse_proof_term(deep)
    other = parse_proof_term("(derelict " * 2999 + "(ax a)" + " 1)" * 2999)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert term is not twin and term == twin and not term != twin
        assert term != other and other != term
        assert hash(term) == hash(twin) and {term: 1}[twin] == 1
        assert repr(term) == repr(twin)
        written = repr(term)
    finally:
        sys.setrecursionlimit(limit)
    assert written == ("Derelict(sub=" * 3000 + "Ax(formula=Atom(name='a'))"
                       + ", i=1)" * 3000)


def ref_repr(x):
    """The generated dataclass repr: the class and each field, recursively,
    and a list or tuple element by element."""
    if is_dataclass(x):
        return (f"{type(x).__qualname__}("
                + ", ".join(f"{fd.name}={ref_repr(getattr(x, fd.name))}"
                            for fd in fields(x)) + ")")
    if type(x) is list:
        return "[" + ", ".join(map(ref_repr, x)) + "]"
    if type(x) is tuple:
        return "(" + ", ".join(map(ref_repr, x)) + ("," if len(x) == 1 else "") + ")"
    return repr(x)


def test_corpus_trees_repr_as_the_generated_text(monkeypatch):
    """Every proof term and type the corpus and the fixtures of the light
    systems are built from, every formula on their edges and a run that
    branches are written as the recursive
    reference writes them, and equal their deep copies."""
    from pnlab import corpus
    from pnlab.machine import parse_context, run

    terms, types = [], []
    elab, read_type = corpus.elaborate, corpus.parse_type
    monkeypatch.setattr(corpus, "elaborate",
                        lambda t, **kw: (terms.append(t), elab(t, **kw))[1])
    monkeypatch.setattr(corpus, "parse_type",
                        lambda s: (types.append(read_type(s)), types[-1])[1])
    nets = [*corpus.full_corpus().values(), corpus.ell_fixture(),
            corpus.sll_fixture(), corpus.lll_fixture(), corpus.lll_sec_fixture()]
    formulas = [e.formula for net in nets for e in net.edges.values()]
    assert len(terms) > 60 and types
    assert any("Mux(" in repr(t) for t in terms)
    assert any("SPromote(" in repr(t) for t in terms)
    for x in terms + types + formulas:
        assert repr(x) == ref_repr(x)
        twin = copy.deepcopy(x)
        assert twin == x and hash(twin) == hash(x)
    net = elaborate(parse_proof_term(
        "(cut (promote (rtensor (ax a) (ax a))) "
        "(promote (rtensor (ax (a * a)) (ax a))) 1)"))
    start = parse_context(net, "concl / eps / e / -")
    result, twin = run(net, start), run(net, start)
    assert result.kind == "branch" and result.branches[0].kind == "branch"
    assert repr(result) == ref_repr(result)
    assert result == twin and not result != twin
    list(twin.outcomes())[-1].steps += 1
    assert result != twin
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


@pytest.mark.xfail(strict=True, reason="the elaborator compares formulas up "
                   "to renaming of bound atoms, validate structurally")
@pytest.mark.parametrize("text, system", [
    ("(contr (weak (weak (ax a) (all x. x)) (all y. y)) 2 3)", "MELL"),
    ("(mux (weak (weak (ax a) (all x. x)) (all y. y)) 2 3)", "SLL"),
    ("(cut (promote (ax (all x. x))) (derelict (ax (all y. y)) 1) 1)", "MELL"),
    ("(lforall (ax (all z. b -o z)) 1 (all a. all y. a -o y) b)", "MELL"),
])
def test_a_term_that_elaborates_validates(text, system):
    assert validate(elaborate(parse_proof_term(text), system=system)) == []


def test_rforall_over_a_deep_premise_needs_no_frame_per_level():
    """free_atoms and the renaming of the binder run on explicit stacks."""
    deep = "(derelict " * 3000 + "(ax a)" + " 1)" * 3000
    net = elaborate(parse_proof_term(f"(rforall {deep} b)"))
    assert validate(net) == []
    concl = net.edges[net.conclusion_edge()].formula
    assert isinstance(concl, Forall) and concl.body == A
    chain = parse_formula("(" * 3000 + "a -o b" + ")" * 3000)
    assert free_atoms(Forall("b", chain)) == {"a"}
