import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pnlab.formulas import Atom, Bang, Lolli, feq, parse_formula, same_tree
from pnlab.lam import (
    _LAM_TOKEN,
    App,
    Lam,
    LambdaError,
    TArrow,
    TAtom,
    Var,
    from_lambda,
    parse_lambda,
    parse_type,
    type_formula,
    typecheck,
)
from pnlab.net import CONTR, DER, RBANG, WEAK, print_net, validate
from pnlab.rewrite import normalize
from pnlab.terms import (
    Ax,
    Contr,
    Cut,
    Derelict,
    Dig,
    LLolli,
    Promote,
    RLolli,
    Weak,
    elaborate,
)


def test_parse_type():
    assert parse_type("t") == TAtom("t")
    assert parse_type("t -> u -> v") == TArrow(TAtom("t"), TArrow(TAtom("u"), TAtom("v")))
    assert parse_type("(t -> u) -> v") == TArrow(TArrow(TAtom("t"), TAtom("u")), TAtom("v"))


@pytest.mark.parametrize("text", ["t $ -> u", "t -> u;", "- > t", "t - u", "λ"])
def test_parse_type_rejects_stray_characters(text):
    with pytest.raises(LambdaError):
        parse_type(text)


def test_identity_translation():
    net = from_lambda(parse_lambda("\\x:t. x"))
    assert validate(net) == []
    concl = net.edges[net.conclusion_edge()].formula
    assert concl == Lolli(Bang(Atom("t")), Atom("t"))
    labels = [v.label for v in net.vertices.values()]
    assert labels.count(DER) == 1


def test_unused_binder_weakens():
    net = from_lambda(parse_lambda("\\x:t. y"), {"y": parse_type("u")})
    assert validate(net) == []
    labels = [v.label for v in net.vertices.values()]
    assert labels.count(WEAK) == 1


def test_one_box_per_application_one_der_per_occurrence():
    for text, sig, apps, occs in [
        ("(\\x:t. x) z", {"z": "t"}, 1, 2),
        ("(\\x:t. y x x) z", {"y": "t -> t -> u", "z": "t"}, 3, 4),
        ("\\f:t -> t. \\x:t. f (f x)", {}, 2, 3),
    ]:
        net = from_lambda(parse_lambda(text),
                          {k: parse_type(v) for k, v in sig.items()})
        assert validate(net) == []
        labels = [v.label for v in net.vertices.values()]
        assert labels.count(RBANG) == apps, text
        assert labels.count(DER) == occs, text


def test_shared_variable_contracts():
    net = from_lambda(parse_lambda("(\\x:t. y x x) z"),
                      {"y": parse_type("t -> t -> u"), "z": parse_type("t")})
    labels = [v.label for v in net.vertices.values()]
    assert labels.count(CONTR) == 1


def test_ill_typed_rejected():
    with pytest.raises(LambdaError):
        from_lambda(parse_lambda("x y"),
                    {"x": parse_type("t"), "y": parse_type("t")})
    with pytest.raises(LambdaError):
        from_lambda(parse_lambda("\\x:t. x x"))
    with pytest.raises(LambdaError):
        from_lambda(parse_lambda("y"))  # free variable without a signature


def test_typecheck():
    term = parse_lambda("\\x:t. y x")
    assert typecheck(term, {"y": parse_type("t -> u")}) == \
        TArrow(TAtom("t"), TAtom("u"))


def test_beta_redex_normalizes():
    net = from_lambda(parse_lambda("(\\x:t. x) z"), {"z": parse_type("t")})
    nf, trace = normalize(net)
    assert trace.status == "normal"
    assert nf.size() < net.size()
    assert validate(nf) == []


# --- the readers against the recursive-descent readers they replace ----------
#
# parse_type and parse_lambda once recursed on the nesting depth of their
# text; they are copied below as references.  The readers on explicit stacks
# must give equal values and the same error texts.


def ref_parse_type(text):
    toks = re.findall(r"->|\(|\)|[A-Za-z_][A-Za-z0-9_]*|\S", text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat(t=None):
        cur = peek()
        if cur is None or (t is not None and cur != t):
            raise LambdaError(f"bad type {text!r}: expected {t or 'token'}, got {cur!r}")
        pos[0] += 1
        return cur

    def ty():
        left = atom()
        if peek() == "->":
            eat()
            return TArrow(left, ty())
        return left

    def atom():
        if peek() == "(":
            eat()
            t = ty()
            eat(")")
            return t
        name = eat()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise LambdaError(f"bad type token {name!r}")
        return TAtom(name)

    t = ty()
    if peek() is not None:
        raise LambdaError(f"trailing type input in {text!r}")
    return t


def ref_parse_lambda(text):
    toks = []
    p = 0
    while p < len(text):
        m = _LAM_TOKEN.match(text, p)
        if not m:
            if text[p:].strip():
                raise LambdaError(f"bad lambda syntax at {text[p:]!r}")
            break
        toks.append(m.group(1))
        p = m.end()
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat(t=None):
        cur = peek()
        if cur is None or (t is not None and cur != t):
            raise LambdaError(f"expected {t or 'a token'}, found {cur!r}")
        pos[0] += 1
        return cur

    def term():
        if peek() in ("\\", "λ"):
            eat()
            name = eat()
            eat(":")
            tytoks = []
            depth = 0
            while peek() is not None and not (peek() == "." and depth == 0):
                tok = eat()
                depth += tok == "("
                depth -= tok == ")"
                tytoks.append(tok)
            eat(".")
            return Lam(name, ref_parse_type(" ".join(tytoks)), term())
        return app()

    def app():
        t = atom()
        while peek() is not None and peek() not in (")", "."):
            t = App(t, atom())
        return t

    def atom():
        if peek() == "(":
            eat()
            t = term()
            eat(")")
            return t
        name = eat()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise LambdaError(f"unexpected token {name!r}")
        return Var(name)

    t = term()
    if peek() is not None:
        raise LambdaError(f"trailing input {toks[pos[0]:]!r}")
    return t


def read(fn, text):
    try:
        return ("ok", fn(text))
    except LambdaError as exc:
        return ("error", str(exc))


_gaps = st.sampled_from(["", " ", "  ", "\t"])
_type_pieces = st.sampled_from(["->", "(", ")", "t", "u1", "_v", "-", ">",
                                "$", "λ", "."])
_lambda_pieces = st.sampled_from(["\\", "λ", ".", ":", "(", ")", "->", "x",
                                  "y1", "t", "u", "$", "-", "\\x:t."])


def _texts(pieces, max_size):
    return st.builds(lambda ps, tail: "".join(g + p for g, p in ps) + tail,
                     st.lists(st.tuples(_gaps, pieces), max_size=max_size),
                     _gaps)


@settings(max_examples=600, deadline=None)
@given(_texts(_type_pieces, 14))
def test_type_reader_matches_the_recursive_reader(text):
    assert read(parse_type, text) == read(ref_parse_type, text)


@settings(max_examples=800, deadline=None)
@given(_texts(_lambda_pieces, 16))
def test_lambda_reader_matches_the_recursive_reader(text):
    assert read(parse_lambda, text) == read(ref_parse_lambda, text)


def test_readers_match_on_well_formed_terms():
    for text in ["\\f:t -> t. \\x:t. f (f x)", "(\\x:(t -> u) -> t. x) y z",
                 "λx:t. (λy:((t)). y) x", "f (g x) (h (k y))"]:
        assert parse_lambda(text) == ref_parse_lambda(text)
    for text in ["(t -> u) -> (t -> (u -> t)) -> t", "((t))", "t -> (u)"]:
        assert parse_type(text) == ref_parse_type(text)


def test_readers_need_no_frame_per_level():
    assert parse_lambda("(" * 5000 + "z" + ")" * 5000) == Var("z")
    assert parse_type("(" * 5000 + "t" + ")" * 5000) == TAtom("t")
    assert parse_type("(t -> " * 5000 + "t" + ")" * 5000).left == TAtom("t")
    with pytest.raises(LambdaError, match="expected \\), found None"):
        parse_lambda("(" * 5000 + "z" + ")" * 4999)


# --- the lambda translation against the recursive one it replaces -----------
#
# typecheck and _translate once recursed on the depth of the term, and
# from_lambda typed the term before translating it; they are copied below as
# references.  The one walk on an explicit stack must give the same types,
# the same nets and the same error texts.


def ref_type_formula(t):
    if isinstance(t, TAtom):
        return Atom(t.name)
    return Lolli(Bang(ref_type_formula(t.left)), ref_type_formula(t.right))


def ref_typecheck(term, sig):
    if isinstance(term, Var):
        if term.name not in sig:
            raise LambdaError(f"variable {term.name} has no declared type")
        return sig[term.name]
    if isinstance(term, Lam):
        inner = dict(sig)
        inner[term.var] = term.ty
        return TArrow(term.ty, ref_typecheck(term.body, inner))
    if isinstance(term, App):
        ft = ref_typecheck(term.fun, sig)
        at = ref_typecheck(term.arg, sig)
        if not isinstance(ft, TArrow):
            raise LambdaError(f"applying a non-function of type {ft}")
        if ft.left != at:
            raise LambdaError(f"argument type {at} does not match {ft.left}")
        return ft.right
    raise LambdaError(f"unknown term {term!r}")


def ref_translate(term, sig):
    if isinstance(term, Var):
        a = ref_type_formula(sig[term.name])
        return Derelict(Ax(a), 1), [term.name]
    if isinstance(term, Lam):
        inner = dict(sig)
        inner[term.var] = term.ty
        sub, owners = ref_translate(term.body, inner)
        positions = [i + 1 for i, v in enumerate(owners) if v == term.var]
        if not positions:
            sub = Weak(sub, ref_type_formula(term.ty))
            owners = owners + [term.var]
            positions = [len(owners)]
        while len(positions) > 1:
            i, j = positions[0], positions[1]
            sub = Contr(sub, i, j)
            owners = [v for k, v in enumerate(owners) if k != j - 1]
            positions = [i] + [p - 1 if p > j else p for p in positions[2:]]
        at = positions[0]
        owners = [v for k, v in enumerate(owners) if k != at - 1]
        return RLolli(sub, at), owners
    if isinstance(term, App):
        ft, fowners = ref_translate(term.fun, sig)
        ut, uowners = ref_translate(term.arg, sig)
        fty = ref_typecheck(term.fun, sig)
        boxed = Promote(ut)
        for i in range(1, len(uowners) + 1):
            boxed = Dig(boxed, i)
        applied = LLolli(boxed, Ax(ref_type_formula(fty.right)), 1)
        hook = len(uowners) + 1
        out = Cut(ft, applied, hook)
        return out, uowners + fowners
    raise LambdaError(f"unknown term {term!r}")


def ref_from_lambda(term, sig=None):
    sig = sig or {}
    ref_typecheck(term, sig)
    pt, owners = ref_translate(term, sig)
    firsts = {}
    pos = 0
    while pos < len(owners):
        name = owners[pos]
        if name in firsts:
            i, j = firsts[name] + 1, pos + 1
            pt = Contr(pt, i, j)
            del owners[pos]
            continue
        firsts[name] = pos
        pos += 1
    return elaborate(pt)


SIG = {"g": parse_type("t -> t"), "z": parse_type("t"),
       "h": parse_type("(t -> t) -> t -> t"), "y": parse_type("t -> u -> t")}


def translated(fn, text):
    """The type and net text of a lambda text, or its first error."""
    try:
        term = parse_lambda(text)
        ty = fn[0](term, dict(SIG))
        return ("ok", ty, print_net(fn[1](term, dict(SIG))))
    except LambdaError as exc:
        return ("error", str(exc))


NEW = (typecheck, from_lambda)
REF = (ref_typecheck, ref_from_lambda)
_types = st.sampled_from(["t", "u", "t -> t", "(t -> t) -> t -> t",
                          "t -> u -> t", "(t -> u) -> t"])
_vars = st.sampled_from(["x", "y", "z", "g", "h", "f"])


def _lam_terms(t):
    return st.one_of(
        st.builds(lambda v, ty, b: f"\\{v}:{ty}. {b}", _vars, _types, t),
        st.builds(lambda f, a: f"({f}) ({a})", t, t),
        st.builds(lambda f, a: f"{f} {a}", _vars, t))


_lam_well_formed = st.recursive(_vars, _lam_terms, max_leaves=8)


@settings(max_examples=600, deadline=None)
@given(_lam_well_formed)
def test_generated_terms_translate_as_the_recursive_walks(text):
    assert translated(NEW, text) == translated(REF, text)


@settings(max_examples=600, deadline=None)
@given(_texts(st.sampled_from(["\\", "λ", ".", ":", "(", ")", "->", "x",
                               "g", "z", "h", "t", "u", "\\x:t.",
                               "\\f:t -> t."]), 14))
def test_token_strings_translate_as_the_recursive_walks(text):
    assert translated(NEW, text) == translated(REF, text)


@pytest.mark.parametrize("text", [
    "\\f:t -> t. \\x:t. f (f x)", "h g z", "h (h g) z", "g g",
    "z z", "y z z", "y z (g z)", "(\\x:t. x) g", "\\x:t. \\x:u. x",
    "\\g:u. g", "(\\h:t. h) (h g z)", "w", "\\x:t. w x",
    "(\\x:t. x x) z", "\\x:t. \\y:t. y x x",
])
def test_chosen_terms_translate_as_the_recursive_walks(text):
    assert translated(NEW, text) == translated(REF, text)


def test_translation_needs_no_frame_per_level():
    binders = "".join(f"\\x{i}:t. " for i in range(1000)) + "x0"
    net = from_lambda(parse_lambda(binders))
    assert validate(net) == []
    arrows = parse_type("t -> " * 1500 + "t")
    assert feq(type_formula(arrows),
               parse_formula("!t -o " * 1500 + "t"))
    assert typecheck(Var("f"), {"f": arrows}) is arrows
    apps = "f (" * 100 + "z" + ")" * 100
    net = from_lambda(parse_lambda(apps),
                      {"f": parse_type("t -> t"), "z": parse_type("t")})
    assert net.edges[net.conclusion_edge()].formula == Atom("t")
    assert [v.label for v in net.vertices.values()].count(RBANG) == 100


def test_argument_types_compare_without_a_frame_per_arrow():
    """An application whose argument type has 1,500 arrows, matched and
    not matched."""
    arrows = parse_type("t -> " * 1500 + "t")
    sig = {"f": TArrow(arrows, parse_type("t")), "z": arrows}
    net = from_lambda(parse_lambda("f z"), sig)
    assert net.edges[net.conclusion_edge()].formula == Atom("t")
    other = parse_type("t -> " * 1499 + "u")
    with pytest.raises(LambdaError, match="does not match"):
        from_lambda(parse_lambda("f z"), {**sig, "z": other})
    assert str(arrows) == "t -> " * 1500 + "t"
    assert str(TArrow(arrows, arrows)).startswith("(t -> t")


def test_types_compare_and_hash_without_a_frame_per_arrow():
    arrows, twin = parse_type("t -> " * 2000 + "t"), parse_type("t -> " * 2000 + "t")
    assert arrows is not twin and arrows == twin and hash(arrows) == hash(twin)
    assert arrows != parse_type("t -> " * 1999 + "u")
    assert arrows != parse_type("(t -> t) -> " * 1000 + "t")
    assert {arrows: 1}[twin] == 1
    assert TAtom("t") == TAtom("t") and TAtom("t") != TAtom("u")
    assert TAtom("t") != TArrow(TAtom("t"), TAtom("t")) and TAtom("t") != "t"
    assert same_tree(TArrow(TAtom("t"), TAtom("u")), TArrow(TAtom("t"), TAtom("u")))


def test_terms_compare_and_hash_without_a_frame_per_node():
    """Two terms read apart from one text of 3,000 nested binders, and of
    3,000 nested applications, compared, hashed and written under a
    recursion limit 60 frames above the caller's depth."""
    binders = "".join(f"\\x{i}:t. " for i in range(3000)) + "x0"
    apps = "f (" * 3000 + "z" + ")" * 3000
    pairs = [(parse_lambda(text), parse_lambda(text)) for text in (binders, apps)]
    other = parse_lambda("f (" * 2999 + "y" + ")" * 2999)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        for term, twin in pairs:
            assert term is not twin and term == twin and not term != twin
            assert hash(term) == hash(twin) and {term: 1}[twin] == 1
            assert repr(term) == repr(twin)
        assert pairs[1][0] != other and pairs[0][0] != pairs[1][0]
    finally:
        sys.setrecursionlimit(limit)
    lam = Lam("x", parse_type("t"), Var("x"))
    assert lam == Lam("x", parse_type("t"), Var("x"))
    assert lam != Lam("x", parse_type("u"), Var("x")) and lam != Lam("y", lam.ty, Var("x"))
    assert App(Var("f"), Var("x")) != App(Var("x"), Var("f")) and Var("x") != "x"
    assert repr(lam) == "Lam(var='x', ty=TAtom(name='t'), body=Var(name='x'))"


def ref_type_repr(t):
    """The generated dataclass repr of a type, recursively."""
    if isinstance(t, TAtom):
        return f"TAtom(name={t.name!r})"
    return f"TArrow(left={ref_type_repr(t.left)}, right={ref_type_repr(t.right)})"


@given(st.recursive(st.sampled_from(["t", "u1"]).map(TAtom),
                    lambda sub: st.tuples(sub, sub).map(lambda p: TArrow(*p)),
                    max_leaves=12))
def test_type_repr_is_the_generated_text(t):
    assert repr(t) == ref_type_repr(t)


def test_repr_of_small_types():
    """The text the generated repr gave."""
    assert repr(parse_type("(t -> t) -> t -> t")) == (
        "TArrow(left=TArrow(left=TAtom(name='t'), right=TAtom(name='t')), "
        "right=TArrow(left=TAtom(name='t'), right=TAtom(name='t')))")
    assert repr(TAtom("t")) == "TAtom(name='t')"
