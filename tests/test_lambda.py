import pytest

from pnlab.formulas import Atom, Bang, Lolli
from pnlab.lam import (
    LambdaError,
    TArrow,
    TAtom,
    from_lambda,
    parse_lambda,
    parse_type,
    typecheck,
)
from pnlab.net import CONTR, DER, RBANG, WEAK, validate
from pnlab.rewrite import normalize


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
