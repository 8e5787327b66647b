import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pnlab import corpus
from pnlab.families import gen_family
from pnlab.formulas import (
    Atom,
    Bang,
    Forall,
    Formula,
    Lolli,
    Sec,
    Tensor,
    FormulaError,
    alpha_canon,
    feq,
    format_formula,
    free_atoms,
    match_instance,
    parse_formula,
    same_tree,
    substitute,
)
from pnlab.net import parse_net

A = Atom("a")
B = Atom("b")


def test_substitute_variable_case():
    assert substitute(A, "a", Tensor(A, A)) == Tensor(A, A)


def test_substitute_bound_occurrence_untouched():
    f = Forall("a", A)
    assert substitute(f, "a", B) == f


def test_substitute_capture_avoiding_renames_binder():
    # a -o all b. a, substituting b*b for a must not capture b
    f = Lolli(A, Forall("b", A))
    got = substitute(f, "a", Tensor(B, B))
    assert isinstance(got, Lolli)
    inner = got.right
    assert isinstance(inner, Forall)
    assert inner.binder != "b"
    assert inner.body == Tensor(B, B)
    assert feq(got, Lolli(Tensor(B, B), Forall("c", Tensor(B, B))))


def test_free_atoms():
    assert free_atoms(Forall("a", Lolli(A, B))) == {"b"}


def test_match_instance():
    pat = Lolli(A, B)
    assert match_instance(pat, Lolli(Tensor(B, B), B), "a") == (True, Tensor(B, B))
    assert match_instance(pat, Lolli(A, A), "a") is None  # inconsistent b
    ok, w = match_instance(B, B, "a")
    assert ok and w is None  # atom does not occur


def test_parse_basics():
    assert parse_formula("a") == A
    assert parse_formula("!a -o b") == Lolli(Bang(A), B)
    assert parse_formula("a -o b -o a") == Lolli(A, Lolli(B, A))
    assert parse_formula("(a -o b) * a") == Tensor(Lolli(A, B), A)
    f = parse_formula("all x. x -o x")
    assert isinstance(f, Forall) and f.binder == "x"
    with pytest.raises(FormulaError):
        parse_formula("a -o")
    with pytest.raises(FormulaError):
        parse_formula("a b")


_atoms = st.sampled_from(["a", "b", "c"])


def _formulas():
    return st.recursive(
        _atoms.map(Atom),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Lolli(*p)),
            st.tuples(sub, sub).map(lambda p: Tensor(*p)),
            sub.map(Bang),
            st.tuples(_atoms, sub).map(lambda p: Forall(*p)),
        ),
        max_leaves=8,
    )


@given(_formulas())
def test_print_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@given(_formulas(), _atoms, _formulas())
def test_substitute_removes_free_atom(f, name, repl):
    if name in free_atoms(repl):
        return
    got = substitute(f, name, repl)
    assert name not in free_atoms(got)


def test_alpha_equality():
    assert feq(Forall("a", A), Forall("b", B))
    assert not feq(Forall("a", A), Forall("a", Bang(A)))
    assert alpha_canon(Forall("a", Lolli(A, B))) == alpha_canon(Forall("c", Lolli(Atom("c"), B)))


# --- the canonical text and the printer against their recursive forms -------


def ref_alpha_canon(f, env=None, depth=0):
    """alpha_canon as it was: a nested tuple, built recursively."""
    env = env or {}
    if isinstance(f, Atom):
        return ("atom", env.get(f.name, f.name))
    if isinstance(f, Lolli):
        return ("lolli", ref_alpha_canon(f.left, env, depth),
                ref_alpha_canon(f.right, env, depth))
    if isinstance(f, Tensor):
        return ("tensor", ref_alpha_canon(f.left, env, depth),
                ref_alpha_canon(f.right, env, depth))
    if isinstance(f, Bang):
        return ("bang", ref_alpha_canon(f.body, env, depth))
    if isinstance(f, Sec):
        return ("sec", ref_alpha_canon(f.body, env, depth))
    if isinstance(f, Forall):
        inner = dict(env)
        inner[f.binder] = depth
        return ("forall", ref_alpha_canon(f.body, inner, depth + 1))
    raise FormulaError(f"unknown formula {f!r}")


def ref_format(f, prec=0):
    """format_formula as it was, recursive."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bang):
        return "!" + ref_format(f.body, 2)
    if isinstance(f, Sec):
        return "sec " + ref_format(f.body, 2)
    if isinstance(f, Forall):
        s = f"all {f.binder}. {ref_format(f.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Lolli):
        s = f"{ref_format(f.left, 1)} -o {ref_format(f.right, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Tensor):
        s = f"{ref_format(f.left, 1)} * {ref_format(f.right, 2)}"
        return f"({s})" if prec > 1 else s
    raise FormulaError(f"unknown formula {f!r}")


# two binder names among three atoms: binders nest, shadow one another and
# leave atoms free
_binders = st.sampled_from(["a", "b"])


def _binder_formulas():
    return st.recursive(
        _atoms.map(Atom),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Lolli(*p)),
            st.tuples(sub, sub).map(lambda p: Tensor(*p)),
            sub.map(Bang),
            sub.map(Sec),
            st.tuples(_binders, sub).map(lambda p: Forall(*p)),
        ),
        max_leaves=12,
    )


@given(_binder_formulas(), _binder_formulas())
def test_canonical_text_is_the_printed_reference_tuple(f, g):
    text = alpha_canon(f)
    assert text == str(ref_alpha_canon(f))
    assert alpha_canon(f) is text  # kept on the formula
    assert format_formula(f) == ref_format(f)
    # one object in several places, inside and outside binders
    shared = Tensor(Lolli(g, f), Forall("a", Lolli(Bang(f), Tensor(g, f))))
    assert alpha_canon(shared) == str(ref_alpha_canon(shared))


def test_printer_brackets_by_precedence():
    C = Atom("c")
    cases = {
        Tensor(Tensor(A, B), C): "a * b * c",
        Tensor(A, Tensor(B, C)): "a * (b * c)",
        Lolli(Lolli(A, B), C): "(a -o b) -o c",
        Lolli(A, Lolli(B, C)): "a -o b -o c",
        Tensor(Lolli(A, B), Forall("a", A)): "(a -o b) * (all a. a)",
        Lolli(Tensor(A, B), Bang(Sec(Tensor(A, C)))): "a * b -o !sec (a * c)",
        Forall("a", Lolli(A, Forall("b", B))): "all a. a -o all b. b",
    }
    for f, text in cases.items():
        assert format_formula(f) == ref_format(f) == text


@given(_binder_formulas(), _binder_formulas())
def test_feq_is_equality_of_the_reference_tuples(f, g):
    assert feq(f, g) == (ref_alpha_canon(f) == ref_alpha_canon(g))
    assert feq(f, f)


def test_canonical_text_of_every_corpus_formula(all_nets):
    nets = [*all_nets.values(), corpus.ell_fixture(), corpus.sll_fixture(),
            corpus.lll_fixture(), corpus.lll_sec_fixture(),
            *(gen_family("dr-ladder", n) for n in range(1, 7))]
    formulas = [e.formula for net in nets for e in net.edges.values()]
    for f in formulas:
        assert alpha_canon(f) == str(ref_alpha_canon(f))
        assert format_formula(f) == ref_format(f)
    assert len(formulas) > 300
    assert any(isinstance(f, Sec) for f in formulas)


def test_deep_formulas_cost_no_python_frames():
    depth = 5000
    f = A
    for i in range(depth):
        f = Bang(f) if i % 2 else Forall("ab"[i % 4 // 2], Lolli(f, B))
    text = format_formula(f)
    assert format_formula(parse_formula(text)) == text
    assert alpha_canon(f).count("('forall', ") == depth // 2
    assert alpha_canon(f).count("('atom', 'b')") == 0  # every b is bound
    bangs = A
    for _ in range(3000):
        bangs = Bang(bangs)
    assert alpha_canon(bangs) == "('bang', " * 3000 + "('atom', 'a')" + ")" * 3000
    assert format_formula(bangs) == "!" * 3000 + "a"


def test_nested_captures_cost_no_python_frames():
    """b = x for a under 300 binders x, each of which would capture it and
    is renamed x1, substituted under a recursion limit 60 frames above the
    caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    f = parse_formula("all x. " * 300 + "a")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        got = substitute(f, "a", Atom("x"))
    finally:
        sys.setrecursionlimit(limit)
    assert format_formula(got) == "all x1. " * 300 + "x"


@pytest.mark.parametrize("n", [250, 500, 1000])
def test_nested_captures_read_each_body_once(monkeypatch, n):
    """b = x for a under n binders x: each binder asks for the free atoms
    of its body, and the substitution's jobs share one memo, so the
    subformulas free_atoms reads, counted as the entries it adds to the
    memo, are the n bodies and b, not a sum over the binders of their
    bodies' sizes."""
    import pnlab.formulas as formulas

    free, visits = formulas.free_atoms, []

    def counted(f, memo=None):
        memo = {} if memo is None else memo
        before = len(memo)
        atoms = free(f, memo)
        visits.append(len(memo) - before)
        return atoms

    monkeypatch.setattr(formulas, "free_atoms", counted)
    got = substitute(parse_formula("all x. " * n + "a"), "a", Atom("x"))
    assert format_formula(got) == "all x1. " * n + "x"
    assert len(visits) == 2 * n  # b and the body, at each binder
    assert sum(visits) == n + 1


# --- structural equality and instance matching without recursion ----------


def ref_match_instance(pattern, inst, atom):
    """match_instance as it was, recursive, with the dataclasses' `==`."""
    found = []

    def go(p, q):
        if isinstance(p, Atom) and p.name == atom:
            found.append(q)
            return True
        if type(p) is not type(q):
            return False
        if isinstance(p, Atom):
            return p.name == q.name
        if isinstance(p, (Lolli, Tensor)):
            return go(p.left, q.left) and go(p.right, q.right)
        if isinstance(p, (Bang, Sec)):
            return go(p.body, q.body)
        if isinstance(p, Forall):
            if p.binder == atom:
                return p == q
            if p.binder != q.binder:
                return False
            return go(p.body, q.body)
        return False

    if not go(pattern, inst):
        return None
    if not found:
        return (True, None)
    first = found[0]
    if any(x != first for x in found[1:]):
        return None
    return (True, first)


def ref_same_formula(f, g):
    """The equality the generated dataclass `==` gave: the class and each
    field, recursively."""
    if type(f) is not type(g):
        return False
    return all(ref_same_formula(x, y) if isinstance(x, Formula) else x == y
               for x, y in ((getattr(f, fd.name), getattr(g, fd.name))
                            for fd in fields(f)))


@given(_binder_formulas(), _binder_formulas())
def test_same_formula_is_the_dataclass_equality(f, g):
    assert same_tree(f, g) == (f == g) == ref_same_formula(f, g)
    assert f != g or hash(f) == hash(g)
    assert same_tree(f, f)
    copy = parse_formula(format_formula(f))  # equal, and no object shared
    assert same_tree(f, copy) and same_tree(copy, f)
    # binder names count, unlike feq
    assert not same_tree(Forall("a", A), Forall("b", B))


@given(_binder_formulas(), _binders, _binder_formulas(), _binder_formulas())
def test_match_instance_matches_the_recursive_reference(pattern, atom, repl, other):
    inst = substitute(pattern, atom, repl)
    for q in (inst, other, pattern):
        got = ref_match_instance(pattern, q, atom)
        assert match_instance(pattern, q, atom) == got
        if got is not None and got[1] is not None:
            assert match_instance(pattern, q, atom)[1] is got[1]


def test_deep_formulas_compare_and_hash_without_a_frame_per_level():
    text = ("pnet 1\nvertex v1 prem\nvertex v2 concl\nedge e1 v1 edge v2 edge "
            + "!" * 3000 + "a\nend\n")
    net, twin = parse_net(text), parse_net(text)
    assert net == twin
    f, g = net.edges["e1"].formula, twin.edges["e1"].formula
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != Bang(f) and {f: 1}[g] == 1
    assert Forall("a", A) != Forall("b", B)
    assert hash(Forall("a", A)) == hash(Forall("b", B))  # alpha-equivalent


def test_deep_equality_and_instances_cost_no_python_frames():
    bangs, copy = A, A
    for _ in range(3000):
        bangs, copy = Bang(bangs), Bang(copy)
    assert bangs is not copy and same_tree(bangs, copy)
    assert not same_tree(bangs, Bang(bangs))
    arrows, twin = A, A
    for _ in range(3000):  # DAGs, 2^3000 nodes as trees: each pair once
        arrows, twin = Lolli(arrows, Bang(arrows)), Lolli(twin, Bang(twin))
    assert same_tree(arrows, twin)
    assert not same_tree(arrows, Lolli(twin, Bang(twin)))
    pattern = B
    for _ in range(3000):
        pattern = Bang(pattern)
    # the repro net's lforall: all b. !...!b instantiated at !...!a
    assert match_instance(pattern, bangs, "b") == (True, A)
    assert match_instance(pattern, Bang(bangs), "b") == (True, Bang(A))
    assert match_instance(Bang(pattern), bangs, "b") is None
    assert match_instance(Forall("b", pattern), Forall("b", copy), "b") is None
    assert match_instance(Lolli(B, B), Lolli(bangs, copy), "b") == (True, bangs)
    assert match_instance(Lolli(B, B), Lolli(bangs, Bang(copy)), "b") is None


# --- repr without recursion -------------------------------------------------


def ref_repr(f):
    """The generated dataclass repr: the class and each field, recursively."""
    if not isinstance(f, Formula):
        return repr(f)
    return (f"{type(f).__qualname__}("
            + ", ".join(f"{fd.name}={ref_repr(getattr(f, fd.name))}"
                        for fd in fields(f)) + ")")


@given(_binder_formulas())
def test_repr_is_the_generated_text(f):
    assert repr(f) == ref_repr(f)


def test_repr_of_small_formulas():
    """The text the generated repr gave."""
    assert repr(parse_formula("!a -o b")) == \
        "Lolli(left=Bang(body=Atom(name='a')), right=Atom(name='b'))"
    assert repr(parse_formula("all b. sec (b * !c)")) == (
        "Forall(binder='b', body=Sec(body=Tensor(left=Atom(name='b'), "
        "right=Bang(body=Atom(name='c')))))")
    assert repr(A) == "Atom(name='a')"


DEEP_REPR_SCRIPT = """
import sys
from pnlab.formulas import parse_formula
from pnlab.lam import parse_type
f = parse_formula("!" * 3000 + "a")
t = parse_type("t -> " * 3000 + "t")
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
print(repr(f) == "Bang(body=" * 3000 + "Atom(name='a')" + ")" * 3000)
print(repr(t) == "TArrow(left=TAtom(name='t'), right=" * 3000
      + "TAtom(name='t')" + ")" * 3000)
"""


def test_deep_formulas_and_types_repr_without_a_frame_per_level():
    """The repr of a formula 3,000 bangs deep and of a type of 3,000
    arrows, written under a recursion limit 60 frames above the caller's
    depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", DEEP_REPR_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["True", "True"]
