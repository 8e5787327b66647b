"""The test corpus: named fixtures plus an enumerated family of small nets.

The enumeration closes a set of seed axioms under the sequent rules, bounded
by net size and deduplicated by canonical form.  It is exhaustive over that
seed alphabet and rule set up to the size bound, which keeps reduction-graph
searches and weight computations affordable.
"""

from __future__ import annotations

from .families import copy_example_term, dr_ladder_term, jump_example_term
from .formulas import Atom, Bang, Lolli, parse_formula
from .lam import from_lambda, parse_lambda, parse_type
from .net import ProofNet
from .terms import (
    Ax,
    Contr,
    Cut,
    Derelict,
    Dig,
    LForall,
    LLolli,
    LTensor,
    Mux,
    ProofTerm,
    Promote,
    RForall,
    RLolli,
    RTensor,
    SPromote,
    Weak,
    elaborate,
    sequent_of,
)

A = Atom("a")
B = Atom("b")


def named_fixtures() -> dict[str, ProofNet]:
    """Hand-built nets exercising each rule; keys are stable names."""
    fx: dict[str, ProofTerm] = {}
    fx["axiom"] = Ax(A)
    for n in (1, 2, 3):
        fx[f"ladder{n}"] = dr_ladder_term(n, A)
    fx["copy"] = copy_example_term()
    fx["jump"] = jump_example_term()
    # box against each exponential consumer
    fx["box-weak"] = Cut(Promote(Ax(A)), Weak(Ax(B), A), 2)
    fx["box-der"] = Cut(Promote(Ax(A)), Derelict(Ax(A), 1), 1)
    fx["box-dig"] = Cut(Promote(Ax(A)),
                        Dig(Derelict(Derelict(Ax(A), 1), 1), 1), 1)
    fx["box-merge"] = Cut(Promote(Ax(A)), Promote(Ax(A)), 1)
    fx["box-merge-der"] = Cut(fx["box-merge"], Derelict(Ax(A), 1), 1)
    # nested box, depth 2
    fx["nested"] = Cut(Promote(Promote(Ax(A))),
                       Derelict(Derelict(Ax(A), 1), 1), 1)
    # multiplicatives and quantifier
    fx["tensor"] = Cut(RTensor(Ax(A), Ax(B)),
                       LTensor(RTensor(Ax(A), Ax(B)), 1, 2), 1)
    fx["forall"] = Cut(RForall(RLolli(Ax(B), 1), "b"),
                       LForall(LLolli(Ax(A), Ax(A), 1), 2,
                               parse_formula("all b. b -o b"), A), 2)
    nets = {}
    for name, term in fx.items():
        nets[name] = elaborate(term)
    nets["lambda-identity"] = from_lambda(parse_lambda("\\x:t. x"))
    nets["lambda-const"] = from_lambda(parse_lambda("\\x:t. \\y:u. x"))
    nets["lambda-apply"] = from_lambda(
        parse_lambda("(\\x:t. x) z"), {"z": parse_type("t")})
    nets["lambda-yxx"] = from_lambda(
        parse_lambda("(\\x:t. y x x) z"),
        {"y": parse_type("t -> t -> u"), "z": parse_type("t")})
    nets["lambda-church"] = from_lambda(
        parse_lambda("\\f:t -> t. \\x:t. f (f x)"))
    return nets


def ell_fixture() -> ProofNet:
    """Church-numeral-style: a boxed pair of function uses, no D or N."""
    app = LLolli(LLolli(Ax(A), Ax(A), 1), Ax(A), 1)
    boxed = Promote(app)  # [!a, !(a-oa), !(a-oa)] |- !a
    church = Contr(boxed, 2, 3)
    return elaborate(Cut(Promote(RLolli(Ax(A), 1)), church, 2), system="ELL")


def sll_fixture() -> ProofNet:
    """A multiplexer of arity three over a box."""
    y2 = Lolli(A, B)
    y3 = Lolli(A, Lolli(A, B))
    t1 = LLolli(Ax(A), Ax(y3), 1)
    t2 = Cut(t1, LLolli(Ax(A), Ax(y2), 1), 2)
    t3 = Cut(t2, LLolli(Ax(A), Ax(B), 1), 2)
    body = Mux(t3, (1, 2, 3))
    return elaborate(Cut(Promote(Ax(A)), body, 1), system="SLL")


def lll_fixture() -> ProofNet:
    """A one-door bang box duplicated through a contraction, LLL style."""
    y2 = Lolli(Bang(A), B)
    t1 = LLolli(Ax(Bang(A)), Ax(y2), 1)
    t2 = Cut(t1, LLolli(Ax(Bang(A)), Ax(B), 1), 2)
    body = Contr(t2, 1, 2)
    return elaborate(Cut(Promote(Ax(A)), Cut(Promote(Ax(A)), body, 1), 1),
                     system="LLL")


def lll_sec_fixture() -> ProofNet:
    """A sec box feeding another sec box's door."""
    return elaborate(Cut(SPromote(Ax(A), ()), SPromote(Ax(A), ()), 1),
                     system="LLL")


def enumerate_nets(max_vertices: int = 12, max_nets: int = 60,
                   rounds: int = 3) -> list[ProofNet]:
    """Closure of seed axioms under the rules, bounded and deduplicated."""
    from .rewrite import canonical_key

    seeds: list[ProofTerm] = [Ax(A), Ax(Lolli(A, A)), Ax(Bang(A))]
    pool: list[tuple[ProofTerm, list, object]] = []
    seen_terms = set()
    for s in seeds:
        prem, concl = sequent_of(s)
        pool.append((s, prem, concl))

    def grow(term: ProofTerm):
        try:
            prem, concl = sequent_of(term)
        except Exception:
            return
        if len(prem) > 3:
            return
        key = repr(term)
        if key in seen_terms:
            return
        seen_terms.add(key)
        pool.append((term, prem, concl))

    for _ in range(rounds):
        snapshot = list(pool)
        for term, prem, concl in snapshot:
            if prem:
                grow(RLolli(term, 1))
            grow(Weak(term, A))
            grow(Promote(term))
            for i, f in enumerate(prem, start=1):
                grow(Derelict(term, i))
                if isinstance(f, Bang) and isinstance(f.body, Bang):
                    grow(Dig(term, i))
            banged = [i for i, f in enumerate(prem, start=1) if isinstance(f, Bang)]
            for i in banged:
                for j in banged:
                    if i < j and prem[i - 1] == prem[j - 1]:
                        grow(Contr(term, i, j))
        # cuts between pool members
        for t1, p1, c1 in snapshot:
            for t2, p2, c2 in snapshot:
                for i, f in enumerate(p2, start=1):
                    if f == c1:
                        grow(Cut(t1, t2, i))

    nets = []
    keys = set()
    for term, prem, concl in pool:
        try:
            net = elaborate(term)
        except Exception:
            continue
        if net.size() > max_vertices:
            continue
        key = canonical_key(net)
        if key in keys:
            continue
        keys.add(key)
        nets.append(net)
        if len(nets) >= max_nets:
            break
    return nets


def full_corpus(max_vertices: int = 12, max_nets: int = 60) -> dict[str, ProofNet]:
    corpus = dict(named_fixtures())
    for i, net in enumerate(enumerate_nets(max_vertices, max_nets)):
        corpus[f"enum{i:03d}"] = net
    return corpus
