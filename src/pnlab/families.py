"""Built-in example families.

dr-ladder n builds the left-associated chain of linear identities
I1 I2 ... In: each identity is one right-arrow vertex whose premise ports
are joined by an axiom edge, each application one left-arrow vertex.  The
net has 2n vertices, normalizes in n-1 arrow steps and has null weight,
yet its conclusion-to-conclusion token path has exponential length.

copy-example is the one-box net whose cut corresponds to the beta redex of
(\\x. y x x) z; its box is contracted and both copies derelicted.

jump-example chains a second box in front of the copy-example box, so the
outer box's copies are discovered only through the box-premise jump rule.

church k is the Church numeral k applied to g z, and compose j k is church j
applied to church k, then to g z, with church j taken at type
(a -> a) -> a -> a; g : a -> a and z : a.  Both are built by the lambda
front end, so they are the nets `pnlab lambda` prints for those terms.
compose is the one family with two sizes.
"""

from __future__ import annotations

from .formulas import Atom, Formula, Lolli
from .lam import App, Lam, LTerm, SType, TArrow, TAtom, Var, from_lambda
from .net import ProofNet
from .terms import (
    Ax,
    Contr,
    Cut,
    Derelict,
    LLolli,
    ProofTerm,
    Promote,
    RLolli,
    elaborate,
)

# family -> how many sizes it takes
FAMILIES = {"dr-ladder": 1, "copy-example": 1, "jump-example": 1, "church": 1,
            "compose": 2}


class FamilyError(ValueError):
    pass


def dr_ladder_term(n: int, base: Formula) -> ProofTerm:
    if n < 1:
        raise FamilyError("dr-ladder needs n >= 1")
    # identity types telescope: T_n = base -o base, T_k = T_{k+1} -o T_{k+1}
    ts = {n: Lolli(base, base)}
    for k in range(n - 1, 0, -1):
        ts[k] = Lolli(ts[k + 1], ts[k + 1])

    def identity(k: int) -> ProofTerm:
        loop = ts[k + 1] if k < n else base
        return RLolli(Ax(loop), 1)

    term = identity(1)
    for k in range(2, n + 1):
        term = Cut(term, LLolli(identity(k), Ax(ts[k]), 1), 1)
    return term


def _body_yxx(a: Formula, b: Formula) -> ProofTerm:
    """y x x with y : a -o a -o b, both x uses derelicted; premise 1 is !a."""
    app1 = LLolli(Derelict(Ax(a), 1), Ax(Lolli(a, b)), 1)
    app2 = Cut(app1, LLolli(Derelict(Ax(a), 1), Ax(b), 1), 2)
    return Contr(app2, 1, 2)


def copy_example_term() -> ProofTerm:
    a, b = Atom("a"), Atom("b")
    return Cut(Promote(Ax(a)), _body_yxx(a, b), 1)


def jump_example_term() -> ProofTerm:
    a, b = Atom("a"), Atom("b")
    return Cut(Promote(Ax(a)), Cut(Promote(Ax(a)), _body_yxx(a, b), 1), 1)


def church_term(k: int, ty: SType) -> LTerm:
    """\\f:ty -> ty. \\x:ty. f (... (f x)), with k applications of f."""
    body: LTerm = Var("x")
    for _ in range(k):
        body = App(Var("f"), body)
    return Lam("f", TArrow(ty, ty), Lam("x", ty, body))


def _applied(term: LTerm, atom: TAtom) -> ProofNet:
    """term applied to g : atom -> atom and z : atom."""
    sig = {"g": TArrow(atom, atom), "z": atom}
    return from_lambda(App(App(term, Var("g")), Var("z")), sig)


def gen_family(name: str, sizes: int | tuple[int, ...] = (),
               base: Formula | None = None) -> ProofNet:
    """The net of family name.  sizes holds FAMILIES[name] sizes, or none
    for the default of 1 each; an int n stands for (n,)."""
    if name not in FAMILIES:
        raise FamilyError(
            f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    if isinstance(sizes, int):
        sizes = (sizes,)
    sizes = sizes or (1,) * FAMILIES[name]
    if len(sizes) != FAMILIES[name]:
        raise FamilyError(f"{name} takes {FAMILIES[name]} size(s), "
                          f"not {len(sizes)}")
    base = base or Atom("a")
    if name == "dr-ladder":
        return elaborate(dr_ladder_term(sizes[0], base))
    if name == "copy-example":
        return elaborate(copy_example_term())
    if name == "jump-example":
        return elaborate(jump_example_term())
    if not isinstance(base, Atom):
        raise FamilyError(f"{name} needs an atomic base, not {base}")
    if min(sizes) < 0:
        raise FamilyError(f"{name} needs sizes >= 0")
    atom = TAtom(base.name)
    if name == "church":
        return _applied(church_term(sizes[0], atom), atom)
    j, k = sizes  # church j taken at type (atom -> atom) -> atom -> atom
    return _applied(App(church_term(j, TArrow(atom, atom)), church_term(k, atom)),
                    atom)
