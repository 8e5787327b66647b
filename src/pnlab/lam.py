"""Simply-typed lambda terms and the call-by-name embedding into proof-nets.

Types translate as (A -> B)* = !A* -o B*.  The translation is uniform:
every variable occurrence derelicts its premise, every application argument
is boxed (with a digging on each premise the box captures), multiple uses
of a variable are contracted into one premise at its binder, unused binders
weaken.  Binders carry type annotations; free variables take their types
from an explicit signature, since type inference is out of scope.

The readers, `type_formula` and the translation run on explicit stacks, and
types and terms are `formulas.Tree`s, which compare, hash and print on one,
so the depth of a term or type costs no Python frames.  Typing and translation
are one post-order walk, `_translate`; `typecheck` returns its type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formulas import Atom, Bang, Formula, Lolli, Tree
from .net import ProofNet
from .terms import (
    Ax,
    Contr,
    Cut,
    Derelict,
    Dig,
    LLolli,
    ProofTerm,
    Promote,
    RLolli,
    Weak,
    elaborate,
)


class LambdaError(ValueError):
    pass


# --- simple types -----------------------------------------------------------


class SType(Tree):
    """A simple type."""


@dataclass(frozen=True, eq=False, repr=False)
class TAtom(SType):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class TArrow(SType):
    left: SType
    right: SType

    def __str__(self):
        """The text parse_type reads, written on an explicit stack."""
        out: list[str] = []
        todo: list = [self]  # types to write, and the text after them
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, TArrow):
                if isinstance(t.left, TArrow):
                    todo += (t.right, ") -> ", t.left, "(")
                else:
                    todo += (t.right, " -> ", t.left)
            else:
                out.append(str(t))
        return "".join(out)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_type(text: str) -> SType:
    """Read `ty := atom ('->' ty)?`, `atom := '(' ty ')' | NAME` on an
    explicit stack, so the nesting depth of the text costs no Python frames."""
    # \S takes any other character as a token of its own, which no rule accepts
    toks = re.findall(r"->|\(|\)|[A-Za-z_][A-Za-z0-9_]*|\S", text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(t=None):
        nonlocal pos
        cur = peek()
        if cur is None or (t is not None and cur != t):
            raise LambdaError(f"bad type {text!r}: expected {t or 'token'}, got {cur!r}")
        pos += 1
        return cur

    # None for an open parenthesis waiting for a type, or the left side of
    # an arrow waiting for its right one
    frames: list[SType | None] = []
    while True:
        if peek() == "(":
            eat()
            frames.append(None)
            continue
        name = eat()
        if not _NAME.fullmatch(name):
            raise LambdaError(f"bad type token {name!r}")
        t: SType = TAtom(name)
        # t is a whole atom: read the right side of its arrow, or close
        # what t ends
        while True:
            if peek() == "->":
                eat()
                frames.append(t)
                break
            while frames and frames[-1] is not None:
                t = TArrow(frames.pop(), t)
            if not frames:
                if peek() is not None:
                    raise LambdaError(f"trailing type input in {text!r}")
                return t
            frames.pop()
            eat(")")


def type_formula(t: SType) -> Formula:
    """(A -> B)* = !A* -o B*, post-order on an explicit stack."""
    done: list[Formula] = []
    todo: list[SType | None] = [t]  # types to translate; None joins an arrow
    while todo:
        t = todo.pop()
        if t is None:
            right = done.pop()
            done[-1] = Lolli(Bang(done[-1]), right)
        elif isinstance(t, TAtom):
            done.append(Atom(t.name))
        else:
            todo += (None, t.right, t.left)
    return done[0]


# --- lambda terms -----------------------------------------------------------


class LTerm(Tree):
    """A simply typed λ-term."""


@dataclass(frozen=True, eq=False, repr=False)
class Var(LTerm):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Lam(LTerm):
    var: str
    ty: SType
    body: LTerm


@dataclass(frozen=True, eq=False, repr=False)
class App(LTerm):
    fun: LTerm
    arg: LTerm


_LAM_TOKEN = re.compile(r"\s*(\\|λ|\.|:|\(|\)|->|[A-Za-z_][A-Za-z0-9_]*)")


# frames of parse_lambda's stack: a binder waiting for its body, an open
# parenthesis waiting for a term, and an application's function waiting
# for its next argument
_LAM, _PAREN, _APP = range(3)


def parse_lambda(text: str) -> LTerm:
    """Read `term := ('\\' | 'λ') NAME ':' TYPE '.' term | app`,
    `app := atom atom*`, `atom := '(' term ')' | NAME` on an explicit stack,
    so the nesting depth of the text costs no Python frames."""
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
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(t=None):
        nonlocal pos
        cur = peek()
        if cur is None or (t is not None and cur != t):
            raise LambdaError(f"expected {t or 'a token'}, found {cur!r}")
        pos += 1
        return cur

    frames: list[tuple] = []  # (frame kind, payload)
    term_start = True  # a binder may start here, not only an atom
    while True:
        if term_start and peek() in ("\\", "λ"):
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
            frames.append((_LAM, (name, parse_type(" ".join(tytoks)))))
            continue
        if peek() == "(":
            eat()
            frames.append((_PAREN, None))
            term_start = True
            continue
        name = eat()
        if not _NAME.fullmatch(name):
            raise LambdaError(f"unexpected token {name!r}")
        t: LTerm = Var(name)
        # t is a whole atom: apply the function waiting for it, then read
        # the next argument or close what t ends
        while True:
            if frames and frames[-1][0] == _APP:
                t = App(frames.pop()[1], t)
            if peek() is not None and peek() not in (")", "."):
                frames.append((_APP, t))
                term_start = False
                break
            while frames and frames[-1][0] == _LAM:
                name, ty = frames.pop()[1]
                t = Lam(name, ty, t)
            if not frames:
                if peek() is not None:
                    raise LambdaError(f"trailing input {toks[pos:]!r}")
                return t
            frames.pop()  # _PAREN
            eat(")")


def typecheck(term: LTerm, sig: dict[str, SType]) -> SType:
    """The type of term, its free variables typed by sig; see _translate."""
    return _translate(term, sig)[2]


# --- translation ------------------------------------------------------------


def _translate(term: LTerm, sig: dict[str, SType]):
    """The proof term of a typed term, per premise position the variable
    that owns it, and the term's type, in one post-order walk on an
    explicit stack.  A name's binder types are kept on a stack of their own,
    innermost last, above its type in the signature."""
    scope = {name: [ty] for name, ty in sig.items()}
    done: list[tuple[ProofTerm, list[str], SType]] = []
    # (term, False) to reach a term, (term, True) to join its subterms
    todo: list[tuple[LTerm, bool]] = [(term, False)]
    while todo:
        t, joining = todo.pop()
        if isinstance(t, Var):
            if not scope.get(t.name):
                raise LambdaError(f"variable {t.name} has no declared type")
            ty = scope[t.name][-1]
            done.append((Derelict(Ax(type_formula(ty)), 1), [t.name], ty))
        elif isinstance(t, Lam) and not joining:
            scope.setdefault(t.var, []).append(t.ty)
            todo += ((t, True), (t.body, False))
        elif isinstance(t, Lam):
            scope[t.var].pop()
            sub, owners, ty = done.pop()
            positions = [i + 1 for i, v in enumerate(owners) if v == t.var]
            if not positions:
                sub = Weak(sub, type_formula(t.ty))
                owners = owners + [t.var]
                positions = [len(owners)]
            while len(positions) > 1:
                i, j = positions[0], positions[1]
                sub = Contr(sub, i, j)
                owners = [v for k, v in enumerate(owners) if k != j - 1]
                positions = [i] + [p - 1 if p > j else p for p in positions[2:]]
            at = positions[0]
            owners = [v for k, v in enumerate(owners) if k != at - 1]
            done.append((RLolli(sub, at), owners, TArrow(t.ty, ty)))
        elif isinstance(t, App) and not joining:
            todo += ((t, True), (t.arg, False), (t.fun, False))
        elif isinstance(t, App):
            ut, uowners, aty = done.pop()
            ft, fowners, fty = done.pop()
            if not isinstance(fty, TArrow):
                raise LambdaError(f"applying a non-function of type {fty}")
            if fty.left != aty:
                raise LambdaError(f"argument type {aty} does not match {fty.left}")
            boxed = Promote(ut)
            for i in range(1, len(uowners) + 1):
                boxed = Dig(boxed, i)
            applied = LLolli(boxed, Ax(type_formula(fty.right)), 1)
            hook = len(uowners) + 1
            done.append((Cut(ft, applied, hook), uowners + fowners, fty.right))
        else:
            raise LambdaError(f"unknown term {t!r}")
    return done[0]


def from_lambda(term: LTerm, sig: dict[str, SType] | None = None) -> ProofNet:
    pt, owners, _ = _translate(term, sig or {})
    # contract repeated free variables so each ends up as one premise
    firsts: dict[str, int] = {}
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
