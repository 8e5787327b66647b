"""Formula trees for intuitionistic MELL (atoms, -o, *, !, forall; sec in LLL mode).

Formulas are immutable; substitution is capture-avoiding with respect to
forall binders.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Lolli(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} -o {self.right})"


@dataclass(frozen=True)
class Tensor(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Bang(Formula):
    body: Formula

    def __str__(self):
        return f"!{self.body}"


@dataclass(frozen=True)
class Forall(Formula):
    binder: str
    body: Formula

    def __str__(self):
        return f"(all {self.binder}. {self.body})"


@dataclass(frozen=True)
class Sec(Formula):
    """The LLL paragraph modality."""

    body: Formula

    def __str__(self):
        return f"sec {self.body}"


def free_atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, (Lolli, Tensor)):
        return free_atoms(f.left) | free_atoms(f.right)
    if isinstance(f, (Bang, Sec)):
        return free_atoms(f.body)
    if isinstance(f, Forall):
        return free_atoms(f.body) - {f.binder}
    raise FormulaError(f"unknown formula {f!r}")


_FRESH = re.compile(r"^(.*?)(\d*)$")


def _fresh(name: str, avoid: frozenset[str]) -> str:
    base, num = _FRESH.match(name).groups()
    i = int(num) if num else 0
    while True:
        i += 1
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand


def substitute(f: Formula, atom: str, b: Formula) -> Formula:
    """Capture-avoiding substitution of b for free occurrences of atom in f."""
    if isinstance(f, Atom):
        return b if f.name == atom else f
    if isinstance(f, Lolli):
        return Lolli(substitute(f.left, atom, b), substitute(f.right, atom, b))
    if isinstance(f, Tensor):
        return Tensor(substitute(f.left, atom, b), substitute(f.right, atom, b))
    if isinstance(f, Bang):
        return Bang(substitute(f.body, atom, b))
    if isinstance(f, Sec):
        return Sec(substitute(f.body, atom, b))
    if isinstance(f, Forall):
        if f.binder == atom:
            return f
        if f.binder in free_atoms(b) and atom in free_atoms(f.body):
            fresh = _fresh(f.binder, free_atoms(b) | free_atoms(f.body) | {atom})
            renamed = substitute(f.body, f.binder, Atom(fresh))
            return Forall(fresh, substitute(renamed, atom, b))
        return Forall(f.binder, substitute(f.body, atom, b))
    raise FormulaError(f"unknown formula {f!r}")


def rename_free_atom(f: Formula, old: str, new: str) -> Formula:
    """Rename free occurrences of an atom; bound occurrences are untouched."""
    return substitute(f, old, Atom(new))


def alpha_canon(f: Formula, env=None, depth=0) -> tuple:
    """Canonical nameless form; equal iff the formulas are alpha-equivalent."""
    env = env or {}
    if isinstance(f, Atom):
        return ("atom", env.get(f.name, f.name))
    if isinstance(f, Lolli):
        return ("lolli", alpha_canon(f.left, env, depth), alpha_canon(f.right, env, depth))
    if isinstance(f, Tensor):
        return ("tensor", alpha_canon(f.left, env, depth), alpha_canon(f.right, env, depth))
    if isinstance(f, Bang):
        return ("bang", alpha_canon(f.body, env, depth))
    if isinstance(f, Sec):
        return ("sec", alpha_canon(f.body, env, depth))
    if isinstance(f, Forall):
        inner = dict(env)
        inner[f.binder] = depth
        return ("forall", alpha_canon(f.body, inner, depth + 1))
    raise FormulaError(f"unknown formula {f!r}")


def feq(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound atoms."""
    return f == g or alpha_canon(f) == alpha_canon(g)


def match_instance(pattern: Formula, inst: Formula, atom: str):
    """Find B with pattern{B/atom} == inst, or None.

    Returns (True, B) on success; B is None when atom does not occur
    (any instantiation works).
    """
    found: list[Formula] = []

    def go(p: Formula, q: Formula) -> bool:
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


# --- concrete syntax ------------------------------------------------------
#
#   formula := lolli
#   lolli   := tensor ('-o' lolli)?          (right associative)
#   tensor  := unary ('*' unary)*            (left associative)
#   unary   := '!' unary | 'sec' unary | 'all' NAME '.' formula
#            | NAME | '(' formula ')'

# One pass of _TOKENS splits a text into tokens; a character that starts no
# token becomes a token of its own, which no position of the grammar accepts.
_TOKENS = re.compile(r"\s*(-o|[*!().]|[A-Za-z_][A-Za-z0-9_]*|\S)")
_PUNCT = frozenset(("-o", "*", "!", "(", ")", "."))
_NAME_START = frozenset(string.ascii_letters + "_")

# frames of parse_formula's stack: a prefix waiting for its unary operand,
# a binder or an open parenthesis waiting for a whole formula, and the left
# operand of a tensor or a lolli waiting for its right one
_BANG, _SEC, _FORALL, _PAREN, _TENSOR, _LOLLI = range(6)


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok[0] in _NAME_START


def parse_formula(text: str) -> Formula:
    """Read a formula of the grammar above, on explicit stacks, so the
    nesting depth of the text costs no Python frames."""
    toks = _TOKENS.findall(text)
    if not all(map(_is_token, set(toks))):
        for m in _TOKENS.finditer(text):
            if not _is_token(m.group(1)):
                raise FormulaError(f"bad formula syntax at {text[m.start():]!r}")
    n = len(toks)
    i = 0
    frames: list[tuple] = []  # (frame kind, payload)
    while True:
        # read prefixes up to an atom: the start of a unary
        tok = toks[i] if i < n else None
        i += 1
        if tok == "!":
            frames.append((_BANG, None))
            continue
        if tok == "sec":
            frames.append((_SEC, None))
            continue
        if tok == "all":
            if i >= n:
                raise FormulaError("expected token, found None")
            binder = toks[i]
            dot = toks[i + 1] if i + 1 < n else None
            if dot != ".":
                raise FormulaError(f"expected ., found {dot!r}")
            i += 2
            frames.append((_FORALL, binder))
            continue
        if tok == "(":
            frames.append((_PAREN, None))
            continue
        if tok is None or tok in _PUNCT:
            raise FormulaError(f"unexpected token {tok!r}")
        f: Formula = Atom(tok)
        # f is a whole unary: close what it completes
        while True:
            while frames and frames[-1][0] <= _SEC:
                f = Bang(f) if frames.pop()[0] == _BANG else Sec(f)
            if frames and frames[-1][0] == _TENSOR:
                f = Tensor(frames.pop()[1], f)
            tok = toks[i] if i < n else None
            if tok == "*":
                frames.append((_TENSOR, f))
                break
            if tok == "-o":
                frames.append((_LOLLI, f))
                break
            # f ends a formula: close its lollis, then what opened it
            while frames and frames[-1][0] == _LOLLI:
                f = Lolli(frames.pop()[1], f)
            if not frames:
                if tok is not None:
                    raise FormulaError(f"trailing input {toks[i:]!r}")
                return f
            kind, binder = frames.pop()
            if kind == _FORALL:
                f = Forall(binder, f)
            elif tok == ")":  # kind is _PAREN
                i += 1
            else:
                raise FormulaError(f"expected ), found {tok!r}")
        i += 1


def format_formula(f: Formula) -> str:
    """Parenthesis-light printer; parse_formula(format_formula(f)) == f."""
    return _fmt(f, 0)


def _fmt(f: Formula, prec: int) -> str:
    # precedence: 0 lolli (right assoc), 1 tensor, 2 unary
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bang):
        return "!" + _fmt(f.body, 2)
    if isinstance(f, Sec):
        return "sec " + _fmt(f.body, 2)
    if isinstance(f, Forall):
        s = f"all {f.binder}. {_fmt(f.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Lolli):
        s = f"{_fmt(f.left, 1)} -o {_fmt(f.right, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Tensor):
        s = f"{_fmt(f.left, 1)} * {_fmt(f.right, 2)}"
        return f"({s})" if prec > 1 else s
    raise FormulaError(f"unknown formula {f!r}")
