"""Formula trees for intuitionistic MELL (atoms, -o, *, !, forall; sec in LLL mode).

Formulas are immutable; substitution is capture-avoiding with respect to
forall binders.  A formula's canonical text, `alpha_canon`, is computed on
an explicit stack the first time it is asked for and kept on the formula
object, so formulas shared between nets share it too; `feq` compares these
texts.  The reader, `parse_formula`, and the printer, `format_formula`, also
run on explicit stacks, so the nesting depth of a formula costs no Python
frames in them.  The reader hash-conses parenthesized groups (Filliâtre and
Conchon, *Type-safe modular hash-consing*, 2006): a group whose tokens equal
those of a group already read, in the same text or in any text read with
the same groups map, is not read again but shares that group's formula, so
a text that repeats its groups costs its distinct groups, not its length.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Formula:
    @cached_property
    def canon(self) -> str:
        """The canonical text of the formula; see alpha_canon."""
        return _canon_text(self)


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


def alpha_canon(f: Formula) -> str:
    """Canonical nameless text; equal iff the formulas are alpha-equivalent.

    It is `str` of the nested tuple ('atom', name | binder level),
    ('lolli', A, B), ('tensor', A, B), ('bang', A), ('sec', A),
    ('forall', A), where a bound atom is the level of its binder counted
    from the outermost one.  Computed once per formula object.
    """
    return f.canon


def _canon_text(f: Formula) -> str:
    out: list[str] = []
    levels: dict[str, list[int]] = {}  # binder -> levels of its open scopes
    depth = 0
    # Outside every binder a subformula has one text wherever it occurs, so
    # a formula sharing subformulas costs its size as a graph, not as a
    # tree: id -> the span of the text in `out`, then the text once reused.
    spans: dict[int, tuple[int, int] | str] = {}
    # formulas to write, text to write, (binder,) to close its scope, or
    # (id, start) to note where a subformula's text ends
    todo: list = [f]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is str:
            out.append(f)
            continue
        if cls is tuple:
            if len(f) == 1:
                levels[f[0]].pop()
                depth -= 1
            else:
                spans[f[0]] = (f[1], len(out))
            continue
        if cls is Atom:
            open_ = levels.get(f.name)
            out.append(f"('atom', {open_[-1] if open_ else repr(f.name)})")
            continue
        if not depth:
            span = spans.get(id(f))
            if span is not None:
                if type(span) is tuple:
                    span = spans[id(f)] = "".join(out[span[0]:span[1]])
                out.append(span)
                continue
            todo.append((id(f), len(out)))
        if cls is Lolli or cls is Tensor:
            out.append("('lolli', " if cls is Lolli else "('tensor', ")
            todo += (")", f.right, ", ", f.left)
        elif cls is Bang or cls is Sec:
            out.append("('bang', " if cls is Bang else "('sec', ")
            todo += (")", f.body)
        elif cls is Forall:
            out.append("('forall', ")
            levels.setdefault(f.binder, []).append(depth)
            depth += 1
            todo += (")", (f.binder,), f.body)
        else:
            raise FormulaError(f"unknown formula {f!r}")
    return "".join(out)


def feq(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound atoms."""
    return f is g or f.canon == g.canon


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
_TOKENS = re.compile(r"-o|[*!().]|[A-Za-z_][A-Za-z0-9_]*|\S")
_PUNCT = frozenset(("-o", "*", "!", "(", ")", "."))
_PARENS = frozenset("()")
_NAME_START = frozenset(string.ascii_letters + "_")

# frames of parse_formula's stack: a prefix waiting for its unary operand,
# a binder or an open parenthesis waiting for a whole formula, and the left
# operand of a tensor or a lolli waiting for its right one
_BANG, _SEC, _FORALL, _PAREN, _TENSOR, _LOLLI = range(6)


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok[0] in _NAME_START


def _match_groups(toks: list[str], groups: dict) -> dict[int, tuple]:
    """Map the index of each '(' of toks that has a matching ')' to (the
    index of that ')', the group's entry in `groups`).

    A group's key is its tokens with each inner group replaced by the
    inner group's number, so equal keys mean equal token sequences and each
    token goes into one key.  `groups` maps a key to its entry
    [number, formula or None until a group with that key has been read].
    """
    at: dict[int, tuple] = {}
    opens: list[tuple] = []  # (index of an open '(', key of the group around it)
    key: list = []  # tokens and group numbers of the innermost open group
    last = 0
    for k in compress(count(), map(_PARENS.__contains__, toks)):
        key += toks[last:k]
        last = k + 1
        if toks[k] == "(":
            opens.append((k, key))
            key = []
        elif opens:
            whole = tuple(key)
            entry = groups.get(whole)
            if entry is None:
                entry = groups[whole] = [len(groups), None]
            start, key = opens.pop()
            key.append(entry[0])
            at[start] = (k, entry)
    return at


def parse_formula(text: str, groups: dict | None = None) -> Formula:
    """Read a formula of the grammar above, on explicit stacks, so the
    nesting depth of the text costs no Python frames.

    A parenthesized group whose tokens equal those of a group read before
    is not read again: its formula is reused and the reader skips to its
    ')'.  `groups` holds the groups read so far (see _match_groups); calls
    that pass the same dict share them, and by default a call has its own.
    Reading a group depends on its tokens alone, and only a group that read
    to its own ')' is kept, so the value and every error are the same as
    when each group is read.
    """
    toks = _TOKENS.findall(text)
    if not all(map(_is_token, set(toks))):
        end = 0  # where the token before m ends: the error quotes from there
        for m in _TOKENS.finditer(text):
            if not _is_token(m.group()):
                raise FormulaError(f"bad formula syntax at {text[end:]!r}")
            end = m.end()
    at = _match_groups(toks, {} if groups is None else groups)
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
            group = at.get(i - 1, (None, None))  # None: no matching ')'
            close, entry = group
            if entry is None or entry[1] is None:
                frames.append((_PAREN, group))
                continue
            f = entry[1]  # read before: skip to its ')'
            i = close + 1
        elif tok is None or tok in _PUNCT:
            raise FormulaError(f"unexpected token {tok!r}")
        else:
            f = Atom(tok)
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
            kind, payload = frames.pop()
            if kind == _FORALL:
                f = Forall(payload, f)
            elif tok == ")":  # kind is _PAREN
                close, entry = payload
                if close == i:  # the group read to its own ')': keep it
                    entry[1] = f
                i += 1
            else:
                raise FormulaError(f"expected ), found {tok!r}")
        i += 1


def format_formula(f: Formula) -> str:
    """Parenthesis-light printer; parse_formula(format_formula(f)) == f.

    Precedence: 0 lolli (right associative), 1 tensor, 2 unary.  A lolli
    or binder is bracketed where the context's precedence is above 0, a
    tensor where it is above 1.
    """
    out: list[str] = []
    todo: list = [(f, 0)]  # (formula, context precedence) or text to write
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, prec = item
        cls = type(f)
        if cls is Atom:
            out.append(f.name)
        elif cls is Bang:
            out.append("!")
            todo.append((f.body, 2))
        elif cls is Sec:
            out.append("sec ")
            todo.append((f.body, 2))
        else:
            if prec > (1 if cls is Tensor else 0):
                out.append("(")
                todo.append(")")
            if cls is Forall:
                out.append(f"all {f.binder}. ")
                todo.append((f.body, 0))
            elif cls is Lolli:
                todo += ((f.right, 0), " -o ", (f.left, 1))
            elif cls is Tensor:
                todo += ((f.right, 2), " * ", (f.left, 1))
            else:
                raise FormulaError(f"unknown formula {f!r}")
    return "".join(out)
