"""Formula trees for intuitionistic MELL (atoms, -o, *, !, forall; sec in LLL mode).

Formulas are immutable; substitution is capture-avoiding with respect to
forall binders.  A formula's canonical text, `alpha_canon`, is computed on
an explicit stack the first time it is asked for and kept on the formula
object, so formulas shared between nets share it too; `feq` compares these
texts.  Formulas are `Tree`s, as are the package's other syntax trees:
their `==` (`same_tree`) and repr (`tree_repr`) walk a tree's dataclass
fields on one explicit stack, and a formula hashes by its canonical
text.  The reader, `parse_formula`, and the printer, `format_formula`, also
run on explicit stacks, so the nesting depth of a formula costs no Python
frames in them.  The reader hash-conses parenthesized groups (Filliâtre and
Conchon, *Type-safe modular hash-consing*, 2006).  It tokenizes a text as
it reads it, and a group whose text equals that of a group already read, in
the same text or in any text read with the same groups map, is skipped by
one C-level comparison of text and shares that group's formula; a group
whose tokens equal those of one read before, such as a copy spaced
differently, is read but shares the formula too.  So a text costs Python
work for each distinct group, plus one C comparison for each repeated one,
not its length.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn


class FormulaError(ValueError):
    pass


class Tree:
    """A tree of dataclass nodes.  `==` is `same_tree`, the hash hashes the
    tree's tokens (each node's class and its other fields' values) and the
    repr is `tree_repr`, each on one explicit stack, so the depth of a
    tree costs no Python frames.  A node's fields are read by the names in
    its `__match_args__`, and a field that is a list or tuple is walked
    element by element."""

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return same_tree(self, other)

    def __hash__(self):
        tokens: list = []
        todo: list = [self]
        while todo:
            x = todo.pop()
            cls = type(x)
            if isinstance(x, Tree):
                tokens.append(cls)
                todo += [getattr(x, name) for name in cls.__match_args__]
            elif cls in (list, tuple):
                tokens.append(cls)
                todo += x
            else:
                tokens.append(x)
        return hash(tuple(tokens))

    def __repr__(self):
        return tree_repr(self)


def same_tree(a: Tree, b: Tree) -> bool:
    """Structural equality, the `==` of trees: the class and each field,
    as the generated dataclass `==` compares them, pair by pair on an
    explicit stack.  A pair of one object is equal at once, and each pair
    of objects is compared once, so trees that share subtrees, such as
    the dr-ladder formulas, cost their size as graphs."""
    if a is b:
        return True
    todo = [(a, b)]
    seen = set()  # ids of the pairs of fields already pushed
    while todo:
        a, b = todo.pop()
        cls = type(a)
        if cls in (list, tuple):
            if cls is not type(b) or len(a) != len(b):
                return False
            todo += zip(a, b)
            continue
        if not isinstance(a, Tree):  # an element of a list or tuple
            if a != b:
                return False
            continue
        if cls is not type(b):
            return False
        for name in cls.__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if x is y:
                continue
            if isinstance(x, Tree) or type(x) in (list, tuple):
                ids = (id(x), id(y))
                if ids not in seen:
                    seen.add(ids)
                    todo.append((x, y))
            elif x != y:
                return False
    return True


def tree_repr(x: Tree) -> str:
    """The text of the generated dataclass repr of x, written on an
    explicit stack: a field that is a tree, a list or a tuple is written
    in place, so the depth of x costs no Python frames."""
    out: list[str] = []
    todo: list = [x]  # trees, lists and tuples to write, and text
    while todo:
        x = todo.pop()
        cls = type(x)
        if cls is str:
            out.append(x)
            continue
        if isinstance(x, Tree):
            names = cls.__match_args__
            items = [getattr(x, name) for name in names]
            labels = [f"{name}=" for name in names]
            opening, closing = f"{cls.__qualname__}(", ")"
        else:  # a list or a tuple
            items, labels = x, [""] * len(x)
            opening = "[" if cls is list else "("
            closing = "]" if cls is list else ",)" if len(x) == 1 else ")"
        todo.append(closing)
        for i in reversed(range(len(items))):
            v = items[i]
            if not (isinstance(v, Tree) or type(v) in (list, tuple)):
                v = repr(v)
            todo += (v, f"{', ' if i else ''}{labels[i]}")
        out.append(opening)
    return "".join(out)


class Formula(Tree):
    """A formula hashes by its canonical text."""

    @cached_property
    def canon(self) -> str:
        """The canonical text of the formula; see alpha_canon."""
        return _canon_text(self)

    def __hash__(self):
        return hash(self.canon)

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Lolli(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Bang(Formula):
    body: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Formula):
    binder: str
    body: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Sec(Formula):
    """The LLL paragraph modality."""

    body: Formula


def free_atoms(f: Formula, memo: dict | None = None) -> frozenset[str]:
    """The atoms of f not bound by a quantifier of f: bottom-up on an
    explicit stack, each shared subformula once.  memo (id of a subformula
    -> the subformula and its atoms) lets calls share their common
    subformulas; it holds each subformula, so no id is reused."""
    if memo is None:
        memo = {}
    todo = [f]
    while todo:
        x = todo[-1]
        if id(x) in memo:
            todo.pop()
            continue
        if isinstance(x, Atom):
            memo[id(x)] = (x, frozenset([x.name]))
            todo.pop()
            continue
        if isinstance(x, (Lolli, Tensor)):
            parts = (x.left, x.right)
        elif isinstance(x, (Bang, Sec, Forall)):
            parts = (x.body,)
        else:
            raise FormulaError(f"unknown formula {x!r}")
        missing = [y for y in parts if id(y) not in memo]
        if missing:
            todo += missing
            continue
        todo.pop()
        atoms = memo[id(parts[0])][1]
        if len(parts) == 2:
            atoms = atoms | memo[id(parts[1])][1]
        if isinstance(x, Forall):
            atoms = atoms - {x.binder}
        memo[id(x)] = (x, atoms)
    return memo[id(f)][1]


_FRESH = re.compile(r"^(.*?)(\d*)$")


def _fresh(name: str, avoid: frozenset[str]) -> str:
    base, num = _FRESH.match(name).groups()
    i = int(num) if num else 0
    while True:
        i += 1
        cand = f"{base}{i}"
        if cand not in avoid:
            return cand


def substitute(f: Formula, atom: str, b: Formula,
               memo: dict | None = None) -> Formula:
    """Capture-avoiding substitution of b for free occurrences of atom in f.

    Bottom-up on an explicit stack; a subformula with no free occurrence
    is kept as it is.  memo (id of a subformula -> the subformula and its
    result, for this atom and b) lets calls share their common subformulas.
    A binder that would capture b is renamed by two more substitutions,
    which run on a stack of suspended ones, so nested captures cost no
    Python frames.  The substitutions share one `free_atoms` memo, so the
    free atoms of each subformula are found once, however deep the nested
    captures above it.
    """
    atoms: dict = {}  # free_atoms' memo, for every job
    jobs = [_substituting(f, atom, b, {} if memo is None else memo, atoms)]
    result = None
    while jobs:
        try:
            asked = jobs[-1].send(result)
        except StopIteration as done:
            jobs.pop()
            result = done.value
        else:
            jobs.append(_substituting(*asked, atoms))
            result = None
    return result


def _substituting(f: Formula, atom: str, b: Formula, memo: dict, atoms: dict):
    """substitute's work for one formula: it yields (formula, atom, b,
    memo) for each substitution it needs done first and is sent back its
    result.  atoms is the free_atoms memo of the whole substitution."""
    b_atoms = None
    todo = [f]
    while todo:
        x = todo[-1]
        if id(x) in memo:
            todo.pop()
            continue
        cls = type(x)
        if cls is Atom:
            memo[id(x)] = (x, b if x.name == atom else x)
            todo.pop()
            continue
        if cls is Forall:
            if x.binder == atom:
                memo[id(x)] = (x, x)
                todo.pop()
                continue
            if b_atoms is None:
                b_atoms = free_atoms(b, atoms)
            body_atoms = free_atoms(x.body, atoms) if x.binder in b_atoms else ()
            if atom in body_atoms:
                fresh = _fresh(x.binder, b_atoms | body_atoms | {atom})
                renamed = yield x.body, x.binder, Atom(fresh), {}
                # the renamed body shares this memo: results depend on the
                # subformula, atom and b alone
                body = yield renamed, atom, b, memo
                memo[id(x)] = (x, Forall(fresh, body))
                todo.pop()
                continue
            parts = (x.body,)
        elif cls is Lolli or cls is Tensor:
            parts = (x.left, x.right)
        elif cls is Bang or cls is Sec:
            parts = (x.body,)
        else:
            raise FormulaError(f"unknown formula {x!r}")
        missing = [y for y in parts if id(y) not in memo]
        if missing:
            todo += missing
            continue
        todo.pop()
        new = [memo[id(y)][1] for y in parts]
        if all(n is y for n, y in zip(new, parts)):
            memo[id(x)] = (x, x)
        elif cls is Forall:
            memo[id(x)] = (x, Forall(x.binder, new[0]))
        else:
            memo[id(x)] = (x, cls(*new))
    return memo[id(f)][1]


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
    (any instantiation works).  The two formulas are walked in parallel,
    left to right, on an explicit stack; B is the first subformula of
    inst found at a free occurrence of atom, and every other one must
    equal it.
    """
    found: list[Formula] = []
    todo = [(pattern, inst)]
    while todo:
        p, q = todo.pop()
        cls = type(p)
        if cls is Atom and p.name == atom:
            found.append(q)
            continue
        if cls is not type(q):
            return None
        if cls is Atom:
            if p.name != q.name:
                return None
        elif cls is Lolli or cls is Tensor:
            todo.append((p.right, q.right))
            todo.append((p.left, q.left))
        elif cls is Bang or cls is Sec:
            todo.append((p.body, q.body))
        elif cls is Forall:
            if p.binder == atom:
                if p != q:
                    return None
            elif p.binder != q.binder:
                return None
            else:
                todo.append((p.body, q.body))
        else:
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

# A match of _TOKENS is one token; a character that starts no token is a
# match of its own, in group 1, and the reader rejects it.
_TOKENS = re.compile(r"-o|[*!().]|[A-Za-z_][A-Za-z0-9_]*|(\S)")
# The same tokens as findall lists them: a token, or '' for a character
# that starts none.
_WORDS = re.compile(r"(-o|[*!().]|[A-Za-z_][A-Za-z0-9_]*)|\S")
_PUNCT = frozenset(("-o", "*", "!", "(", ")", "."))
# A group whose text has at least _PREFIX characters is looked up by its
# first _PREFIX, among the last _PER_PREFIX such groups read with the same
# prefix, so a '(' costs at most _PER_PREFIX comparisons of text; a shorter
# group is read again, at the cost of a few tokens.
_PREFIX = 16
_PER_PREFIX = 8

# frames of parse_formula's stack: a prefix waiting for its unary operand,
# a binder or an open parenthesis waiting for a whole formula, and the left
# operand of a tensor or a lolli waiting for its right one
_BANG, _SEC, _FORALL, _PAREN, _TENSOR, _LOLLI = range(6)


class _Tokens:
    """The tokens of a text, read from the left a stretch at a time: the
    reader pops them from `buf`, last first, and calls `fill` when it is
    empty; `jump` goes on from a later position without reading what lies
    between.

    A stretch runs up to and with the next '(', the one place a jump can
    start, and one findall lists its tokens, so a token costs the reader a
    list pop.  Of positions the reader needs where a '(' starts, which is
    `at` - 1 as a '(' ends its stretch, and where a ')' ends, which `close`
    finds from the ')' before it.  A text's first bad character is
    reported before any syntax error, as by a reader that tokenizes the
    whole text first: `fill` raises when a stretch holds one, and `rest`
    and `fail` look for one after the last token read before they give up.
    """

    __slots__ = ("text", "at", "closed", "buf")

    def __init__(self, text: str):
        self.text = text
        self.at = 0  # where the next stretch starts
        self.closed = 0  # where the last ')' passed ends, or the last jump
        self.buf: list[str] = []

    def fill(self) -> bool:
        """Put the next stretch's tokens in buf; False at the end."""
        text, pos = self.text, self.at
        if text.startswith("(", pos):  # a stretch of one token
            self.at = pos + 1
            self.buf.append("(")
            return True
        stop = text.find("(", pos) + 1 or len(text)
        words = _WORDS.findall(text, pos, stop)
        if "" in words:
            self._bad(pos, stop)
        self.at = stop
        self.buf.extend(reversed(words))
        return bool(words)

    def _bad(self, pos: int, stop: int) -> NoReturn:
        """Raise for the first bad character between pos, where a token
        ended, and stop, with the text after the token before it."""
        for m in _TOKENS.finditer(self.text, pos, stop):
            if m.lastindex:
                raise FormulaError(f"bad formula syntax at {self.text[pos:]!r}")
            pos = m.end()
        raise AssertionError("no bad character in the stretch")

    def close(self) -> int:
        """Pass the ')' just read; where it ends."""
        self.closed = self.text.index(")", self.closed) + 1
        return self.closed

    def jump(self, pos: int) -> None:
        """Go on from pos, which ends a token."""
        self.at = self.closed = pos
        self.buf.clear()

    def rest(self) -> list[str]:
        """The tokens after the last one read."""
        out = []
        while self.buf or self.fill():
            out.append(self.buf.pop())
        return out

    def fail(self, message: str) -> NoReturn:
        """Raise the syntax error message, unless a bad character follows."""
        self.rest()
        raise FormulaError(message)


def parse_formula(text: str, groups: dict | None = None) -> Formula:
    """Read a formula of the grammar above, on explicit stacks, so the
    nesting depth of the text costs no Python frames.

    Parenthesized groups are read once.  A '(' that starts the text of a
    group read before, up to the ')' that closed that group, is skipped
    after one comparison of text, and the group's formula is reused; a
    group is looked up so if it has at least _PREFIX characters, among at
    most _PER_PREFIX candidates.  A group that is read is keyed by its
    tokens, an inner group standing as its formula's id, and shares the
    formula of a group read before with the same key, such as a copy spaced
    differently.  So a text costs Python work for its tokens outside
    repeated groups, and a C-level comparison for each repeated group.

    `groups` holds the groups read so far: a key (a tuple) maps to its
    formula, and a text prefix (a str) to [text, formula] for the last
    groups it starts, the text as (the text read, start, stop) until it is
    first compared.  Calls that pass the same dict share them; by default
    a call has its own.  Reading a group depends on its tokens alone, and a
    group is kept only once it has read to its ')', so the value and every
    error are the same as when each group is read.
    """
    if groups is None:
        groups = {}
    tokens = _Tokens(text)
    buf = tokens.buf
    pop, fill = buf.pop, tokens.fill
    frames: list[tuple] = []  # (frame kind, payload)
    key: list = []  # the tokens of the innermost open group, read so far
    while True:
        # read prefixes up to an atom: the start of a unary
        tok = pop() if buf or fill() else None
        if tok == "!" or tok == "sec":
            key.append(tok)
            frames.append((_BANG if tok == "!" else _SEC, None))
            continue
        if tok == "all":
            binder = pop() if buf or fill() else None
            if binder is None:
                tokens.fail("expected token, found None")
            if binder == ")":  # a binder may be one: pass it
                tokens.close()
            dot = pop() if buf or fill() else None
            if dot != ".":
                tokens.fail(f"expected ., found {dot!r}")
            key += (tok, binder, dot)
            frames.append((_FORALL, binder))
            continue
        if tok == "(":
            start = tokens.at - 1
            for seen in groups.get(text[start:start + _PREFIX], ()):
                g = seen[0]
                if type(g) is tuple:  # first comparison: cut the text out
                    g = seen[0] = g[0][g[1]:g[2]]
                if text.startswith(g, start):  # read before: skip it
                    f = seen[1]
                    tokens.jump(start + len(g))
                    break
            else:
                frames.append((_PAREN, (start, key)))
                key = []
                continue
            key.append(id(f))
        elif tok is None or tok in _PUNCT:
            tokens.fail(f"unexpected token {tok!r}")
        else:
            key.append(tok)
            f = Atom(tok)
        # f is a whole unary: close what it completes
        tok = pop() if buf or fill() else None
        while True:
            while frames and frames[-1][0] <= _SEC:
                f = Bang(f) if frames.pop()[0] == _BANG else Sec(f)
            if frames and frames[-1][0] == _TENSOR:
                f = Tensor(frames.pop()[1], f)
            if tok == "*" or tok == "-o":
                key.append(tok)
                frames.append((_TENSOR if tok == "*" else _LOLLI, f))
                break
            # f ends a formula: close its lollis, then what opened it
            while frames and frames[-1][0] == _LOLLI:
                f = Lolli(frames.pop()[1], f)
            if not frames:
                if tok is not None:
                    raise FormulaError(f"trailing input {[tok, *tokens.rest()]!r}")
                return f
            kind, payload = frames.pop()
            if kind == _FORALL:
                f = Forall(payload, f)
            elif tok == ")":  # kind is _PAREN: the group is read
                start, outer = payload
                end = tokens.close()
                # the formula of an equal group read before, else this one;
                # ids of kept formulas stay distinct, as groups holds them
                f = groups.setdefault(tuple(key), f)
                if end - start >= _PREFIX:
                    # its text is cut out when first compared, so that
                    # nested groups do not each copy what they enclose
                    prefix = text[start:start + _PREFIX]
                    last = groups.get(prefix)
                    if last is None:
                        last = groups[prefix] = deque(maxlen=_PER_PREFIX)
                    last.append([(text, start, end), f])
                key = outer
                key.append(id(f))
                tok = pop() if buf or fill() else None
            else:
                tokens.fail(f"expected ), found {tok!r}")


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
