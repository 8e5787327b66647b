"""Exponential signatures: the token machine's box-copy trees.

Signatures are nested tuples so they hash and compare structurally:
    E = ('e',)            l(t) = ('l', t)      r(t) = ('r', t)
    p(t) = ('p', t)       n(t, u) = ('n', t, u)
    m(i) = ('m', i)       (SLL mode)

Every function here reads a signature without recursion, so the depth
of a signature costs no Python frames.
"""

from __future__ import annotations

import re

Sig = tuple

E: Sig = ("e",)


def lsig(t: Sig) -> Sig:
    return ("l", t)


def rsig(t: Sig) -> Sig:
    return ("r", t)


def psig(t: Sig) -> Sig:
    return ("p", t)


def nsig(t: Sig, u: Sig) -> Sig:
    return ("n", t, u)


def msig(i: int) -> Sig:
    return ("m", i)


def is_sig(x) -> bool:
    # 'h' is the weigher's hole pseudo-constructor; rules that merely move a
    # signature around accept holes, rules that inspect one never see them
    return isinstance(x, tuple) and len(x) >= 1 and x[0] in ("e", "l", "r", "p", "n", "m", "h")


def nodes(t: Sig):
    """t and each signature in it, once per occurrence, left child first."""
    todo = [t]
    while todo:
        x = todo.pop()
        yield x
        if x[0] in ("l", "r", "p"):
            todo.append(x[1])
        elif x[0] == "n":
            todo += (x[2], x[1])


def standard(t: Sig) -> bool:
    """No occurrence of the p constructor."""
    return all(x[0] != "p" for x in nodes(t))


def quasi_standard(t: Sig) -> bool:
    """Every n(u, v) subtree has a standard v."""
    seconds = []  # the v of each n(u, v) down the first children
    while t[0] in ("l", "r", "p", "n"):
        if t[0] == "n":
            seconds.append(t[2])
        t = t[1]
    return all(standard(v) for v in reversed(seconds))


def leq(u: Sig, t: Sig) -> bool:
    """The simplification order: u is a simplification of t."""
    same = []  # the second children of n(u', v) <= n(t', v), to compare
    while True:
        hu, ht = u[0], t[0]
        if hu == ht and hu in ("l", "r", "p", "n"):
            if hu == "n":
                same.append((u[2], t[2]))
            u, t = u[1], t[1]
        elif hu == "p" and ht == "n":
            u, t = u[1], t[2]
        else:
            return (hu == ht == "e" or hu == ht == "m" and u == t) \
                and all(a == b for a, b in reversed(same))


def simplifications(t: Sig, memo: dict | None = None) -> frozenset[Sig]:
    """All u with u <= t; finite and contains t.

    Computed bottom-up on an explicit stack; memo, if given, keeps the
    answer for every subterm met, for later calls to share.
    """
    memo = {} if memo is None else memo
    todo = [t]
    while todo:
        x = todo[-1]
        if x in memo:
            todo.pop()
            continue
        head = x[0]
        if head in ("e", "m"):
            memo[x] = frozenset([x])
        elif head in ("l", "r", "p"):
            inner = memo.get(x[1])
            if inner is None:
                todo.append(x[1])
                continue
            memo[x] = frozenset((head, u) for u in inner)
        elif head == "n":
            first, second = memo.get(x[1]), memo.get(x[2])
            if first is None or second is None:
                todo += [y for y, s in ((x[1], first), (x[2], second)) if s is None]
                continue
            memo[x] = frozenset([nsig(u, x[2]) for u in first]
                                + [psig(u) for u in second])
        else:
            raise ValueError(f"bad signature {x!r}")
        todo.pop()
    return memo[t]


def sig_size(t: Sig) -> int:
    """The number of constructors in t."""
    return sum(1 for _ in nodes(t))


def subtrees(t: Sig) -> frozenset[Sig]:
    """t and every signature in it."""
    return frozenset(nodes(t))


def all_standard_sigs(max_size: int, mux_indices: tuple[int, ...] = ()) -> list[Sig]:
    """Every standard signature with at most max_size constructors.

    With mux_indices nonempty, generates over the SLL alphabet {e, m(i)}
    instead; those signatures all have size 1.
    """
    if mux_indices:
        return [E] + [msig(i) for i in mux_indices]
    by_size: dict[int, list[Sig]] = {1: [E]}
    for n in range(2, max_size + 1):
        acc: list[Sig] = []
        for t in by_size[n - 1]:
            acc.append(lsig(t))
            acc.append(rsig(t))
        for k in range(1, n - 1):
            for t in by_size[k]:
                for u in by_size[n - 1 - k]:
                    acc.append(nsig(t, u))
        by_size[n] = acc
    out: list[Sig] = []
    for n in range(1, max_size + 1):
        out.extend(by_size.get(n, []))
    return out


def format_sig(t: Sig) -> str:
    """The text of t, on an explicit stack, so that its depth costs no
    Python frames."""
    out: list[str] = []
    todo: list = [t]  # signatures to write, and the punctuation after them
    while todo:
        x = todo.pop()
        if x.__class__ is str:
            out.append(x)
            continue
        head = x[0]
        if head == "e":
            out.append("e")
        elif head == "m":
            out.append(f"m({x[1]})")
        elif head in ("l", "r", "p"):
            out.append(f"{head}(")
            todo += (")", x[1])
        else:
            out.append("n(")
            todo += (")", x[2], ",", x[1])
    return "".join(out)


class SigError(ValueError):
    """A signature text that parse_sig cannot read."""


_TOK = re.compile(r"\s*([elrpnm]|\(|\)|,|\d+)")


def parse_sig(text: str) -> Sig:
    """Read the format of format_sig; malformed text raises SigError."""
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SigError(f"bad signature syntax at {text[pos:]!r}")
            break
        toks.append(m.group(1))
        pos = m.end()

    def expect(i: int, tok: str):
        if i >= len(toks) or toks[i] != tok:
            raise SigError(f"expected {tok} in signature {text!r}")

    # left to right on an explicit stack, so that the depth of the text
    # costs no Python frames: each open constructor is a frame [head], and
    # an n whose first argument is read is [n, first]
    frames: list[list] = []
    i = 0
    while True:
        if i >= len(toks):
            raise SigError("truncated signature")
        tok = toks[i]
        if tok in ("l", "r", "p", "n"):
            expect(i + 1, "(")
            frames.append([tok])
            i += 2
            continue
        if tok == "e":
            t, i = E, i + 1
        elif tok == "m":
            expect(i + 1, "(")
            if i + 2 >= len(toks) or not toks[i + 2].isdigit():
                raise SigError("bad m(i) signature")
            expect(i + 3, ")")
            t, i = msig(int(toks[i + 2])), i + 4
        else:
            raise SigError(f"unexpected token {tok!r}")
        # close every constructor that t completes
        while frames and frames[-1] != ["n"]:
            frame = frames.pop()
            expect(i, ")")
            t = nsig(frame[1], t) if frame[0] == "n" else (frame[0], t)
            i += 1
        if not frames:
            break
        expect(i, ",")  # t is the first argument of an n
        frames[-1].append(t)
        i += 1
    if i != len(toks):
        raise SigError(f"trailing signature input {toks[i:]!r}")
    return t
