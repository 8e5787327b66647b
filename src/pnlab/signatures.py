"""Exponential signatures: the token machine's box-copy trees.

Signatures are nested tuples so they hash and compare structurally:
    E = ('e',)            l(t) = ('l', t)      r(t) = ('r', t)
    p(t) = ('p', t)       n(t, u) = ('n', t, u)
    m(i) = ('m', i)       (SLL mode)
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


def standard(t: Sig) -> bool:
    """No occurrence of the p constructor."""
    head = t[0]
    if head == "p":
        return False
    if head in ("l", "r"):
        return standard(t[1])
    if head == "n":
        return standard(t[1]) and standard(t[2])
    return True  # e, m


def quasi_standard(t: Sig) -> bool:
    """Every n(u, v) subtree has a standard v."""
    head = t[0]
    if head in ("l", "r", "p"):
        return quasi_standard(t[1])
    if head == "n":
        return quasi_standard(t[1]) and standard(t[2])
    return True


def leq(u: Sig, t: Sig) -> bool:
    """The simplification order: u is a simplification of t."""
    hu, ht = u[0], t[0]
    if hu == "e" and ht == "e":
        return True
    if hu == ht and hu in ("r", "l", "p"):
        return leq(u[1], t[1])
    if hu == "p" and ht == "n":
        return leq(u[1], t[2])
    if hu == "n" and ht == "n":
        return leq(u[1], t[1]) and u[2] == t[2]
    if hu == "m" and ht == "m":
        return u == t
    return False


def simplifications(t: Sig) -> frozenset[Sig]:
    """All u with u <= t; finite and contains t."""
    head = t[0]
    if head in ("e", "m"):
        return frozenset([t])
    if head == "r":
        return frozenset(rsig(u) for u in simplifications(t[1]))
    if head == "l":
        return frozenset(lsig(u) for u in simplifications(t[1]))
    if head == "p":
        return frozenset(psig(u) for u in simplifications(t[1]))
    if head == "n":
        out = {nsig(u, t[2]) for u in simplifications(t[1])}
        out |= {psig(u) for u in simplifications(t[2])}
        return frozenset(out)
    raise ValueError(f"bad signature {t!r}")


def sig_size(t: Sig) -> int:
    head = t[0]
    if head in ("e", "m"):
        return 1
    if head in ("l", "r", "p"):
        return 1 + sig_size(t[1])
    return 1 + sig_size(t[1]) + sig_size(t[2])


def subtrees(t: Sig) -> frozenset[Sig]:
    head = t[0]
    if head in ("e", "m"):
        return frozenset([t])
    if head in ("l", "r", "p"):
        return frozenset([t]) | subtrees(t[1])
    return frozenset([t]) | subtrees(t[1]) | subtrees(t[2])


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
    head = t[0]
    if head == "e":
        return "e"
    if head == "m":
        return f"m({t[1]})"
    if head in ("l", "r", "p"):
        return f"{head}({format_sig(t[1])})"
    return f"n({format_sig(t[1])},{format_sig(t[2])})"


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

    def parse(i: int) -> tuple[Sig, int]:
        if i >= len(toks):
            raise SigError("truncated signature")
        tok = toks[i]
        if tok == "e":
            return E, i + 1
        if tok == "m":
            expect(i + 1, "(")
            if i + 2 >= len(toks) or not toks[i + 2].isdigit():
                raise SigError("bad m(i) signature")
            expect(i + 3, ")")
            return msig(int(toks[i + 2])), i + 4
        if tok in ("l", "r", "p"):
            expect(i + 1, "(")
            t, j = parse(i + 2)
            expect(j, ")")
            return (tok, t), j + 1
        if tok == "n":
            expect(i + 1, "(")
            t, j = parse(i + 2)
            expect(j, ",")
            u, k = parse(j + 1)
            expect(k, ")")
            return nsig(t, u), k + 1
        raise SigError(f"unexpected token {tok!r}")

    t, i = parse(0)
    if i != len(toks):
        raise SigError(f"trailing signature input {toks[i:]!r}")
    return t
