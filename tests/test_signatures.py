"""The signature readers, each on an explicit stack, against the recursive
definitions they replace."""

import subprocess
import sys
from pathlib import Path

from pnlab.signatures import (
    E,
    all_standard_sigs,
    leq,
    lsig,
    nsig,
    psig,
    quasi_standard,
    sig_size,
    simplifications,
    standard,
    subtrees,
)


def ref_standard(t):
    head = t[0]
    if head == "p":
        return False
    if head in ("l", "r"):
        return ref_standard(t[1])
    if head == "n":
        return ref_standard(t[1]) and ref_standard(t[2])
    return True


def ref_quasi_standard(t):
    head = t[0]
    if head in ("l", "r", "p"):
        return ref_quasi_standard(t[1])
    if head == "n":
        return ref_quasi_standard(t[1]) and ref_standard(t[2])
    return True


def ref_leq(u, t):
    hu, ht = u[0], t[0]
    if hu == "e" and ht == "e":
        return True
    if hu == ht and hu in ("r", "l", "p"):
        return ref_leq(u[1], t[1])
    if hu == "p" and ht == "n":
        return ref_leq(u[1], t[2])
    if hu == "n" and ht == "n":
        return ref_leq(u[1], t[1]) and u[2] == t[2]
    if hu == "m" and ht == "m":
        return u == t
    return False


def ref_sig_size(t):
    head = t[0]
    if head in ("e", "m"):
        return 1
    if head in ("l", "r", "p"):
        return 1 + ref_sig_size(t[1])
    return 1 + ref_sig_size(t[1]) + ref_sig_size(t[2])


def ref_subtrees(t):
    head = t[0]
    if head in ("e", "m"):
        return frozenset([t])
    if head in ("l", "r", "p"):
        return frozenset([t]) | ref_subtrees(t[1])
    return frozenset([t]) | ref_subtrees(t[1]) | ref_subtrees(t[2])


def test_readers_match_the_recursive_references():
    """Over the standard signatures up to size 5, their simplifications
    (p included) and the SLL alphabet; leq over every pair."""
    memo = {}
    sigs = sorted({u for t in all_standard_sigs(5)
                   for u in simplifications(t, memo)})
    sigs += all_standard_sigs(1, (1, 2))[1:]
    assert len(sigs) > 80 and any(not standard(t) for t in sigs)
    for t in sigs:
        assert standard(t) == ref_standard(t), t
        assert quasi_standard(t) == ref_quasi_standard(t), t
        assert sig_size(t) == ref_sig_size(t), t
        assert subtrees(t) == ref_subtrees(t), t
    for u in sigs:
        for t in sigs:
            assert leq(u, t) == ref_leq(u, t), (u, t)
    assert leq(psig(E), nsig(lsig(E), E)) and not leq(nsig(E, E), psig(E))


DEEP_SIGNATURES_SCRIPT = """
import sys
from pnlab.signatures import (E, leq, lsig, nsig, psig, quasi_standard,
                              sig_size, standard, subtrees)
ls, ns, firsts, ps = E, E, E, E
for _ in range(3000):
    ls, ns, firsts, ps = lsig(ls), nsig(E, ns), nsig(firsts, E), psig(ps)
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
for t in (ls, ns, firsts, ps):
    print(len(subtrees(t)), standard(t), quasi_standard(t), leq(t, t),
          sig_size(t))
print(leq(ps, firsts), leq(firsts, ls), quasi_standard(nsig(E, ps)))
"""


def test_deep_signatures_are_read_without_a_frame_per_level():
    """Signatures 3,000 constructors deep, down first children and down
    second children, read under a recursion limit 60 frames above the
    caller's depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", DEEP_SIGNATURES_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines() == [
        "3001 True True True 3001",
        "3001 True True True 6001",
        "3001 True True True 6001",
        "3001 False True True 3001",
        "False False False"]
