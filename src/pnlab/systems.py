"""Subsystem profiles: membership, machine invariants and soundness bounds.

ELL, SLL and LLL are rule restrictions of the same engine, captured here as
profiles over allowed vertex labels, signature constructors and the jump
transitions.  `bounds` evaluates the soundness recurrences and checks each
against a cap of _CAP_BITS bits as it grows: the elementary ones explode
quickly, so a bound past the cap is not built, and reports print it as
astronomically larger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import net as N
from .machine import Context, MachineConfig, sig_count, step
from .signatures import E
from .weights import WeightComputer, canonical_walk

_BASE = frozenset(N.BASE_LABELS)

PROFILES = {
    "MELL": _BASE,
    "ELL": _BASE - {N.DER, N.DIG},
    "SLL": (_BASE - {N.CONTR, N.DER, N.DIG}) | {N.MUX},
    "LLL": (_BASE - {N.DER, N.DIG}) | {N.RSEC, N.LSEC},
}


@dataclass(frozen=True)
class SystemProfile:
    tag: str
    allowed_labels: frozenset[str]
    bang_box_max_doors: int | None = None

    @staticmethod
    def of(tag: str) -> "SystemProfile":
        if tag not in PROFILES:
            raise ValueError(f"unknown system {tag!r}")
        return SystemProfile(tag, PROFILES[tag], 1 if tag == "LLL" else None)


def check_membership(net: N.ProofNet, system: str) -> list[str]:
    profile = SystemProfile.of(system)
    out = []
    for v in net.vertices_sorted():
        if v.label not in profile.allowed_labels:
            out.append(f"vertex {v.id}: label {v.label} not allowed in {system}")
    if system != "LLL":
        for e in net.edges_sorted():
            if "('sec', " in e.formula.canon:  # see alpha_canon
                out.append(f"edge {e.id}: sec formulas need LLL mode")
    if profile.bang_box_max_doors is not None:
        for pid, b in net.boxes.items():
            if net.vertices[pid].label == N.RBANG \
                    and len(b.doors) > profile.bang_box_max_doors:
                out.append(
                    f"box {pid}: bang boxes in {system} admit at most "
                    f"{profile.bang_box_max_doors} premise(s), found {len(b.doors)}")
    return out


# --- machine-level invariants ----------------------------------------------


def check_stratification(transitions) -> list[str]:
    """Signature count preservation along the given transitions (ELL)."""
    out = []
    for c, d in transitions:
        before = sig_count(c.us) + sig_count(c.stack)
        after = sig_count(d.us) + sig_count(d.stack)
        if before != after:
            out.append(f"{c} -> {d} changes the signature count "
                       f"{before} -> {after}")
    return out


def check_sll_prefix(transitions) -> list[str]:
    """Bottom stack element is stable while the stack has depth (SLL)."""
    out = []
    for c, d in transitions:
        if len(c.stack) >= 2 and d.stack and c.stack[0] != d.stack[0]:
            out.append(f"{c} -> {d} rewrites the stack bottom")
    return out


def probe_contexts(net: N.ProofNet) -> list[Context]:
    """A family of contexts exercising the branching-prone rules."""
    probes = []
    for e in net.box_edges():
        pad = (E,) * net.depth(e)
        probes.append(Context(e, pad, (E,), "-"))
        probes.append(Context(e, pad, (E,), "+"))
    return probes


def check_determinacy(net: N.ProofNet, config: MachineConfig | None = None,
                      extra_contexts=()) -> tuple[bool, Context | None]:
    """True iff every probed or supplied context has at most one successor."""
    config = config or MachineConfig()
    for c in list(probe_contexts(net)) + list(extra_contexts):
        if len(step(net, c, config)) > 1:
            return False, c
    return True, None


# --- soundness bounds -------------------------------------------------------

_CAP_BITS = 10**6


def bounds(system: str, n: int, x: int) -> int | None:
    """The bound as an exact int, or None once it passes _CAP_BITS bits.

    For MELL the first argument is the weight and the Theorem-1 polynomial
    (2x^2+x)(n+1) is returned; for the subsystems it is the box-depth.  A
    recurrence is checked against the cap as it grows: for x >= 1 its values
    only grow, so a value past the cap means the bound is past it too.
    """
    if n < 0 or x < 0:
        raise ValueError("bounds arguments must be naturals")
    if system == "MELL":
        value = (2 * x * x + x) * (n + 1)
    elif system == "SLL":
        value = x ** (n + 2)
    elif system == "ELL":
        r = _ell_r(n + 1, x)
        if r is None:
            return None
        value = x * r
    elif system == "LLL":
        r = 1
        for _ in range(n):
            r = r * (x * r)
            if r.bit_length() > _CAP_BITS:
                return None
        value = x * r * (x * r)
    else:
        raise ValueError(f"unknown system {system!r}")
    return value if value.bit_length() <= _CAP_BITS else None


def _ell_r(n: int, x: int):
    """r_n of the ELL recurrence r_0 = 1, r_(k+1) = r_k * 2^(x r_k + 1), or
    None once a value passes _CAP_BITS bits.  The ELL bound at depth n is
    x * r_(n+1)."""
    r = 1
    for _ in range(n):
        exp = x * r + 1
        if exp > _CAP_BITS:
            return None
        r = r * (1 << exp)
        if r.bit_length() > _CAP_BITS:
            return None
    return r


def _ell_q(n: int, x: int):
    """The factor r_(n+1) / r_n = 2^(x r_n + 1), or None past the cap."""
    r = _ell_r(n, x)
    if r is None:
        return None
    exp = x * r + 1
    if exp > _CAP_BITS:
        return None
    return 1 << exp


@dataclass
class SoundnessReport:
    system: str
    ok: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    weight: int | None = None

    def add(self, name: str, good: bool, detail: str = ""):
        self.checks.append((name, good, detail))
        if not good:
            self.ok = False

    def to_dict(self):
        return {
            "system": self.system,
            "ok": self.ok,
            "weight": self.weight,
            "checks": [
                {"name": n, "ok": g, "detail": d} for n, g, d in self.checks
            ],
        }


def verify_soundness(net: N.ProofNet, system: str,
                     config: MachineConfig | None = None) -> SoundnessReport:
    report = SoundnessReport(system, True)
    violations = check_membership(net, system)
    report.add("membership", not violations, "; ".join(violations))
    if violations:
        return report

    comp = WeightComputer(net, config)
    wrep = comp.report()
    # no MELL check reads transitions
    transitions = canonical_walk(comp).transitions if system != "MELL" else []
    report.weight = wrep.weight
    size = net.size()
    depth = net.net_depth()

    if system == "MELL" and wrep.weight < 0:
        # only a box-edge with no copy makes W negative, and then Theorem 1
        # does not apply
        report.add("weight-bound", False, f"W={wrep.weight}: some box-edge "
                   "has no copy on a canonical sequence")
    else:
        bound = bounds(system, wrep.weight if system == "MELL" else depth,
                       size)
        if bound is None:
            report.add("weight-bound", True,
                       f"W={wrep.weight}; bound astronomically larger")
        else:
            report.add("weight-bound", wrep.weight <= bound,
                       f"W={wrep.weight} <= {_short(bound)}")

    if system == "ELL":
        for e, be in wrep.entries.items():
            d = net.depth(e)
            lbound = _ell_r(d, size)
            qbound = _ell_q(d, size)
            ok_l = lbound is None or len(be.sequences) <= lbound
            report.add(f"sequences({e})", ok_l,
                       f"|L|={len(be.sequences)} <= {_short(lbound)}")
            for u in be.sequences:
                okq = qbound is None or be.cardinalities[u] <= qbound
                report.add(f"cardinality({e})", okq,
                           f"R={be.cardinalities[u]} <= {_short(qbound)}")
        strat = check_stratification(transitions)
        report.add("stratification", not strat, "; ".join(strat[:3]))

    if system == "SLL":
        for e, be in wrep.entries.items():
            for u in be.sequences:
                report.add(f"cardinality({e})", be.cardinalities[u] <= size,
                           f"R={be.cardinalities[u]} <= |G|={size}")
            lb = size ** net.depth(e)
            report.add(f"sequences({e})", len(be.sequences) <= lb,
                       f"|L|={len(be.sequences)} <= {lb}")
        report.add("stack-prefix", not check_sll_prefix(transitions), "")

    if system == "LLL":
        ok, witness = check_determinacy(
            net, config, extra_contexts=[c for c, _ in transitions])
        report.add("determinacy", ok, "" if ok else f"branching at {witness}")
        for e, be in wrep.entries.items():
            for u in be.sequences:
                finals = {}
                for t in sorted(be.copies[u]):
                    start = Context(e, u, (t,), "+")
                    for end in canonical_walk(comp, [start]).finals:
                        if end in finals and finals[end] != t:
                            report.add(f"injectivity({e})", False,
                                       f"copies {finals[end]} and {t} share {end}")
                        finals[end] = t
                report.add(f"injectivity({e})", True, f"{len(finals)} final(s)")
    return report


def _short(v) -> str:
    if v is None:
        return "(astronomical)"
    if v.bit_length() > 4000:
        return f"(about 2^{v.bit_length() - 1})"
    s = str(v)
    return s if len(s) <= 40 else f"{s[:12]}...({len(s)} digits)"
