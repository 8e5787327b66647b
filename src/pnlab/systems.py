"""Subsystem profiles: membership, machine invariants and soundness bounds.

ELL, SLL and LLL are rule restrictions of the same engine, captured here as
profiles over allowed vertex labels, signature constructors and the jump
transitions.  The bound families implement the soundness recurrences; the
elementary ones explode quickly, so comparisons fall back to reporting the
bound as astronomically larger once it stops being worth materializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import net as N
from .formulas import Sec
from .machine import Context, MachineConfig, Recorder, run, sig_count, step
from .signatures import E
from .weights import WeightComputer

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


def _has_sec_formula(f) -> bool:
    if isinstance(f, Sec):
        return True
    return any(_has_sec_formula(getattr(f, k)) for k in ("left", "right", "body")
               if hasattr(f, k))


def check_membership(net: N.ProofNet, system: str) -> list[str]:
    profile = SystemProfile.of(system)
    out = []
    for v in net.vertices_sorted():
        if v.label not in profile.allowed_labels:
            out.append(f"vertex {v.id}: label {v.label} not allowed in {system}")
    if system != "LLL":
        for e in net.edges_sorted():
            if _has_sec_formula(e.formula):
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
    """Signature count preservation along executed transitions (ELL)."""
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


def bounds(system: str, n: int, x: int) -> int:
    """Closed-form / recurrence bound values, exact big integers.

    For MELL the first argument is the weight and the Theorem-1 polynomial
    (2x^2+x)(n+1) is returned; for the subsystems it is the box-depth.
    """
    if n < 0 or x < 0:
        raise ValueError("bounds arguments must be naturals")
    if system == "MELL":
        return (2 * x * x + x) * (n + 1)
    if system == "SLL":
        return x ** (n + 2)
    if system == "ELL":
        return x * _ell_r(n + 1, x, None)
    if system == "LLL":
        r = 1
        for _ in range(n):
            r = r * (x * r)
        return x * r * (x * r)
    raise ValueError(f"unknown system {system!r}")


def _ell_r(n: int, x: int, cap: int | None = _CAP_BITS):
    """r_n of the ELL recurrence r_0 = 1, r_(k+1) = r_k * 2^(x r_k + 1), or
    None once a value passes `cap` bits (no cap when cap is None).  The
    ELL bound at depth n is x * r_(n+1)."""
    r = 1
    for _ in range(n):
        exp = x * r + 1
        if cap is not None and exp > cap:
            return None
        r = r * (1 << exp)
        if cap is not None and r.bit_length() > cap:
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


def _capped_bound(system: str, n: int, x: int):
    """The bound as an int, or None when it is astronomically large."""
    if system == "ELL":
        r = _ell_r(n + 1, x)
        if r is None:
            return None
        value = x * r
    else:
        value = bounds(system, n, x)
    return value if value.bit_length() <= _CAP_BITS else None


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

    recorder = Recorder()
    comp = WeightComputer(net, config, recorder=recorder)
    wrep = comp.report()
    report.weight = wrep.weight
    size = net.size()
    depth = net.net_depth()

    cap = _capped_bound(system, wrep.weight if system == "MELL" else depth, size)
    if cap is None:
        report.add("weight-bound", True,
                   f"W={wrep.weight}; bound astronomically larger")
    else:
        report.add("weight-bound", wrep.weight <= cap,
                   f"W={wrep.weight} <= {_short(cap)}")

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
        strat = check_stratification(recorder.transitions)
        report.add("stratification", not strat, "; ".join(strat[:3]))

    if system == "SLL":
        for e, be in wrep.entries.items():
            for u in be.sequences:
                report.add(f"cardinality({e})", be.cardinalities[u] <= size,
                           f"R={be.cardinalities[u]} <= |G|={size}")
            lb = size ** net.depth(e)
            report.add(f"sequences({e})", len(be.sequences) <= lb,
                       f"|L|={len(be.sequences)} <= {lb}")
        report.add("stack-prefix", not check_sll_prefix(recorder.transitions), "")

    if system == "LLL":
        ok, witness = check_determinacy(
            net, config, extra_contexts=[c for c, _ in recorder.transitions])
        report.add("determinacy", ok, "" if ok else f"branching at {witness}")
        for e, be in wrep.entries.items():
            for u in be.sequences:
                finals = {}
                for t in sorted(be.copies[u]):
                    r = run(net, Context(e, u, (t,), "+"),
                            config or MachineConfig())
                    ends = [o.context for o in r.outcomes() if o.kind == "final"]
                    for end in ends:
                        if end in finals and finals[end] != t:
                            report.add(f"injectivity({e})", False,
                                       f"copies {finals[end]} and {t} share {end}")
                        finals[end] = t
                report.add(f"injectivity({e})", True, f"{len(finals)} final(s)")
    truncation = recorder.truncation()
    if truncation and system != "MELL":  # no MELL check reads transitions
        report.add("recorder", False, truncation)
    return report


def _short(v) -> str:
    if v is None:
        return "(astronomical)"
    if v.bit_length() > 4000:
        return f"(about 2^{v.bit_length() - 1})"
    s = str(v)
    return s if len(s) <= 40 else f"{s[:12]}...({len(s)} digits)"
