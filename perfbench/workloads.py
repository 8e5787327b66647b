"""The four benchmark workloads: inputs, operations and answer checks.

Each workload has a fixed set of sizes.  Set-up turns every size into pnet
text, as `pnlab gen` or `pnlab lambda` would print it.  One operation takes
one of those texts and calls the same public pnlab functions as the
matching subcommand, in the same order, without argparse or stdout.  It
returns an answer dict that is compared with the hand-written expected file
after the operation's timing.

The workload seed picks the name of the base atom and the order of the
sizes within each round.  Every seed therefore runs the same mix of sizes,
and every answer is independent of the seed.

These modules expect `pnlab` to be importable; run.py puts the checkout's
`src` first on the path and checks that the package came from there.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pnlab import families, formulas, lam, machine, rewrite, suite, weights
from pnlab import net as pnet

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# same defaults as the CLI with no --budget flag and no PNLAB_* variables
STEP_BUDGET = 10**7
REWRITE_BUDGET = 10**5
LADDER_START = "concl / eps / a / -"


@dataclass(frozen=True)
class Case:
    """One input of a workload: a size label and the pnet text for it."""

    label: str
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple  # ascending by the work one operation does
    build: Callable[[object, str], object]  # (size, atom) -> ProofNet
    op: Callable[[str], dict]  # pnet text -> answer

    def label(self, size) -> str:
        if isinstance(size, tuple):
            return ",".join(str(x) for x in size)
        return str(size)

    def cases(self, seed: int) -> list[Case]:
        atom = atom_name(seed)
        return [Case(self.label(s), pnet.print_net(self.build(s, atom)))
                for s in self.sizes]


def atom_name(seed: int) -> str:
    return f"t{random.Random(seed).randrange(1000)}"


def round_orders(cases: list[Case], seed: int):
    """Endless rounds; each is every case once, in a seed-drawn order."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(cases, len(cases))


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# --- input families ---------------------------------------------------------


def church_text(k: int, ty: str) -> str:
    body = "x"
    for _ in range(k):
        body = f"f ({body})"
    return f"(\\f:{ty} -> {ty}. \\x:{ty}. {body})"


def _from_lambda(text: str, atom: str):
    sig = {"g": lam.parse_type(f"{atom} -> {atom}"), "z": lam.parse_type(atom)}
    return lam.from_lambda(lam.parse_lambda(text), sig)


def church_applied(k: int, atom: str):
    """church k applied to g z."""
    return _from_lambda(f"{church_text(k, atom)} g z", atom)


def composed(jk: tuple[int, int], atom: str):
    """church j (church k) g z, church j taken at type (a -> a) -> a -> a."""
    j, k = jk
    body = "y"
    for _ in range(j):
        body = f"h ({body})"
    fn = f"({atom} -> {atom})"
    outer = f"(\\h:{fn} -> {fn}. \\y:{fn}. {body})"
    return _from_lambda(f"{outer} {church_text(k, atom)} g z", atom)


def ladder(n: int, atom: str):
    return families.gen_family("dr-ladder", n, formulas.Atom(atom))


# --- operations ---------------------------------------------------------------


def _validated(text: str):
    net = pnet.parse_net(text)
    diags = pnet.validate(net)
    if diags:
        raise ValueError(f"input net is invalid: {diags[0]}")
    return net


def ladder_op(text: str) -> dict:
    """`pnlab machine --start 'concl / eps / a / -'`."""
    net = pnet.parse_net(text)
    config = machine.MachineConfig(step_budget=STEP_BUDGET)
    start = machine.parse_context(net, LADDER_START)
    trace: list = []
    result = machine.run(net, start, config, trace=trace)
    return {"outcomes": [[o.kind, o.steps] for o in result.outcomes()]}


def weight_op(text: str) -> dict:
    """`pnlab weight`."""
    net = _validated(text)
    config = machine.MachineConfig(jumps_enabled=True, step_budget=STEP_BUDGET)
    rep = weights.WeightComputer(net, config).report()
    size, _, _ = net.size(), net.net_depth(), net.box_edges()  # report stats
    d = rep.to_dict()
    return {"size": size, "weight": d["weight"], "t_value": d["t_value"],
            "strictly_positive": d["strictly_positive"], "acyclic": d["acyclic"]}


def normalize_op(text: str) -> dict:
    """`pnlab normalize --strategy triangle`."""
    net = _validated(text)
    nf, trace = rewrite.normalize(net, rewrite.STRATEGIES["triangle"],
                                  REWRITE_BUDGET)
    kinds = Counter(s.kind for s in trace.steps)
    net.size(), net.net_depth(), net.box_edges()  # report stats
    return {"status": trace.status, "steps": len(trace.steps),
            "kinds": dict(sorted(kinds.items())), "final_size": nf.size()}


def verify_op(text: str) -> dict:
    """The invariant suite on one net, then its exact triangle metrics."""
    net = pnet.parse_net(text)
    failures = suite.run_suite(nets={"net": net})
    longest, largest = rewrite.reduction_metrics(net, rewrite.TRIANGLE)
    return {"suite_failures": failures, "longest": longest, "largest": largest}


# the reason for each workload is in BENCHMARK.json and NOTES.md
WORKLOADS = {w.name: w for w in (
    Workload("ladder-run", (9, 10, 11), ladder, ladder_op),
    Workload("church-weight", (12, 16, 20), church_applied, weight_op),
    Workload("compose-normalize", ((2, 2), (2, 3), (3, 2)), composed,
             normalize_op),
    Workload("church-verify", (2, 3, 4), church_applied, verify_op),
)}
