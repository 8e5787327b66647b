"""Command-line interface.

Subcommands: check, normalize, weight, machine, verify, gen, lambda,
export-dot.  Exit codes: 0 success, 1 validation or verification failure,
2 budget exhausted, 3 usage or parse error.

Inputs are serialized nets (pnet files) or proof terms (s-expressions);
the two are distinguished by their first token.  --budget, a positive
integer, sets a command's budget; without it the machine's and the
rewriter's defaults hold.  Reports are deterministic; timing is emitted
only on request and lives in its own section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import net as N
from .dot import export_dot
from .families import FAMILIES, FamilyError, gen_family
from .formulas import FormulaError, parse_formula
from .lam import LambdaError, from_lambda, parse_lambda, parse_type
from .machine import (
    BudgetExhausted,
    MachineConfig,
    MachineError,
    parse_context,
    run,
)
from .rewrite import (
    EXPONENTIAL_KINDS,
    REWRITE_BUDGET,
    STRATEGIES,
    WEIGHT_KINDS,
    MetricsBudget,
    RewriteError,
    normalize,
)
from .systems import check_membership, verify_soundness
from .terms import ElaborationError, ParseError, elaborate, parse_proof_term
from .weights import WeightComputer, WeightError

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class InvalidNet(Exception):
    """An input net failed validation; its diagnostics are printed."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_net(text: str) -> N.ProofNet:
    stripped = text.lstrip()
    if stripped.startswith("pnet"):
        return N.parse_net(text)
    if stripped.startswith("("):
        return elaborate(parse_proof_term(text))
    raise CliError("input is neither a pnet file nor a proof term")


def _read_valid_net(path: str) -> tuple[str, N.ProofNet]:
    """The text at path and the net it gives.  When the net is invalid, its
    validation diagnostics are printed and InvalidNet is raised."""
    text = _read_input(path)
    net = _load_net(text)
    diags = N.validate(net)
    for d in diags:
        print(d, file=sys.stderr)
    if diags:
        raise InvalidNet
    return text, net


def _report(text: str, net: N.ProofNet, **sections) -> dict:
    """A report on the net read from text: the header, then the sections."""
    return {
        "report_version": REPORT_VERSION,
        "input_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stats": {
            "size": net.size(),
            "depth": net.net_depth(),
            "box_edges": len(net.box_edges()),
            "system": net.system,
        },
        **sections,
    }


def _machine_config(args) -> MachineConfig:
    """The machine settings of --budget and, where a command has it,
    --no-jumps."""
    return MachineConfig(
        jumps_enabled=not getattr(args, "no_jumps", False),
        step_budget=args.budget or MachineConfig.step_budget)


def _emit(report: dict):
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    text = _read_input(args.input)
    net = _load_net(text)
    diags = N.validate(net)
    if args.system:
        diags += check_membership(net, args.system)
    for d in diags:
        print(d, file=sys.stderr)
    print(f"check: {'ok' if not diags else f'{len(diags)} problem(s)'}")
    return EXIT_OK if not diags else EXIT_FAIL


def cmd_normalize(args) -> int:
    text, net = _read_valid_net(args.input)
    strategy = STRATEGIES[args.strategy]
    budget = args.budget or REWRITE_BUDGET
    t0 = time.monotonic()
    nf, trace = normalize(net, strategy, budget)
    kinds = [s.kind for s in trace.steps]
    report = _report(text, net, normalize={
        "strategy": args.strategy,
        "steps": len(trace.steps),
        "exponential_steps": sum(1 for k in kinds if k in WEIGHT_KINDS),
        "exponential_rule_steps": sum(1 for k in kinds if k in EXPONENTIAL_KINDS),
        "final_size": nf.size(),
        "status": trace.status,
    })
    if args.timing:
        report["timing"] = {"seconds": time.monotonic() - t0}
    _emit(report)
    if args.trace:
        sys.stdout.write(trace.render())
    if args.out:
        _write_out(N.print_net(nf), args.out)
    return EXIT_OK if trace.status == "normal" else EXIT_BUDGET


def cmd_weight(args) -> int:
    text, net = _read_valid_net(args.input)
    t0 = time.monotonic()
    rep = WeightComputer(net, _machine_config(args)).report()
    report = _report(text, net, weight=rep.to_dict())
    if args.timing:
        report["timing"] = {"seconds": time.monotonic() - t0}
    _emit(report)
    return EXIT_OK


# lines of a machine trace per write
TRACE_BLOCK = 1 << 14


def cmd_machine(args) -> int:
    """Run the machine from --start; write its trace, one numbered line per
    transition, then one line per outcome.  The trace is written a block
    of TRACE_BLOCK lines per write: a block's text is built whole, so its
    size bounds the memory that writing adds to the trace's own."""
    _, net = _read_valid_net(args.input)
    start = parse_context(net, args.start)
    steps: list = []
    result = run(net, start, _machine_config(args), trace=steps)
    for k in range(0, len(steps), TRACE_BLOCK):
        block = enumerate(steps[k:k + TRACE_BLOCK], k + 1)
        sys.stdout.write("".join([f"{i} {c}\n" for i, c in block]))
    outcomes = list(result.outcomes())
    for o in outcomes:
        print(f"outcome {o.kind} after {o.steps} step(s) at {o.context}")
    if any(o.kind == "budget" for o in outcomes):
        return EXIT_BUDGET
    if any(o.kind == "stuck" for o in outcomes):
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite:
        return _verify_suite(args)
    if not args.input:
        raise CliError("verify needs an input net or --suite")
    text, net = _read_valid_net(args.input)
    rep = verify_soundness(net, args.system or net.system, _machine_config(args))
    _emit(_report(text, net, soundness=rep.to_dict()))
    return EXIT_OK if rep.ok else EXIT_FAIL


def _verify_suite(args) -> int:
    from . import suite

    failures = suite.run_suite(verbose=True)
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_gen(args) -> int:
    base = parse_formula(args.base) if args.base else None
    net = gen_family(args.family, tuple(args.sizes), base)
    _write_out(N.print_net(net), args.out)
    return EXIT_OK


def cmd_lambda(args) -> int:
    sig = {}
    for entry in args.sig or ():
        if ":" not in entry:
            raise CliError(f"bad --sig entry {entry!r}; expected name:type")
        name, ty = entry.split(":", 1)
        sig[name.strip()] = parse_type(ty)
    term = parse_lambda(args.term)
    net = from_lambda(term, sig)
    _write_out(N.print_net(net), args.out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    _, net = _read_valid_net(args.input)
    _write_out(export_dot(net), args.out)
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _budget(text: str) -> int:
    """A --budget value, which must be a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pnlab",
        description="proof-net laboratory: cut elimination, token machine, weights")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a net (and optionally membership)")
    c.add_argument("input")
    c.add_argument("--system", choices=list(N.SYSTEMS))
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("normalize", help="normalize under a strategy")
    c.add_argument("input")
    c.add_argument("--strategy", choices=sorted(STRATEGIES), default="arrow")
    c.add_argument("--trace", action="store_true")
    c.add_argument("--budget", type=_budget)
    c.add_argument("--timing", action="store_true")
    c.add_argument("--out", help="write the normal form here")
    c.set_defaults(fn=cmd_normalize)

    c = sub.add_parser("weight", help="compute the weight report")
    c.add_argument("input")
    c.add_argument("--budget", type=_budget)
    c.add_argument("--no-jumps", action="store_true",
                   help="debug: disable the box-premise jump transitions")
    c.add_argument("--timing", action="store_true")
    c.set_defaults(fn=cmd_weight)

    c = sub.add_parser("machine", help="run the token machine")
    c.add_argument("input")
    c.add_argument("--start", required=True,
                   help="context literal: edge / U / V / polarity (edge may be 'concl')")
    c.add_argument("--budget", type=_budget)
    c.set_defaults(fn=cmd_machine)

    c = sub.add_parser("verify", help="check invariants and soundness bounds")
    c.add_argument("input", nargs="?")
    c.add_argument("--system", choices=list(N.SYSTEMS))
    c.add_argument("--suite", action="store_true",
                   help="run the invariant suite over the built-in corpus")
    c.add_argument("--budget", type=_budget)
    c.add_argument("--no-jumps", action="store_true")
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("gen", help="generate an example family net")
    c.add_argument("family", choices=list(FAMILIES))
    c.add_argument("sizes", type=int, nargs="*", metavar="n",
                   help="the family's size, or for compose j and k "
                   "(default 1 each)")
    c.add_argument("--base", help="base formula (default: a)")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_gen)

    c = sub.add_parser("lambda", help="translate a simply typed lambda term")
    c.add_argument("term")
    c.add_argument("--sig", action="append",
                   help="free variable type, name:type (repeatable)")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_lambda)

    c = sub.add_parser("export-dot", help="Graphviz export with boxes as clusters")
    c.add_argument("input")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_export_dot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, FormulaError, ElaborationError, LambdaError,
            MachineError, N.NetError, FamilyError, RewriteError,
            CliError, WeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_USAGE)
    except InvalidNet:
        return EXIT_FAIL
    except (BudgetExhausted, MetricsBudget) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
