"""pnlab benchmark: one workload, a closed loop, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload church-weight --seed 1 --seconds 20 --trace 0

One client runs one operation at a time, each starting when the previous
one ends, in one process and one thread.  The loop runs whole rounds (every
size of the workload once, in a seed-drawn order) until `--seconds` have
passed and at least MIN_ROUNDS rounds are done, so every run has the same
mix of sizes.  Each answer is checked against expected.json after its
timing; a wrong answer or an exception counts as a failure.

Operation timings are reported in reference seconds.  Right before each
operation the benchmark times calibration_work(), a fixed piece of
pure-Python work, and scales the operation's wall time by CAL_REF_S over
the calibration time around it.  On a shared host the CPU can run at half
speed for tens of seconds; the scaling cancels that, because the
calibration slows by about as much.  Wall times are printed too.

With --trace 0 the last line of stdout is the end-to-end metrics; with
--trace 1 it is the per-layer metrics of a separate traced run, per round,
plus the tracing overhead.  Spans go to .bench_out/ in the checkout.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 12  # keeps op_tail_s inside the largest size's operations
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
CAL_REF_S = 0.0085  # calibration_work() in a run on an unloaded reference host


class BenchError(Exception):
    pass


def load_pnlab():
    """Import pnlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "pnlab" / "__init__.py").is_file():
        raise BenchError(f"no pnlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pnlab

    if Path(pnlab.__file__).resolve().parent != SRC / "pnlab":
        raise BenchError(f"pnlab was imported from {pnlab.__file__}, not {SRC}")


# --- one pass over whole rounds ------------------------------------------------


def calibration_work() -> int:
    """A fixed amount of the work pnlab does most: building tuples and
    frozensets, hashing them into a small dict, formatting short strings."""
    seen: dict = {}
    acc = 0
    for i in range(12000):
        key = (f"e{i % 97}", i % 5)
        seen[key] = seen.get(key, 0) + len(frozenset((i % 11, i % 13, key)))
        acc += (i * i) % 17
    return acc + len(seen)


def calibrate() -> float:
    """Wall seconds of one calibration_work()."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


@dataclass
class Pass:
    """The outcome of one pass over whole rounds."""

    # (size label, wall s, calibration s) per operation that returned, in order
    ops: list[tuple[str, float, float]]
    failures: list[str]
    attempted: int
    rounds: int
    wall: float  # including the collections and checks between operations

    def wall_times(self, label: str | None = None) -> list[float]:
        return [t for lb, t, _ in self.ops if label in (None, lb)]

    def reference_times(self, label: str) -> list[float]:
        """Wall times scaled to reference seconds.  Each is scaled by
        CAL_REF_S over the median calibration of the five operations around
        it, which follows the host's speed but not one calibration's noise."""
        cal = [c for _, _, c in self.ops]
        return [t * CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 3])
                for i, (lb, t, _) in enumerate(self.ops) if lb == label]


def run_rounds(workload, cases, seed, expected, *, seconds=0.0, min_rounds=1,
               rounds=None, on_case=None) -> Pass:
    """Run whole rounds; stop after `rounds` of them, or once both
    `seconds` have passed and `min_rounds` are done.

    A full garbage collection before each operation, outside its timing,
    starts every operation from a clean heap, as a fresh CLI process would.
    """
    from workloads import round_orders

    out = Pass([], [], 0, 0, 0.0)
    orders = round_orders(cases, seed)
    t0 = time.perf_counter()
    while True:
        if rounds is not None:
            if out.rounds >= rounds:
                break
        elif out.rounds >= min_rounds and time.perf_counter() - t0 >= seconds:
            break
        for case in next(orders):
            if on_case:
                on_case(out.attempted, case.label)
            out.attempted += 1
            gc.collect()
            calib = calibrate()
            start = time.perf_counter()
            try:
                answer = workload.op(case.text)
            except Exception as exc:  # RecursionError and budgets included
                out.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            out.ops.append((case.label, time.perf_counter() - start, calib))
            if answer != expected[case.label]:
                out.failures.append(f"{case.label}: got {answer}")
        out.rounds += 1
    out.wall = time.perf_counter() - t0
    return out


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples above it, and its
    value (nearest rank)."""
    xs = sorted(samples)
    if len(xs) < 11:
        raise BenchError(f"{len(xs)} samples leave no percentile with ten above")
    rank = len(xs) - 10
    return math.floor(100 * rank / len(xs)), xs[rank - 1]


# --- set-up time ---------------------------------------------------------------


def probe_setup(args) -> list[float]:
    """Wall seconds from spawning a fresh interpreter on this script until
    it has imported pnlab and printed every input to pnet text.  These stay
    wall seconds: process start-up and imports do not slow with the host in
    step with calibration_work()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with code {proc.returncode}")
        out.append(elapsed)
    return out


# --- the two kinds of run -------------------------------------------------------


def timed_run(args, workload, cases, expected) -> dict:
    setup = probe_setup(args)
    timed = run_rounds(workload, cases, args.seed, expected,
                       seconds=args.seconds, min_rounds=MIN_ROUNDS)
    labels = [c.label for c in cases]
    ref = {label: timed.reference_times(label) for label in labels}
    samples = [t for label in labels for t in ref[label]]
    if len(samples) < 11:
        raise BenchError(f"{len(timed.failures)} of {timed.attempted} operations "
                         f"failed; first failure: {timed.failures[0]}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}.ops.json", "w") as fh:
        json.dump({"ops": timed.ops, "setup": setup}, fh)
    pct, tail_s = tail(samples)
    p50 = statistics.median(samples)
    setup_s = statistics.median(setup)
    print(f"{workload.name} seed={args.seed}: {timed.attempted} ops in "
          f"{timed.rounds} rounds of {len(cases)} sizes, {timed.wall:.2f} s, "
          f"{len(timed.failures)} failed")
    for label in labels:
        wall = statistics.median(timed.wall_times(label))
        print(f"  size {label}: median {statistics.median(ref[label]):.4f} "
              f"reference s, {wall:.4f} wall s, over {len(ref[label])} ops")
    print(f"op_p50_s {p50:.4f} s (median of {len(samples)} ops)")
    print(f"op_tail_s {tail_s:.4f} s (p{pct} of {len(samples)} ops)")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup)} fresh processes)")
    values = {
        "setup_s": setup_s,
        "ops_per_s": (timed.attempted - len(timed.failures)) / sum(samples),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result(timed.failures, timed.attempted,
                  {name: (values[name], unit) for name, unit in END_TO_END})


def traced_run(workload, seed, seconds) -> tuple[dict, object]:
    """Per-layer metrics per round, and the tracer that holds the spans.

    The traced pass runs whole rounds until half of `seconds` has passed;
    an untraced pass then repeats the same rounds.  The difference of their
    summed operation times is the tracing overhead.
    """
    from tracer import Tracer
    from workloads import load_expected

    expected = load_expected()[workload.name]
    tr = Tracer()
    with tr.installed():
        cases = workload.cases(seed)

        def on_case(op, label):
            tr.op, tr.label = op, label

        traced = run_rounds(workload, cases, seed, expected, seconds=seconds / 2,
                            on_case=on_case)
    plain = run_rounds(workload, cases, seed, expected, rounds=traced.rounds)
    t_traced, t_plain = sum(traced.wall_times()), sum(plain.wall_times())
    metrics = layer_metrics(tr, [c.label for c in cases], traced.rounds,
                            t_traced - t_plain, t_traced / t_plain)
    print(f"{workload.name} seed={seed}: {traced.rounds} rounds, operations take "
          f"{t_traced:.2f} s traced and {t_plain:.2f} s untraced, "
          f"{len(tr.span_name)} spans")
    return result(traced.failures + plain.failures,
                  traced.attempted + plain.attempted, metrics), tr


def result(failures, attempted, metrics) -> dict:
    for f in failures[:5]:
        print(f"FAILED {f}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
)


# --- per-layer metrics ----------------------------------------------------------


LAYER_METRICS = (
    ("terms.elaborate.s", "s"),
    ("net.parse_net.s", "s"),
    ("net.validate.s", "s"),
    ("net.edge_at.calls", "count"),
    ("net.edge_at.s", "s"),
    ("net.depth.calls", "count"),
    ("net.depth.s", "s"),
    ("net.theta.calls", "count"),
    ("machine.step.calls", "count"),
    ("machine.step.self_s", "s"),
    ("machine.run.self_s", "s"),
    ("machine.run.us_per_step", "us"),
    ("machine.run.us_per_step.growth", "ratio"),
    ("weights.search.calls", "count"),
    ("weights.search.s", "s"),
    ("weights.candidates", "count"),
    ("weights.confirmed", "count"),
    ("weights.confirm_ratio", "ratio"),
    ("weights.copies.self_s", "s"),
    ("weights.reach_memo.entries", "count"),
    ("rewrite.find_cuts.calls", "count"),
    ("rewrite.find_cuts.s", "s"),
    ("rewrite.fire.calls", "count"),
    ("rewrite.fire.s", "s"),
    *((f"rewrite.fire.{k}.calls", "count")
      for k in ("lolli", "tensor", "forall", "bang", "X", "D", "N", "W")),
    ("rewrite.fire.us.growth", "ratio"),
    ("rewrite.normalize.steps_per_s", "1/s"),
    ("rewrite.canonical_key.calls", "count"),
    ("rewrite.canonical_key.s", "s"),
    ("suite.monotonicity.s", "s"),
    ("suite.theorem2.s", "s"),
    ("suite.no_stuck.s", "s"),
    ("suite.reversibility.s", "s"),
    ("suite.recorded_transitions", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tr, labels, rounds, overhead_s, overhead_ratio) -> dict:
    """Everything per round of the workload, except the set-up time of
    elaboration, which happens once.  A layer that does not run reads 0."""

    def agg(span, label):
        nid = tr._nid.get(span)
        return tr.by_label.get((nid, label), (0, 0.0, 0.0))

    def per_round(span, field):
        return sum(agg(span, lb)[field] for lb in labels) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_step(label):
        steps = tr.label_counters.get(("machine.run.steps", label), 0)
        return 1e6 * ratio(agg("machine.run", label)[1], steps)

    def us_per_fire(label):
        calls, total, _ = agg("rewrite.fire", label)
        return 1e6 * ratio(total, calls)

    count = tr.counters.get
    first, last = labels[0], labels[-1]
    m = {
        "terms.elaborate.s": agg("terms.elaborate", "setup")[1],
        "machine.run.us_per_step": 1e6 * ratio(
            per_round("machine.run", 1), count("machine.run.steps", 0) / rounds),
        "machine.run.us_per_step.growth": ratio(us_per_step(last),
                                                us_per_step(first)),
        "weights.confirm_ratio": ratio(count("weights.confirmed", 0),
                                       count("weights.candidates", 0)),
        "rewrite.fire.us.growth": ratio(us_per_fire(last), us_per_fire(first)),
        "rewrite.normalize.steps_per_s": ratio(
            count("rewrite.normalize.steps", 0) / rounds,
            per_round("rewrite.normalize", 1)),
        "trace.overhead_s": overhead_s / rounds,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, _ in LAYER_METRICS:
        if name in m:
            continue
        span, _, field = name.rpartition(".")
        if field == "calls" and span in tr._nid:
            m[name] = per_round(span, 0)
        elif field in ("s", "self_s"):
            m[name] = per_round(span, 1 if field == "s" else 2)
        else:  # a counter kept by a hook
            m[name] = count(name, 0) / rounds
    units = dict(LAYER_METRICS)
    return {name: (m[name], units[name]) for name, _ in LAYER_METRICS}


# --- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_pnlab()
        from workloads import WORKLOADS, load_expected

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        if args.trace:
            res, tr = traced_run(workload, args.seed, args.seconds)
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl"
            tr.write(spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            cases = workload.cases(args.seed)
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            expected = load_expected()[workload.name]
            res = timed_run(args, workload, cases, expected)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
