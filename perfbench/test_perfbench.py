"""The benchmark's own tests: each expected answer is cross-checked once
through a second path, and the tracer is checked to leave pnlab as it found
it and to count the same work on every traced run.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run as bench
import tracer
import workloads as W
from pnlab import rewrite, weights

EXPECTED = W.load_expected()
ATOM = W.atom_name(1)


def _weight_steps(net) -> int:
    _, trace = rewrite.normalize(net, rewrite.TRIANGLE)
    assert trace.status == "normal"
    return sum(1 for s in trace.steps if s.kind in rewrite.WEIGHT_KINDS)


def test_ladder_steps_follow_the_closed_form():
    wl = W.WORKLOADS["ladder-run"]
    for n in wl.sizes:
        assert EXPECTED["ladder-run"][str(n)] == {
            "outcomes": [["final", 8 * 2 ** (n - 1) - 6]]}
    smallest = wl.cases(1)[0]
    assert wl.op(smallest.text) == EXPECTED["ladder-run"][smallest.label]


@pytest.mark.parametrize("k", W.WORKLOADS["church-weight"].sizes)
def test_church_weight_is_the_triangle_x_and_n_count(k):
    """Theorem 2: W equals the number of X and N steps of a triangle
    normalization."""
    net = W.church_applied(k, ATOM)
    assert EXPECTED["church-weight"][str(k)]["weight"] == _weight_steps(net)


def test_composed_normal_forms_agree_across_strategies():
    """Confluence: arrow, double and triangle reach isomorphic normal forms."""
    net = W.composed((3, 2), ATOM)
    keys = set()
    for name in ("arrow", "double", "triangle"):
        nf, trace = rewrite.normalize(net, rewrite.STRATEGIES[name])
        assert trace.status == "normal"
        keys.add(rewrite.canonical_key(nf))
        if name == "triangle":
            exp = EXPECTED["compose-normalize"]["3,2"]
            assert nf.size() == exp["final_size"]
            assert len(trace.steps) == exp["steps"]
            assert dict(Counter(s.kind for s in trace.steps)) == exp["kinds"]
    assert len(keys) == 1


@pytest.mark.parametrize("k", W.WORKLOADS["church-verify"].sizes)
def test_longest_triangle_sequence_is_at_least_the_weight(k):
    net = W.church_applied(k, ATOM)
    w = weights.WeightComputer(net).report().weight
    assert EXPECTED["church-verify"][str(k)]["longest"] >= w


def test_expected_file_covers_every_size():
    for name, wl in W.WORKLOADS.items():
        assert set(EXPECTED[name]) == {wl.label(s) for s in wl.sizes}


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(bench.LAYER_METRICS)


def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(40, 0, -1)]
    assert bench.tail(samples) == (75, 30.0)
    with pytest.raises(bench.BenchError):
        bench.tail(samples[:10])


def _bindings():
    out = {}
    for target in tracer.TARGETS:
        original = tracer.lookup(target)
        for owner, key in tracer.bindings(target, original):
            out[(owner, key)] = original
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    assert len(before) > len(tracer.TARGETS)  # step is bound in several modules
    tr = tracer.Tracer()
    with tr.installed():
        for (owner, key), original in before.items():
            assert getattr(owner, key) is not original
            assert getattr(owner, key).__wrapped__ is original
    for (owner, key), original in before.items():
        assert getattr(owner, key) is original


# the span each workload must exercise, as a per-round call count
EXERCISED = {
    "ladder-run": ("machine.step.calls", "net.edge_at.calls"),
    "church-weight": ("weights.search.calls", "net.edge_at.calls",
                      "machine.step.calls"),
    "compose-normalize": ("rewrite.fire.calls", "rewrite.find_cuts.calls",
                          "net.depth.calls"),
    "church-verify": ("rewrite.canonical_key.calls", "weights.search.calls",
                      "suite.recorded_transitions"),
}


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    wl = W.WORKLOADS[name]
    runs = [bench.traced_run(wl, seed, 0)[0] for seed in (1, 2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert [*res["metrics"]] == [m for m, _ in bench.LAYER_METRICS]
    first, second = (res["metrics"] for res in runs)
    counts = [m for m, unit in bench.LAYER_METRICS if unit == "count"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    for m in EXERCISED[name]:
        assert first[m]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    bench_dir = Path(bench.__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for f in bench_dir.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text(
        (bench_dir / "expected.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
