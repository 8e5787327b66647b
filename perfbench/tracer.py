"""Spans around the calls into each pnlab layer, recorded from outside src/.

`Tracer.installed()` replaces every target with a timing wrapper wherever
its callers look it up: in each loaded `pnlab` module whose namespace holds
the original object (so `pnlab.machine.step`, `pnlab.weights.step` and
`pnlab.suite.step` are all wrapped), and on the class for methods.  On exit
every name is bound to its original object again.

A span has a name, a start, an end, a parent span and an operation id.
Spans are kept in memory in flat arrays and written out by `write()`.
Self time is a span's duration minus the durations of its direct children;
it is aggregated as spans end, per name and per case label.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import pkgutil
import time
from dataclasses import dataclass
from typing import Callable

import pnlab

# the four rule kinds whose symbols cannot appear in metric names
KIND_NAMES = {"-o": "lolli", "*": "tensor", "forall": "forall", "!": "bang",
              "X": "X", "D": "D", "N": "N", "W": "W"}


@dataclass(frozen=True)
class Target:
    module: str  # pnlab submodule that defines the object
    attr: str  # "name" or "Class.method"
    span: str  # span name, "<layer>.<short name>"
    pre: Callable | None = None  # (tracer, args) -> state
    post: Callable | None = None  # (tracer, args, result, state) -> None


def _copies_pre(tr, args):
    memo = getattr(args[0], "reach_memo", None)
    return tr.calls_of("weights.search"), len(memo) if memo is not None else 0


def _copies_post(tr, args, result, state):
    searches, memo_before = state
    if tr.calls_of("weights.search") > searches:  # a miss: the copies were searched
        tr.add("weights.confirmed", len(result))
    memo = getattr(args[0], "reach_memo", None)
    if memo is not None:
        tr.add("weights.reach_memo.entries", len(memo) - memo_before)


def _search_post(tr, args, result, state):
    tr.add("weights.candidates", len(result))


def _run_post(tr, args, result, state):
    tr.add("machine.run.steps", sum(o.steps for o in result.outcomes()),
           per_label=True)


def _fire_post(tr, args, result, state):
    kind = getattr(args[1], "kind", None)
    tr.add(f"rewrite.fire.{KIND_NAMES.get(kind, 'other')}.calls", 1)


def _normalize_post(tr, args, result, state):
    tr.add("rewrite.normalize.steps", len(result[1].steps))


def _reversibility_post(tr, args, result, state):
    tr.add("suite.recorded_transitions", len(args[1]))


TARGETS = (
    Target("terms", "elaborate", "terms.elaborate"),
    Target("net", "parse_net", "net.parse_net"),
    Target("net", "validate", "net.validate"),
    Target("net", "ProofNet.edge_at", "net.edge_at"),
    Target("net", "ProofNet.depth", "net.depth"),
    Target("net", "ProofNet.theta", "net.theta"),
    Target("machine", "step", "machine.step"),
    Target("machine", "run", "machine.run", post=_run_post),
    Target("weights", "search_copy_candidates", "weights.search",
           post=_search_post),
    Target("weights", "WeightComputer.copies", "weights.copies",
           pre=_copies_pre, post=_copies_post),
    Target("weights", "WeightComputer.report", "weights.report"),
    Target("rewrite", "find_cuts", "rewrite.find_cuts"),
    Target("rewrite", "fire", "rewrite.fire", post=_fire_post),
    Target("rewrite", "normalize", "rewrite.normalize", post=_normalize_post),
    Target("rewrite", "canonical_key", "rewrite.canonical_key"),
    Target("rewrite", "reduction_metrics", "rewrite.reduction_metrics"),
    Target("suite", "run_suite", "suite.run_suite"),
    Target("suite", "check_monotonicity", "suite.monotonicity"),
    Target("suite", "check_theorem2", "suite.theorem2"),
    Target("suite", "check_no_stuck", "suite.no_stuck"),
    Target("suite", "check_reversibility", "suite.reversibility",
           post=_reversibility_post),
)


def pnlab_modules() -> list:
    """Every pnlab submodule, imported, plus the package itself."""
    mods = [pnlab]
    for info in pkgutil.iter_modules(pnlab.__path__, "pnlab."):
        mods.append(importlib.import_module(info.name))
    return mods


def lookup(target: Target):
    """The original object of a target, or None when pnlab lacks it."""
    owner = importlib.import_module(f"pnlab.{target.module}")
    *cls, name = target.attr.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
        return owner.__dict__.get(name) if owner is not None else None
    return getattr(owner, name, None)


def bindings(target: Target, original) -> list[tuple[object, str]]:
    """Every (namespace owner, attribute) that binds original."""
    *cls, name = target.attr.split(".")
    if cls:
        owner = getattr(importlib.import_module(f"pnlab.{target.module}"), cls[0])
        return [(owner, name)]
    return [(mod, key) for mod in pnlab_modules()
            for key, value in vars(mod).items() if value is original]


class Tracer:
    """Spans and their aggregates for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        # spans, one entry per array
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        # (span index, sum of children's durations) for each open span
        self._open: list[list] = []
        self.op = -1  # operation id; -1 is set-up
        self.label = "setup"
        # aggregates: name id -> [calls, total s, self s], per label and overall
        self.by_label: dict[tuple[int, str], list] = {}
        self.totals: dict[int, list] = {}
        self.counters: dict[str, float] = {}
        self.label_counters: dict[tuple[str, str], float] = {}

    def nid(self, name: str) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def calls_of(self, name: str) -> int:
        agg = self.totals.get(self._nid.get(name, -1))
        return agg[0] if agg else 0

    def add(self, counter: str, amount: float, per_label: bool = False):
        self.counters[counter] = self.counters.get(counter, 0) + amount
        if per_label:
            key = (counter, self.label)
            self.label_counters[key] = self.label_counters.get(key, 0) + amount

    def _wrap(self, fn, target: Target):
        tr = self
        nid = self.nid(target.span)
        pre, post = target.pre, target.post

        def traced(*args, **kwargs):
            state = pre(tr, args) if pre else None
            idx = len(tr.span_name)
            opened = tr._open
            tr.span_name.append(nid)
            tr.span_parent.append(opened[-1][0] if opened else -1)
            tr.span_op.append(tr.op)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            frame = [idx, 0.0]
            opened.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                opened.pop()
                tr._close(idx, nid, start, end, frame[1])
            if post:
                post(tr, args, result, state)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, idx: int, nid: int, start: float, end: float,
               children: float):
        self.span_start[idx] = start
        self.span_end[idx] = end
        dur = end - start
        if self._open:
            self._open[-1][1] += dur
        for agg in (self.totals.setdefault(nid, [0, 0.0, 0.0]),
                    self.by_label.setdefault((nid, self.label), [0, 0.0, 0.0])):
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - children

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                original = lookup(target)
                if original is None:
                    continue
                wrapper = self._wrap(original, target)
                for owner, key in bindings(target, original):
                    restore.append((owner, key, original))
                    setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def spans(self):
        """(name, start, end, parent, op) per span, in start order."""
        for i, nid in enumerate(self.span_name):
            yield (self.names[nid], self.span_start[i], self.span_end[i],
                   self.span_parent[i], self.span_op[i])

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")
