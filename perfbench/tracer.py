"""Spans recorded around fairaudit's module functions, kept in memory, and the
statistics the benchmark derives from them.

The wrappers are installed where `fairaudit.harness` and `fairaudit.cli` look
the functions up (module globals and class attributes), so no file of the
program changes and every wrapper is removed when `instrument` exits.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

# a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: str             # command id, or "<command id>.t<n>" inside a trial


class Tracer:
    """Collects spans and counts for one traced pass; one thread only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), math.nan, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def wrap(self, name: str, fn, observe=None):
        """`fn` inside a span; `observe(counts, result, args)` runs after the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, result, args)
            return result

        return traced

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND samples lie above it."""
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def _count_len(key):
    def observe(counts, result, args):
        counts[key] += len(result)
    return observe


def _observe_fit(counts, model, args):
    counts["model.fit.calls"] += 1
    counts["model.fit.iters"] += model.n_iters
    counts["model.fit.converged"] += int(model.converged)
    counts["model.train_rows"] += len(args[0])


def _traced_outcomes(tracer: Tracer, base, rows_key: str | None):
    """A GroupedOutcomes subclass whose construction, from_labeled included, is a span."""

    class TracedOutcomes(base):
        def __init__(self, *args, **kwargs):
            with tracer.span("metrics.outcomes"):
                super().__init__(*args, **kwargs)
            if rows_key is not None:
                tracer.counts[rows_key] += int(self.group.size)

        @classmethod
        def from_labeled(cls, *args, **kwargs):
            with tracer.span("metrics.outcomes"):
                return super().from_labeled(*args, **kwargs)

    return TracedOutcomes


@contextmanager
def instrument(tracer: Tracer, cli, harness):
    """Wrap the functions `cli` and `harness` call in spans for the duration of the block."""
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def traced(owner, attr, name, observe=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))

    def observe_audit(counts, report, args):
        for metric in harness.METRIC_NAMES:
            counts["metrics.values"] += 1
            counts["metrics.undefined"] += int(report.metric(metric).status != "ok")

    run_trial = harness.run_trial

    def traced_trial(*args, **kwargs):
        outer = tracer.op
        tracer.counts["harness.trials"] += 1
        tracer.op = f"{outer}.t{tracer.counts['harness.trials']}"
        try:
            with tracer.span("harness.run_trial"):
                return run_trial(*args, **kwargs)
        except Exception:
            tracer.counts["harness.trials_failed"] += 1
            raise
        finally:
            tracer.op = outer

    try:
        for module in (harness, cli):
            traced(module, "generate_population", "datagen.generate_population",
                   _count_len("datagen.records_generated"))
            traced(module, "build_dataset", "bias.build_dataset", _count_len("bias.rows_kept"))
            traced(module, "audit", "metrics.audit", observe_audit)
            patch(module, "GroupedOutcomes",
                  _traced_outcomes(tracer, module.GroupedOutcomes,
                                   "cli.rows_read" if module is cli else None))
        traced(harness, "make_base_dataset_A", "datagen.base_dataset")
        traced(harness, "make_base_dataset_B", "datagen.base_dataset")
        traced(harness, "build_base", "harness.build_base")
        traced(harness, "run_experiment", "harness.run_experiment")
        patch(harness, "run_trial", traced_trial)
        traced(harness, "split", "model.split")
        traced(harness, "fit", "model.fit", _observe_fit)
        traced(harness, "predict", "model.predict")
        traced(harness.ExperimentReport, "to_json", "harness.report_write")
        traced(harness.ExperimentReport, "write_csv", "harness.report_write")
        traced(cli, "write_population_csv", "datagen.write_population_csv")
        traced(cli, "write_labeled_csv", "bias.write_labeled_csv")
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
