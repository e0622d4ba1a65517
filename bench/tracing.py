"""Spans and counts recorded around dpstream's public functions, from outside.

A `Tracer` rebinds each traced function at every name a caller looks it up
under (a module-level name anywhere in the `dpstream` package, or a class
attribute for methods and constructors), records one span per call and puts
the originals back on exit. Spans are kept in memory as
(name, start_ns, end_ns, parent, run_id) tuples and written out at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Boundary names in report order. Every one is reported, fired or not.
BOUNDARIES = (
    "harness.load_schema",
    "harness.ingest_csv",
    "harness.build_stream",
    "harness.run_triple",
    "domain.WeightedDataset",
    "domain.accumulate",
    "domain.dataset_mean",
    "queries.eval_workload.select",
    "queries.eval_workload.evaluate",
    "queries.eval_workload.other",
    "mechanisms.exponential_mechanism",
    "mechanisms.BudgetLedger.spend",
    "mechanisms.NoiseSource.laplace_vector",
    "counters.MultiDimCounter",
    "counters.MultiDimCounter.feed",
    "counters.MultiDimCounter.peek",
    "fitters.WorkingSupport.observe",
    "fitters.WorkingSupport.extend",
    "fitters.WorkingSupport.uniform_dataset",
    "fitters.MultiplicativeWeightsFitter.fit",
    "algorithms.step",
    "evaluation.evaluate_step",
)

# Counts recorded at the boundaries, with their units.
COUNTS = {
    "domain.WeightedDataset.rows_in": "count",
    "domain.WeightedDataset.presorted_share": "ratio",
    "queries.eval_workload.rows": "count",
    "counters.MultiDimCounter.cells": "count",
    "counters.MultiDimCounter.feed.cells": "count",
    "fitters.MultiplicativeWeightsFitter.fit.cell_ops": "count",
    "fitters.support_points": "count",
    "fitters.WorkingSupport.observe.grew_share": "ratio",
    "fitters.clamped_exponents": "count",
    "mechanisms.BudgetLedger.entries": "count",
}

Span = tuple[str, int, int, int, int]

# Span name for the tracer's own bookkeeping around a call. Recorded as a
# sibling of the traced span, so it is excluded from every ancestor's self time.
HOOKS = "trace.hooks"


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the part of its interval its children cover.

    A span's parent is an index into `spans` (-1 for a root). Child intervals
    are clipped to the parent and merged before subtracting, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name; unfired BOUNDARIES get zeros."""
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in BOUNDARIES}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (end - start) / 1e9
        row["self_s"] += own / 1e9
    return table


def _presorted(points: Any, weights: Any, width: int) -> bool:
    """True if rows are strictly increasing in lexicographic order and weights positive."""
    pts = np.asarray(points).reshape(-1, width)
    w = np.asarray(weights).reshape(-1)
    if not (w > 0).all():
        return False
    if len(pts) < 2:
        return True
    diff = pts[1:] - pts[:-1]
    nonzero = diff != 0
    first = nonzero.argmax(axis=1)
    lead = diff[np.arange(len(diff)), first]
    return bool(nonzero.any(axis=1).all() and (lead > 0).all())


class Tracer:
    """Records spans and counts while active; restores every patched name on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self.cycles = 0  # how many times the tracer was entered
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._fitters: dict[int, Any] = {}

    # -- recording -------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        name: str | Callable[[], str],
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name()
            parent = stack[-1][0] if stack else -1
            token = None
            if before:
                h0 = clock()
                token = before(*args, **kwargs)
                spans.append((HOOKS, h0, clock(), parent, self.run_id))
            idx = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append((idx, label))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.run_id)
            if after:
                h0 = clock()
                after(token, result, *args, **kwargs)
                spans.append((HOOKS, h0, clock(), parent, self.run_id))
            return result

        return traced

    def _eval_workload_name(self) -> str:
        for _, label in reversed(self._stack):
            if label == "algorithms.step":
                return "queries.eval_workload.select"
            if label == "evaluation.evaluate_step":
                return "queries.eval_workload.evaluate"
        return "queries.eval_workload.other"

    # -- patching --------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _rebind_function(self, fn: Callable, wrapper: Callable) -> None:
        """Point every dpstream module-level name bound to `fn` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dpstream" or mod_name.startswith("dpstream.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _method(self, cls: type, attr: str, name: str, before=None, after=None) -> None:
        self._set(cls, attr, self._wrap(cls.__dict__[attr], name, before, after))

    def __enter__(self) -> "Tracer":
        import dpstream
        from dpstream import counters, domain, evaluation, fitters, harness, mechanisms, queries

        counts = self.counts
        self.cycles += 1

        def next_run(*args, **kwargs):
            self.run_id += 1

        self._rebind_function(
            harness.run_triple, self._wrap(harness.run_triple, "harness.run_triple", before=next_run)
        )
        for fn, name in (
            (harness.load_schema, "harness.load_schema"),
            (harness.ingest_csv, "harness.ingest_csv"),
            (harness.build_stream, "harness.build_stream"),
            (domain.accumulate, "domain.accumulate"),
            (domain.dataset_mean, "domain.dataset_mean"),
            (mechanisms.exponential_mechanism, "mechanisms.exponential_mechanism"),
            (evaluation.evaluate_step, "evaluation.evaluate_step"),
        ):
            self._rebind_function(fn, self._wrap(fn, name))

        def eval_rows(_token, _result, workload, dataset):
            counts["queries.eval_workload.rows"] += len(dataset)

        self._rebind_function(
            queries.eval_workload,
            self._wrap(queries.eval_workload, self._eval_workload_name, after=eval_rows),
        )

        def dataset_in(_token, _result, ds, schema, points, weights):
            rows = np.asarray(weights).size
            counts["domain.WeightedDataset.rows_in"] += rows
            if rows:  # an empty input skips the sort, so it is left out of the share
                counts["domain.WeightedDataset.nonempty"] += 1
                counts["domain.WeightedDataset.presorted"] += _presorted(points, weights, schema.num_attributes)

        self._method(domain.WeightedDataset, "__init__", "domain.WeightedDataset", after=dataset_in)

        def ledger_size(ledger, *args, **kwargs):
            counts["mechanisms.BudgetLedger.entries"] += len(ledger.entries)

        self._method(mechanisms.BudgetLedger, "spend", "mechanisms.BudgetLedger.spend", before=ledger_size)
        self._method(mechanisms.NoiseSource, "laplace_vector", "mechanisms.NoiseSource.laplace_vector")

        def counter_cells(_token, _result, counter, *args, **kwargs):
            counts["counters.MultiDimCounter.cells"] += len(counter)

        def fed_cells(_token, _result, counter, values):
            counts["counters.MultiDimCounter.feed.cells"] += np.asarray(values).size

        self._method(counters.MultiDimCounter, "__init__", "counters.MultiDimCounter", after=counter_cells)
        self._method(counters.MultiDimCounter, "feed", "counters.MultiDimCounter.feed", after=fed_cells)
        self._method(counters.MultiDimCounter, "peek", "counters.MultiDimCounter.peek")

        def support_before(support, delta):
            return len(support)

        def support_after(size_before, _result, support, delta):
            counts["fitters.WorkingSupport.observe.calls"] += 1
            counts["fitters.WorkingSupport.observe.grown"] += len(support) > size_before
            counts["fitters.support_points"] = max(counts["fitters.support_points"], len(support))

        self._method(
            fitters.WorkingSupport, "observe", "fitters.WorkingSupport.observe",
            before=support_before, after=support_after,
        )
        self._method(fitters.WorkingSupport, "extend", "fitters.WorkingSupport.extend")
        self._method(fitters.WorkingSupport, "uniform_dataset", "fitters.WorkingSupport.uniform_dataset")

        def fit_ops(_token, _result, fitter, measurements, init, target_mass):
            self._fitters[id(fitter)] = fitter
            applied = [measurements[-1]] + list(measurements) * (fitter.passes - 1) if measurements else []
            counts["fitters.MultiplicativeWeightsFitter.fit.cell_ops"] += sum(
                len(np.unique(m.workload.cell_indices(init))) * len(init) for m in applied
            )

        self._method(
            fitters.MultiplicativeWeightsFitter, "fit", "fitters.MultiplicativeWeightsFitter.fit",
            after=fit_ops,
        )

        for cls in (dpstream.StreamingMwem, dpstream.CounterSynthesizer):
            self._method(cls, "step", "algorithms.step")
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """`summarize` of the recorded spans, per traced cycle."""
        per = max(self.cycles, 1)
        return {name: {k: v / per for k, v in row.items()} for name, row in summarize(self.spans).items()}

    def count_metrics(self) -> dict[str, float]:
        """The counts of COUNTS per traced cycle; shares and the support size are not summed."""
        c = self.counts
        per = max(self.cycles, 1)
        built = c["domain.WeightedDataset.nonempty"]
        observed = c["fitters.WorkingSupport.observe.calls"]
        clamped = sum(f.stats.clamped_exponents for f in self._fitters.values())
        return {
            "domain.WeightedDataset.rows_in": c["domain.WeightedDataset.rows_in"] / per,
            "domain.WeightedDataset.presorted_share": c["domain.WeightedDataset.presorted"] / built if built else 0.0,
            "queries.eval_workload.rows": c["queries.eval_workload.rows"] / per,
            "counters.MultiDimCounter.cells": c["counters.MultiDimCounter.cells"] / per,
            "counters.MultiDimCounter.feed.cells": c["counters.MultiDimCounter.feed.cells"] / per,
            "fitters.MultiplicativeWeightsFitter.fit.cell_ops": c["fitters.MultiplicativeWeightsFitter.fit.cell_ops"] / per,
            "fitters.support_points": c["fitters.support_points"],
            "fitters.WorkingSupport.observe.grew_share": c["fitters.WorkingSupport.observe.grown"] / observed if observed else 0.0,
            "fitters.clamped_exponents": clamped / per,
            "mechanisms.BudgetLedger.entries": c["mechanisms.BudgetLedger.entries"] / per,
        }

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun_id\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")
