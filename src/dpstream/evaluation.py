"""Workload-error metrics comparing a synthetic stream against the true one.

The evaluator is offline analysis: it reads the exact accumulated true dataset
and is not privacy constrained.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .domain import WeightedDataset, checked_int
from .queries import Workload, WorkloadSet, eval_workload


METRIC_NAMES = ("AvgWE", "MaxWE", "AvgRelWE", "MaxRelWE")  # MetricAggregate's fields, as reported


class MetricAggregate(NamedTuple):
    avg_we: float
    max_we: float
    avg_relwe: float
    max_relwe: float


def workload_error(workload: Workload, true_data: WeightedDataset, synthetic: WeightedDataset) -> float:
    """Average absolute cell error over the workload.

    Both cell vectors are divided by the true dataset's total mass first,
    turning counts into frequencies relative to the true data; this is the
    scale the headline numbers are reported on. A zero-mass true dataset is a
    ValueError.
    """
    mass = true_data.total_mass()
    if mass == 0:
        raise ValueError("cannot normalize against a zero-mass true dataset")
    diff = eval_workload(workload, true_data) / mass - eval_workload(workload, synthetic) / mass
    # abs in place; np.add.reduce(x) / n is what x.mean() computes, without its Python wrapper
    return float(np.add.reduce(np.abs(diff, out=diff)) / diff.size)


def _relative_error_cells(
    workload: Workload, true_data: WeightedDataset, synthetic: WeightedDataset
) -> tuple[float, int]:
    f = eval_workload(workload, true_data)
    g = eval_workload(workload, synthetic)
    mask = f > 0
    kept = int(np.count_nonzero(mask))
    if kept == 0:
        raise ValueError("relative workload error undefined: all true cells are zero")
    if kept < f.size:  # with every true cell positive, no masked copies
        f, g = f[mask], g[mask]
    rel = (f - g) / f
    return float(np.add.reduce(np.abs(rel, out=rel)) / kept), mask.size - kept


def aggregate(we_values: Sequence[float], relwe_values: Sequence[float]) -> MetricAggregate:
    """Mean and max over per-workload errors."""
    if len(we_values) == 0 or len(relwe_values) == 0:
        raise ValueError("cannot aggregate over an empty workload set")
    we, relwe = np.array(we_values, dtype=np.float64), np.array(relwe_values, dtype=np.float64)
    return MetricAggregate(
        avg_we=float(np.add.reduce(we) / we.size),
        max_we=float(np.maximum.reduce(we)),
        avg_relwe=float(np.add.reduce(relwe) / relwe.size),
        max_relwe=float(np.maximum.reduce(relwe)),
    )


def evaluate_step(
    workloads: WorkloadSet, true_data: WeightedDataset, synthetic: WeightedDataset
) -> tuple[MetricAggregate, int]:
    """All four aggregates for one time step, plus the count of excluded
    zero-denominator cells (reported in run metadata)."""
    we, relwe, excluded = [], [], 0
    for w in workloads:
        value, skipped = _relative_error_cells(w, true_data, synthetic)
        relwe.append(value)
        excluded += skipped
        we.append(workload_error(w, true_data, synthetic))
    return aggregate(we, relwe), excluded


def summarize_tail(rows: Sequence[MetricAggregate], window: int) -> dict[str, float]:
    """Per-metric means over the final ``window`` rows, keyed by ``METRIC_NAMES``."""
    window = checked_int(window, 1, "window must be an integer >= 1")
    if len(rows) < window:
        raise ValueError(f"need at least {window} rows, got {len(rows)}")
    # one np.mean per metric: a mean over axis 0 of the 2-D tail sums in another order
    return {name: float(np.mean(column)) for name, column in zip(METRIC_NAMES, zip(*rows[-window:]))}
