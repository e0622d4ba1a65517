"""Dataset fitters: multiplicative weights over a tractable working support.

True multiplicative weights maintains a weight for every point of the domain,
which is hopeless at 20+ attributes. The fitter here keeps weights on a
working support instead: a deterministic uniform sample of the domain (the
seed support) plus every point ever observed in a differential. On domains
small enough to enumerate, the working support is the whole domain and the
updates are exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .domain import DomainSchema, WeightedDataset, point_keys, unique_rows
from .queries import MarginalQuery, Workload, eval_query

logger = logging.getLogger(__name__)

DEFAULT_SEED_SUPPORT = 10_000
EXPONENT_CLAMP = 50.0


@dataclass(frozen=True)
class Measurement:
    """Noisy cell estimates for one workload."""

    index: int
    workload: Workload
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.workload.size,):
            raise ValueError(
                f"measurement for workload {self.workload.columns} needs "
                f"{self.workload.size} values, got shape {values.shape}"
            )


@dataclass
class FitStats:
    """Counters of numerical events during fitting, reported in run metadata."""

    clamped_exponents: int = 0


class Fitter(Protocol):
    """Anything that turns noisy workload measurements into a dataset.

    Implementations must return a dataset with the same schema as ``init``
    whose total mass equals ``target_mass`` (to within float round-off) and
    need not be differentially private themselves.
    """

    name: str

    def fit(
        self,
        measurements: Sequence[Measurement],
        init: WeightedDataset,
        target_mass: float,
    ) -> WeightedDataset:
        ...


class WorkingSupport:
    """The set of domain points on which synthetic datasets carry weight.

    Starts as a deterministic uniform sample of the domain (the full domain if
    it fits) and grows by union with every observed differential.
    """

    def __init__(self, schema: DomainSchema, seed_size: int = DEFAULT_SEED_SUPPORT, seed: int = 0):
        if seed_size < 1:
            raise ValueError("seed support size must be >= 1")
        self.schema = schema
        cards = np.asarray(schema.cardinalities, dtype=np.int64)
        if schema.size <= seed_size:
            grids = np.indices(tuple(int(c) for c in cards))
            points = grids.reshape(schema.num_attributes, -1).T.astype(np.int64)
        else:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 3))))
            draws = np.column_stack([rng.integers(0, c, size=seed_size) for c in cards])
            points, _ = unique_rows(schema, draws.astype(np.int64))
        self._points = points

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def observe(self, delta: WeightedDataset) -> None:
        """Union the support with the points of an observed differential."""
        if delta.schema != self.schema:
            raise ValueError("schema mismatch in observe")
        if len(delta) == 0:
            return
        merged, _ = unique_rows(self.schema, np.concatenate([self._points, delta.points]))
        if len(merged) != len(self._points):
            self._points = merged

    def unit_dataset(self) -> WeightedDataset:
        """Weight 1 on every support point (the all-ones initialization)."""
        return WeightedDataset(self.schema, self._points, np.ones(len(self._points)))

    def uniform_dataset(self, mass: float) -> WeightedDataset:
        """Uniform weights over the support with the given total mass."""
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        if mass == 0:
            return WeightedDataset.empty(self.schema)
        n = len(self._points)
        return WeightedDataset(self.schema, self._points, np.full(n, mass / n))

    def extend(self, dataset: WeightedDataset, fill: float = 1.0) -> WeightedDataset:
        """Spread a dataset onto the full support, giving new points ``fill`` weight.

        Multiplicative updates can never revive a zero weight, so points that
        joined the support after the dataset was formed must enter with some
        positive weight; they get the same unit weight a fresh initialization
        would give them.
        """
        if dataset.schema != self.schema:
            raise ValueError("schema mismatch in extend")
        weights = np.full(len(self._points), float(fill))
        if len(dataset):
            support_keys, dataset_keys = point_keys(self.schema, self._points, dataset.points)
            at = np.searchsorted(dataset_keys, support_keys).clip(max=len(dataset_keys) - 1)
            found = dataset_keys[at] == support_keys
            weights[found] = dataset.weights[at[found]]
        return WeightedDataset(self.schema, self._points, weights)


def _rescale(dataset: WeightedDataset, target_mass: float) -> WeightedDataset:
    mass = dataset.total_mass()
    if mass <= 0:
        raise ValueError("cannot fit from a zero-mass dataset")
    return dataset.scale(target_mass / mass)


def _clamped_exp(exponent: float, stats: FitStats | None) -> float:
    if not math.isfinite(exponent):
        raise ValueError(f"non-finite multiplicative-weights exponent {exponent}")
    if abs(exponent) > EXPONENT_CLAMP:
        if stats is not None:
            stats.clamped_exponents += 1
        logger.debug("clamping multiplicative-weights exponent %.3g", exponent)
        exponent = math.copysign(EXPONENT_CLAMP, exponent)
    return math.exp(exponent)


def mw_update(
    h: WeightedDataset,
    query: MarginalQuery,
    measured: float,
    target_mass: float,
    stats: FitStats | None = None,
) -> WeightedDataset:
    """One multiplicative-weights step for a single marginal query.

    Every point matching the query has its weight multiplied by
    exp((measured - q(h)) / (2 * target_mass)); the result is renormalized to
    ``target_mass``. A measurement equal to q(h) is a fixed point.
    """
    if target_mass <= 0:
        raise ValueError("target mass must be positive")
    if h.total_mass() <= 0:
        raise ValueError("multiplicative weights needs a positive-mass dataset")
    current = eval_query(query, h)
    factor = _clamped_exp((measured - current) / (2.0 * target_mass), stats)
    sub = h.points[:, list(query.columns)]
    mask = (sub == np.asarray(query.values, dtype=np.int64)).all(axis=1)
    weights = h.weights.copy()
    weights[mask] *= factor
    total = weights.sum()
    if total <= 0:
        raise ValueError("multiplicative weights drove the total mass to zero")
    weights *= target_mass / total
    return WeightedDataset(h.schema, h.points, weights)


def _apply_measurement(
    points: np.ndarray,
    weights: np.ndarray,
    measurement: Measurement,
    target_mass: float,
    stats: FitStats | None,
) -> None:
    """Apply one workload measurement cell by cell, in lexicographic cell order."""
    workload = measurement.workload
    coords = points[:, list(workload.columns)]
    cells = np.ravel_multi_index(tuple(coords.T), workload.cell_shape)
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    uniq, starts = np.unique(sorted_cells, return_index=True)
    bounds = np.append(starts, len(sorted_cells))
    index_of = {int(c): order[bounds[i] : bounds[i + 1]] for i, c in enumerate(uniq)}
    for cell in range(workload.size):
        idx = index_of.get(cell)
        if idx is None:
            continue  # no support in this cell: nothing to reweight
        current = weights[idx].sum()
        factor = _clamped_exp(
            (float(measurement.values[cell]) - current) / (2.0 * target_mass), stats
        )
        weights[idx] *= factor
        total = weights.sum()
        if total <= 0:
            raise ValueError("multiplicative weights drove the total mass to zero")
        weights *= target_mass / total


def mw_fit(
    measurements: Sequence[Measurement],
    init: WeightedDataset,
    target_mass: float,
    passes: int = 1,
    stats: FitStats | None = None,
) -> WeightedDataset:
    """Rescale ``init`` to the target mass, then sweep the measurement list ``passes`` times."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if target_mass <= 0:
        raise ValueError("target mass must be positive")
    h = _rescale(init, target_mass)
    if not measurements:
        return h
    points = h.points.copy()
    weights = h.weights.copy()
    for _ in range(passes):
        for measurement in measurements:
            _apply_measurement(points, weights, measurement, target_mass, stats)
    return WeightedDataset(h.schema, points, weights)


class MultiplicativeWeightsFitter:
    """Multiplicative weights over the working support.

    Called with the measurements selected so far this step (oldest first), it
    applies the newest one; with ``passes`` > 1 it then replays the whole list
    ``passes - 1`` more times.
    """

    name = "mw"

    def __init__(self, support: WorkingSupport, passes: int = 1):
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.support = support
        self.passes = passes
        self.stats = FitStats()

    def fit(
        self,
        measurements: Sequence[Measurement],
        init: WeightedDataset,
        target_mass: float,
    ) -> WeightedDataset:
        if not measurements:
            return _rescale(init, target_mass)
        h = mw_fit([measurements[-1]], init, target_mass, passes=1, stats=self.stats)
        if self.passes > 1:
            h = mw_fit(measurements, h, target_mass, passes=self.passes - 1, stats=self.stats)
        return h


def make_fitter(name: str, support: WorkingSupport, passes: int = 1) -> MultiplicativeWeightsFitter:
    if name == "mw":
        return MultiplicativeWeightsFitter(support, passes=passes)
    if name == "pgm":
        raise NotImplementedError(
            "graphical-model fitting is an interface slot only; use the 'mw' fitter"
        )
    raise ValueError(f"unknown fitter {name!r}")
