"""Dataset fitters: multiplicative weights over a tractable working support.

True multiplicative weights maintains a weight for every point of the domain,
which is hopeless at 20+ attributes. The fitter here keeps weights on a
working support instead: a deterministic uniform sample of the domain (the
seed support), fixed for the whole run so that it depends on no record. On
domains small enough to enumerate, the working support is the whole domain
and the updates are exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import DomainSchema, WeightedDataset, checked_int, lookup_keys, nonzero_mass, row_keys
from .queries import MarginalQuery, Workload, query_mask

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


class WorkingSupport:
    """The fixed set of domain points on which synthetic datasets carry weight.

    A deterministic uniform sample of the domain drawn from the run seed (the
    full domain if it fits). It never changes, so no release holds a point
    that only a record put there. Points are sorted and unique, so a weight
    vector aligned with ``points`` describes the dataset storing its nonzero
    entries. They are held column-major and read-only, together with their
    sorted ``row_keys``, in which ``observe`` and ``extend`` binary-search.
    """

    def __init__(self, schema: DomainSchema, seed_size: int = DEFAULT_SEED_SUPPORT, seed: int = 0):
        seed_size = checked_int(seed_size, 1, "seed support size must be an integer >= 1")
        seed = checked_int(seed, 0, "seed must be a non-negative integer")
        self.schema = schema
        cards = np.asarray(schema.cardinalities, dtype=np.int64)
        if schema.size <= seed_size:
            grids = np.indices(tuple(int(c) for c in cards))
            points = grids.reshape(schema.num_attributes, -1).T.astype(np.int64)
        else:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 3))))
            draws = np.column_stack([rng.integers(0, c, size=seed_size) for c in cards])
            points = draws[np.unique(row_keys(schema, draws), return_index=True)[1]]  # sorted, distinct
        points = np.asfortranarray(points)
        points.flags.writeable = False
        self._points = points
        self._keys = row_keys(schema, points)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def observe(self, delta: WeightedDataset) -> tuple[np.ndarray, np.ndarray]:
        """Look up the points of a differential on the support, which stays as it is.

        Returns ``(at, held)``: the support positions of the points of ``delta``
        that the support holds, and the mask of the rows of ``delta`` they are.
        """
        if delta.schema != self.schema:
            raise ValueError("differential schema does not match the support schema")
        at, held = lookup_keys(self._keys, row_keys(self.schema, delta.points))
        return at[held], held

    def uniform_dataset(self, mass: float) -> WeightedDataset:
        """Uniform weights over the support with the given total mass."""
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        n = len(self._points)
        return WeightedDataset(self.schema, self._points, np.full(n, mass / n))

    def extend(self, dataset: WeightedDataset, fill: float = 1.0) -> WeightedDataset:
        """The dataset's weights at the support's points, with ``fill`` where it has none.

        Multiplicative updates can never revive a zero weight, so support
        points the dataset lacks (such as those whose weights underflowed)
        re-enter with the unit weight a fresh initialization gives them. Points
        of the dataset off the support are dropped.
        """
        if dataset.schema != self.schema:
            raise ValueError("schema mismatch in extend")
        weights = np.full(len(self._points), float(fill))
        if len(dataset):
            at, found = lookup_keys(row_keys(self.schema, dataset.points), self._keys)
            weights[found] = dataset.weights[at[found]]
        return WeightedDataset(self.schema, self._points, weights)


def _rescaled(weights: np.ndarray, target_mass: float) -> np.ndarray:
    mass = nonzero_mass(weights)
    if mass <= 0:
        raise ValueError("cannot fit from a zero-mass dataset")
    return weights * (target_mass / mass)


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
    weights = h.weights.copy()
    matching = query_mask(query, h)
    current = weights[matching].sum()
    weights[matching] *= _clamped_exp((measured - current) / (2.0 * target_mass), stats)
    total = weights.sum()
    if total <= 0:
        raise ValueError("multiplicative weights drove the total mass to zero")
    weights *= target_mass / total
    return WeightedDataset(h.schema, h.points, weights)


def _apply_measurement(
    weights: np.ndarray,
    cells: np.ndarray,
    values: np.ndarray,
    target_mass: float,
    stats: FitStats | None,
) -> None:
    """Apply one workload measurement in place: one ``mw_update`` per cell, in
    lexicographic cell order, computed in one pass over ``weights``.

    The cells partition the support and each renormalization scales every
    weight alike, so only the cell sums S move: when cell c's turn comes, its
    mass is M * S_c / (updated + pending), where ``updated`` sums S * f over the
    cells already done and ``pending`` sums S from c on. Both are sums of
    nonnegative terms, so the ratio cannot cancel to zero. Cells with no
    live support are skipped: there is nothing to reweight. So are cells
    whose mass underflows to 0 by their turn, as in per-cell updates, where an
    earlier cell's renormalization zeroes their weights; those stay 0.
    """
    sums = np.bincount(cells, weights=weights, minlength=len(values))
    pending = np.cumsum(sums[::-1])[::-1].tolist()
    factors = [1.0] * len(values)
    updated = 0.0
    for c, (cell_sum, measured) in enumerate(zip(sums.tolist(), values.tolist())):
        if cell_sum == 0:
            continue
        current = target_mass * cell_sum / (updated + pending[c])
        if current == 0:
            factors[c] = 0.0
            continue
        x = (measured - current) / (2.0 * target_mass)  # NaN and the clamped go through _clamped_exp
        factors[c] = math.exp(x) if -EXPONENT_CLAMP <= x <= EXPONENT_CLAMP else _clamped_exp(x, stats)
        updated += cell_sum * factors[c]
    if updated <= 0:
        raise ValueError("multiplicative weights drove the total mass to zero")
    weights *= np.array(factors)[cells]
    weights *= target_mass / updated


def mw_weights(
    weights: np.ndarray,
    cells: Sequence[np.ndarray],
    values: Sequence[np.ndarray],
    target_mass: float,
    passes: int = 1,
    stats: FitStats | None = None,
) -> np.ndarray:
    """Multiplicative weights on a weight vector; every fit runs through here.

    Rescales ``weights`` to the target mass, then sweeps the measurements
    ``passes`` times: ``cells[i]`` gives the cell of every entry of ``weights``
    in the i-th measured workload and ``values[i]`` its noisy cell values.
    A zero entry adds +0.0 to its cell's sum and stays 0, so the result is
    bit for bit that of the dataset storing only the nonzero entries. Returns
    a new vector aligned with ``weights``; weights that underflow come back as 0.
    """
    passes = checked_int(passes, 1, "passes must be an integer >= 1")
    if target_mass <= 0:
        raise ValueError("target mass must be positive")
    out = _rescaled(weights, target_mass)
    for _ in range(passes):
        for c, v in zip(cells, values):
            _apply_measurement(out, c, v, target_mass, stats)
    return out


def mw_fit(
    measurements: Sequence[Measurement],
    init: WeightedDataset,
    target_mass: float,
    passes: int = 1,
    stats: FitStats | None = None,
) -> WeightedDataset:
    """Rescale ``init`` to the target mass, then sweep the measurement list ``passes`` times."""
    cells = [m.workload.cell_indices(init) for m in measurements]
    weights = mw_weights(
        init.weights, cells, [m.values for m in measurements], target_mass, passes, stats
    )
    return WeightedDataset(init.schema, init.points, weights)


class MultiplicativeWeightsFitter:
    """Multiplicative weights over the working support.

    Called with the workloads measured so far this step (oldest first), it
    applies the newest measurement; with ``passes`` > 1 it then replays the
    whole list ``passes - 1`` more times.
    """

    def __init__(self, passes: int = 1):
        self.passes = checked_int(passes, 1, "passes must be an integer >= 1")
        self.stats = FitStats()

    def fit_weights(
        self,
        cells: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        weights: np.ndarray,
        target_mass: float,
    ) -> np.ndarray:
        """``fit`` on a weight vector: the i-th measured workload's cells and noisy values."""
        if not cells:
            return _rescaled(weights, target_mass)
        out = mw_weights(weights, cells[-1:], values[-1:], target_mass, 1, self.stats)
        if self.passes > 1:
            out = mw_weights(out, cells, values, target_mass, self.passes - 1, self.stats)
        return out

    def fit(
        self,
        measurements: Sequence[Measurement],
        init: WeightedDataset,
        target_mass: float,
    ) -> WeightedDataset:
        cells = [m.workload.cell_indices(init) for m in measurements]
        weights = self.fit_weights(cells, [m.values for m in measurements], init.weights, target_mass)
        return WeightedDataset(init.schema, init.points, weights)

