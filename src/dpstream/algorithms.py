"""The two streaming synthesizers: a per-step MWEM baseline and the
counter-backed select-measure-fit algorithm.

Both consume one insert-only differential per time step and release one
synthetic dataset per step; neither reads the accumulated true dataset, and
each reads the differential only through ``_Differential``'s mechanisms. Per
step, half the budget goes to exponential-mechanism selections and half to the
measurements (fresh Laplace noise for the baseline, continual counters for the
main algorithm). Distinct steps hold disjoint records, so the per-step
budget is the whole-stream guarantee.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from .counters import MultiDimCounter, check_kind
from .domain import WeightedDataset, checked_int, nonzero_mass
from .fitters import DEFAULT_SEED_SUPPORT, MultiplicativeWeightsFitter, WorkingSupport
from .mechanisms import NOISE_MODES, BudgetLedger, NoiseSource, exponential_mechanism
from .queries import WorkloadSet, cover_workloads, eval_workload

# child-source roles under the run seed
_SELECT = 0
_MEASURE = 1
_COUNTER = 2

def checked_epsilon(value: object, k: int = 1, name: str = "epsilon") -> Fraction:
    """``value`` read exactly as a fraction (``0.1`` is 1/10) from a finite Python or numpy number,
    not a bool, or from a string ``Fraction`` reads, such as ``"1/2"``; ``name`` names the setting in
    the error. Raise ValueError unless the per-share value ``float(epsilon) / (2k)`` is positive and
    finite in float64, and so ``float(epsilon)`` too. The default ``k = 1`` rejects only what every
    k does."""
    epsilon, kinds = None, (int, float, str, Fraction, np.integer, np.floating)
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            epsilon = value if isinstance(value, Fraction) else Fraction(str(value))
        except (ValueError, ZeroDivisionError):  # nan, inf, "1/0" or a string of no number
            pass
    if epsilon is None:
        raise ValueError(f'{name} must be a number or a string such as "1/2", got {value!r}')
    try:
        share = float(epsilon) / (2 * k)
    except OverflowError:  # past the largest float64
        share = math.inf
    if not 0 < share < math.inf:
        shown = f"{(Decimal(epsilon.numerator) / epsilon.denominator).normalize():.6g}"
        raise ValueError(
            f"epsilon {shown} must be a positive, finite float64, and so must its per-share value "
            "float(epsilon) / (2k)"
        )
    return epsilon


@dataclass
class RunConfig:
    """Everything one synthesizer run needs besides the stream itself."""

    epsilon: Fraction
    k: int
    workloads: WorkloadSet
    counter_kind: str = "simple"
    block_size: int | None = None
    seed_support_size: int = DEFAULT_SEED_SUPPORT
    passes: int = 1
    seed: int = 0
    noise_mode: str = "laplace"

    def __post_init__(self) -> None:
        if not isinstance(self.workloads, WorkloadSet):
            self.workloads = WorkloadSet(self.workloads)
        self.k = checked_int(self.k, 1, "k must be an integer >= 1")
        self.epsilon = checked_epsilon(self.epsilon, self.k)
        self.seed = checked_int(self.seed, 0, "seed must be a non-negative integer")
        self.passes = checked_int(self.passes, 1, "fitter passes must be an integer >= 1")
        self.seed_support_size = checked_int(
            self.seed_support_size, 1, "fitter seed_support_size must be an integer >= 1"
        )
        if self.k > len(self.workloads):
            raise ValueError(
                f"cannot select k={self.k} distinct workloads out of {len(self.workloads)}"
            )
        check_kind(self.counter_kind, self.block_size)
        if self.block_size is not None:
            self.block_size = checked_int(self.block_size, 1, "block_size must be an integer >= 1")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}; expected one of {NOISE_MODES}")

    def resolved_sensitivity(self) -> float:
        """Selection sensitivity: 1/4 when every workload is 2-way and 1 otherwise, raised to
        1 / min |W|, the largest sensitivity of a selection utility ``|s - h|_1 / |W|``."""
        default = 0.25 if all(w.arity == 2 for w in self.workloads) else 1.0
        return max(default, 1.0 / min(w.size for w in self.workloads))


class _Differential:
    """One step's differential δ behind the mechanisms that read it, the only code that reads δ:
    each draws its noise and writes its eps/2k ledger entry in one call. Built from δ and a public
    ``base`` on the support (the previous release for ``main``, none for the baseline), to which
    selection's reference adds δ's rows on the support, and the scoring of those off it."""

    def __init__(self, synth: _StreamSynthesizer, delta: WeightedDataset, base: np.ndarray | None = None):
        self._synth, self._delta, self._base = synth, delta, base
        self._at, held = synth.support.observe(delta)
        if held.all():  # as on every whole-domain support
            self._held, self._off, self._off_mass = delta.weights, np.zeros(len(synth._cover.starts)), 0.0
        else:
            self._held, points, weights = delta.weights[held], delta.points[~held], delta.weights[~held]
            self._off, self._off_mass = synth._cover.values(points, weights), float(weights.sum())
        self._reference = np.zeros(len(synth.support)) if base is None else base.copy()
        self._reference[self._at] += self._held

    @cached_property
    def target(self) -> float:
        """The mass every fit of the step goes to: δ's without a base, else the base's nonzero mass
        plus δ's. Read exactly, with no noise and no ledger entry, it is the known leak of the
        release mass (ROADMAP.md, N1), whose fix changes only this property."""
        if self._base is None:
            return self._delta.total_mass()
        return nonzero_mass(self._reference) + self._off_mass

    def select(self, h: np.ndarray, unselected: np.ndarray, l: int, zeros: np.ndarray | None = None) -> int:
        """The exponential mechanism's pick of an ``unselected`` workload, and its ``selection``
        entry for round ``l``. A workload scores the L1 distance between its histograms of the
        reference and of the fit ``h`` over its cell count, less ``_cell_bias`` per cell, read off
        one scoring of ``reference - h``, plus the rows off the support. With ``zeros``, ``h`` is
        the base at 1 where ``zeros`` marks it 0: that difference is δ's held weights and -1 at
        the zeros (one point can carry both), scored only there, in integers."""
        synth, cover = self._synth, self._synth._cover
        if zeros is None:
            difference = cover.score(self._reference - h)
        else:
            weights = np.concatenate([self._held, np.full(len(zeros), -1.0)])
            difference = cover.score(weights, np.concatenate([self._at, zeros]))
        difference += self._off
        utilities = (cover.mean_abs(difference) - synth._bias)[unselected]
        pick = exponential_mechanism(utilities, synth._eps_step, synth._sensitivity, synth._select_source)
        self._spend(f"select/l={l}", "selection")
        return int(np.flatnonzero(unselected)[pick])

    def laplace(self, j: int) -> np.ndarray:
        """Workload ``j``'s histogram of δ plus Laplace noise at eps/2k, and its ``measurement`` entry."""
        synth = self._synth
        noise = synth._measure_source.laplace_vector(1.0 / synth._eps_step, synth.workloads[j].size)
        noisy = eval_workload(synth.workloads[j], self._delta) + noise
        self._spend(f"measure/W={j}", "measurement")
        return noisy

    def feed(self, j: int, counter: MultiDimCounter) -> np.ndarray:
        """``counter``'s release once fed workload ``j``'s histogram of δ, and its ``counter`` entry."""
        values = counter.feed(eval_workload(self._synth.workloads[j], self._delta))
        self._spend(f"counter/W={j}", "counter")
        return values

    def _spend(self, label: str, category: str) -> None:
        """Record one eps/2k share of step ``t`` in the synthesizer's ledger."""
        synth, cfg = self._synth, self._synth.config
        group = f"t={synth.t}"
        synth.ledger.spend(f"{group}/{label}", cfg.epsilon, 2 * cfg.k, group=group, category=category)


class _StreamSynthesizer:
    """Shared state and the select → measure → fit round of both synthesizers.

    Within a step every synthetic dataset is a float64 weight vector aligned
    with ``support.points``, standing for the dataset that stores its nonzero
    entries; ``_weights`` is the latest release in that form. The release
    ``g`` is the only ``WeightedDataset`` a step builds.
    """

    algorithm = "base"
    # subtracted per cell from a workload's selection utility
    _cell_bias = 0

    def __init__(self, config: RunConfig):
        self.config = config
        self.workloads = config.workloads
        self.schema = config.workloads[0].schema
        self.t = 0
        root = NoiseSource(config.seed, mode=config.noise_mode)
        self._select_source = root.child(_SELECT)
        self._measure_source = root.child(_MEASURE)
        self._counter_root = root.child(_COUNTER)
        self.support = WorkingSupport(
            self.schema, seed_size=config.seed_support_size, seed=config.seed
        )
        self.fitter = MultiplicativeWeightsFitter(passes=config.passes)
        self.ledger = BudgetLedger(config.epsilon)
        self._eps_step = float(config.epsilon) / (2 * config.k)
        self._sensitivity = config.resolved_sensitivity()
        self._cover = cover_workloads(self.workloads, self.support.points)
        self._bias = self._cell_bias * self._cover.sizes
        # the workloads of the latest round that spent budget, in selection order
        self.last_selected: list[int] = []
        self._release(np.ones(len(self.support)))

    def _round(
        self, d: _Differential, h: np.ndarray, measure: Callable[[int], np.ndarray], zeros: np.ndarray | None = None
    ) -> np.ndarray:
        """k select → measure → refit iterations on ``d`` from the fit ``h`` (``zeros`` goes to round
        1's ``select``, ``measure(j)`` gives workload j's values), each fit to ``d.target`` mass.
        Returns the mean of the k fits; ``last_selected`` holds the selection."""
        cover = self._cover
        fits, cells, values, selected = [], [], [], []
        unselected = np.ones(len(cover.sizes), dtype=bool)
        for l in range(1, self.config.k + 1):
            j = d.select(h, unselected, l, zeros if l == 1 else None)
            selected.append(j)
            unselected[j] = False
            # widened once per round: the fit's bincount and gather would cast narrow cells each call
            cells.append(cover.cells(self.workloads[j]).astype(np.intp))
            values.append(measure(j))
            h = self.fitter.fit_weights(cells, values, h, d.target)
            fits.append(h)
        self.last_selected = selected  # only now: main's ``_measure`` reads the previous round's
        # dataset_mean of the fits: summed in list order, then scaled by 1/k
        return sum(fits[1:], fits[0]) * (1.0 / len(fits))

    def _release(self, weights: np.ndarray) -> WeightedDataset:
        """Release the dataset storing the nonzero entries of ``weights``, kept writable as
        ``_weights``; a release on all of the support's points shares them and reads the cover's cells."""
        if (weights < 0).any():
            raise ValueError("negative weight; datasets are insert-only")
        self._weights, keep, points = weights, weights > 0, self.support.points
        if keep.all():
            self.g = WeightedDataset._from_sorted(self.schema, points, weights.copy())
            self.g.support_cells = self._cover.cells
        else:
            self.g = WeightedDataset._from_sorted(self.schema, np.asfortranarray(points[keep]), weights[keep])
        return self.g


class StreamingMwem(_StreamSynthesizer):
    """Baseline: an independent MWEM pass over each differential.

    Each step fits a fresh synthetic differential from scratch (uniform over
    the working support at the differential's mass) using k rounds of
    exponential-mechanism selection and per-cell Laplace measurement, then adds
    the averaged fit onto the running synthetic dataset.
    """

    algorithm = "baseline"

    def step(self, delta: WeightedDataset) -> WeightedDataset:
        d = _Differential(self, delta)
        self.t += 1
        target = d.target
        if target == 0:
            return self.g  # nothing arrived: no spend, synthetic stream holds
        h = np.full(len(self.support), target / len(self.support))
        return self._release(self._weights + self._round(d, h, d.laplace))


class CounterSynthesizer(_StreamSynthesizer):
    """Counter-backed select-measure-fit over the whole stream.

    Each workload owns a multi-dimensional continual counter fed only at the
    steps where the workload is selected. For unselected steps the remainder
    map carries the workload's value as read off the synthetic stream, so a
    measurement at time t is always counter value plus remainder. Selection
    scores workloads against the surrogate (differential plus previous
    synthetic dataset), with the cell-count bias subtracted.
    """

    algorithm = "main"
    _cell_bias = 1

    def __init__(self, config: RunConfig):
        super().__init__(config)
        self.counters: dict[int, MultiDimCounter] = {}
        # each counter's release at its last feed, the only counter state the remainders read
        self.counted: dict[int, np.ndarray] = {}
        self.remainders: dict[int, np.ndarray] = {}
        self.last_measurements: dict[int, np.ndarray] = {}

    def step(self, delta: WeightedDataset) -> WeightedDataset:
        d = _Differential(self, delta, self._weights)
        self.t += 1
        if d.target == 0:
            return self.g  # no data and no synthetic mass: skip, no spend
        h = self._weights.copy()
        zeros = np.flatnonzero(h == 0)
        h[zeros] = 1.0  # underflowed points re-enter at unit weight
        return self._release(self._round(d, h, lambda j: self._measure(j, d), zeros))

    def _measure(self, j: int, d: _Differential) -> np.ndarray:
        workload, cfg = self.workloads[j], self.config
        if j not in self.counters:
            self.counters[j] = MultiDimCounter(
                cfg.counter_kind, workload.size, self._eps_step, self._counter_root.child(j), block_size=cfg.block_size
            )
            self.counted[j] = np.zeros(workload.size)  # a counter releases 0 before its first feed
            self.remainders[j] = np.zeros(workload.size)  # no synthetic dataset before t = 1
        if self.t > 1 and j not in self.last_selected:
            # Unselected at the previous round, the remainder is the workload's value
            # on that round's release less the counter. Neither has changed since
            # (the counter was not fed, ``g`` is that release), so it is computed
            # here, when the counter is fed, rather than after every step.
            self.remainders[j] = eval_workload(workload, self.g) - self.counted[j]
        # remainder carries over unchanged on a selected step
        self.counted[j] = d.feed(j, self.counters[j])
        self.last_measurements[j] = self.counted[j] + self.remainders[j]
        return self.last_measurements[j]


# each synthesizer class by the name a config gives it
ALGORITHMS = {cls.algorithm: cls for cls in (StreamingMwem, CounterSynthesizer)}


def make_synthesizer(algorithm: str, config: RunConfig) -> _StreamSynthesizer:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {tuple(ALGORITHMS)}")
    return ALGORITHMS[algorithm](config)
