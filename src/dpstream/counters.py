"""Differentially private continual-observation counters.

Every counter estimates the running sum of a real-valued stream and releases
one value per fed item. Between feeds, `peek` repeats the last release without
touching the noise stream. For a fixed failure probability the error grows
roughly like sqrt(t) for the simple counter, like a low power of t for the
block counters, and polylogarithmically for the binary tree counter.

A counter's state values are Python floats. Over the n cells of a workload
(`MultiDimCounter`) the same counter holds float64 arrays of shape (n,) in
their place, and each draw is one vector of n values from the counter's one
noise stream, so every cell runs the scalar counter's arithmetic, operation for
operation, on its own entry of each draw. State values are rebound, never
updated in place, because one array can be held by several of them (the
tree's epoch base is the last release).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .domain import checked_int
from .mechanisms import NoiseSource

class Counter:
    """Base continual counter: feed values one per time step, peek for free."""

    kind = "base"

    def __init__(self, epsilon: float, source: NoiseSource):
        if not 0 < epsilon < math.inf:
            raise ValueError(f"counter epsilon must be positive and finite, got {epsilon}")
        self.epsilon = float(epsilon)
        self.source = source
        self.t = 0
        self._last = 0.0

    def feed(self, value: float) -> float:
        """The release after ``value``; ValueError, with nothing moved, if it is NaN or infinite."""
        cells = isinstance(value, np.ndarray)  # a MultiDimCounter's cell values
        value = value if cells else float(value)
        if not (np.isfinite(value).all() if cells else math.isfinite(value)):
            raise ValueError(f"counter values must be finite, got {value!r}")
        self.t += 1
        self._last = self._release(value)
        return self._last

    def peek(self) -> float:
        """Last released value (0 before the first feed); no state change, no spend."""
        return self._last

    def _release(self, value: float) -> float:
        raise NotImplementedError


class SimpleCounter(Counter):
    """Running sum of per-item noisy increments.

    Each item is masked by exactly one Laplace(1/eps) draw, so the counter is
    eps-DP without any composition argument; the accumulated error at time t
    has standard deviation sqrt(2 t)/eps.
    """

    kind = "simple"

    def __init__(self, epsilon: float, source: NoiseSource):
        super().__init__(epsilon, source)
        self._total = 0.0

    def _release(self, value: float) -> float:
        self._total = self._total + (value + self.source.laplace(1.0 / self.epsilon))
        return self._total


class BlockCounter(Counter):
    """Two-level counter with a fixed block size (horizon known in advance).

    Within a block, items accumulate as noisy increments; when a block closes,
    its true sum is re-measured with one fresh draw and folded into the running
    block total, discarding the in-block noise. Every item meets at most two
    Laplace(2/eps) draws: its own increment and its block's closing fold.

    Blocks are counted from the start of the current partition; here the one
    partition never ends. Instrumentation flags record whether the last fed
    step closed a block and whether it ended the partition.
    """

    kind = "bounded_block"

    def __init__(self, epsilon: float, source: NoiseSource, block_size: int):
        super().__init__(epsilon, source)
        self.block_size = checked_int(block_size, 1, "block size must be an integer >= 1")
        self.t_at_partition = 0
        self._last_block = 0.0
        self._true_in_block = 0.0
        self._synth_in_block = 0.0
        self.last_was_boundary = False
        self.last_was_rollover = False

    def _end_partition(self) -> bool:
        """Called as a block closes: start the next partition if this one is full."""
        return False

    def _release(self, value: float) -> float:
        noise = self.source.laplace(2.0 / self.epsilon)
        self._true_in_block = self._true_in_block + value
        self.last_was_boundary = (self.t - self.t_at_partition) % self.block_size == 0
        if not self.last_was_boundary:
            self.last_was_rollover = False
            self._synth_in_block = self._synth_in_block + (value + noise)
            return self._last_block + self._synth_in_block
        self._last_block = self._last_block + (self._true_in_block + noise)
        self._true_in_block = self._synth_in_block = 0.0
        self.last_was_rollover = self._end_partition()
        return self._last_block


class UnboundedBlockCounter(BlockCounter):
    """Block counter without a horizon: time is cut into partitions of sizes
    4, 9, 16, ..., and partition number b uses block size b + 1 (the optimal
    block size sqrt(T) for a horizon-T block counter).
    """

    kind = "unbounded_block"

    def __init__(self, epsilon: float, source: NoiseSource):
        super().__init__(epsilon, source, block_size=2)

    def _end_partition(self) -> bool:
        if self.t - self.t_at_partition < self.block_size**2:
            return False
        self.t_at_partition = self.t
        self.block_size += 1
        return True


class BinaryTreeCounter(Counter):
    """Dyadic-interval tree counter made unbounded by doubling epochs.

    Epoch j covers times [2^j, 2^(j+1)) and runs a binary mechanism over
    2^j leaves with j + 1 levels; each node gets one Laplace(levels/eps)
    draw when it completes, so any item is masked by at most
    ceil(log2(t + 1)) + 1 draws whose budgets sum to eps. The released value
    at an epoch boundary is frozen as the base of the next epoch.
    """

    kind = "binary_tree"

    def __init__(self, epsilon: float, source: NoiseSource):
        super().__init__(epsilon, source)
        self._epoch = 0
        self._epoch_len = 1
        self._i = 0  # position within the epoch, 1-based after increment
        self._base = 0.0
        self._alpha = [0.0]
        self._alpha_hat = [0.0]

    @property
    def levels(self) -> int:
        return self._epoch + 1

    def _release(self, value: float) -> float:
        if self._i == self._epoch_len:
            self._base = self._last
            self._epoch += 1
            self._epoch_len *= 2
            self._i = 0
            self._alpha = [0.0] * self.levels
            self._alpha_hat = [0.0] * self.levels
        self._i += 1
        i = self._i
        low = (i & -i).bit_length() - 1  # level of the node completed at this step
        merged = value
        for level in range(low):
            merged = merged + self._alpha[level]
            self._alpha[level] = 0.0
            self._alpha_hat[level] = 0.0
        self._alpha[low] = merged
        self._alpha_hat[low] = merged + self.source.laplace(self.levels / self.epsilon)
        out = self._base
        bits = i
        level = 0
        while bits:
            if bits & 1:
                out = out + self._alpha_hat[level]
            bits >>= 1
            level += 1
        return out


COUNTERS: dict[str, type[Counter]] = {
    cls.kind: cls for cls in (SimpleCounter, BlockCounter, BinaryTreeCounter, UnboundedBlockCounter)
}
KINDS = tuple(COUNTERS)


def check_kind(kind: str, block_size: int | None) -> None:
    """Raise ValueError unless ``make_counter`` accepts ``kind`` with ``block_size``."""
    if kind == BlockCounter.kind:  # the one kind that needs a block_size
        checked_int(block_size, 1, "bounded block counter needs an integer block_size >= 1")
    elif kind not in COUNTERS:
        raise ValueError(f"unknown counter kind {kind!r}; expected one of {KINDS}")


def make_counter(
    kind: str,
    epsilon: float,
    source: NoiseSource,
    block_size: int | None = None,
) -> Counter:
    check_kind(kind, block_size)
    if kind == BlockCounter.kind:
        return BlockCounter(epsilon, source, block_size)
    return COUNTERS[kind](epsilon, source)


class _CellNoise(NamedTuple):
    """Noise for a counter over ``num_cells`` cells: each draw is one vector, a value per cell."""

    source: NoiseSource
    num_cells: int

    def laplace(self, scale: float) -> np.ndarray:
        return self.source.laplace_vector(scale, self.num_cells)


class MultiDimCounter:
    """One counter of the given kind over all cells of a workload.

    The cells of a workload are disjoint, so a single record feeds exactly one
    cell; all cells share the same epsilon by parallel composition. Each draw
    is ``num_cells`` consecutive values of the counter's own ``source``, and
    cell c releases what a scalar counter drawing entry c of each would.
    """

    def __init__(
        self,
        kind: str,
        num_cells: int,
        epsilon: float,
        source: NoiseSource,
        block_size: int | None = None,
    ):
        self.num_cells = checked_int(num_cells, 1, "a counter needs an integer number of cells >= 1")
        self.source = source
        self._counter = make_counter(kind, epsilon, _CellNoise(source, self.num_cells), block_size)

    def __len__(self) -> int:
        return self.num_cells

    @property
    def laplace_draws(self) -> int:
        """Laplace values drawn so far: ``num_cells`` per draw."""
        return self.source.laplace_draws

    def feed(self, values: np.ndarray) -> np.ndarray:
        values = np.array(values, dtype=np.float64)
        if values.shape != (self.num_cells,):
            raise ValueError(f"expected {self.num_cells} cell values, got shape {values.shape}")
        return np.full(self.num_cells, self._counter.feed(values))

    def peek(self) -> np.ndarray:
        """Copy of the last release (zeros before the first feed); draws no noise."""
        return np.full(self.num_cells, self._counter.peek())
