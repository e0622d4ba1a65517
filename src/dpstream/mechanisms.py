"""Laplace noise, the exponential mechanism, and exact privacy-budget accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

_BUFFER = 4096


class NoiseSource:
    """Seeded stream of noise draws with a zero mode for deterministic oracle runs.

    The same seed and the same draw sequence always reproduce identical noise.
    In ``zero`` mode every draw returns exactly 0 (and selection becomes argmax)
    while draw requests are still counted, which lets tests attribute how many
    draws a mechanism consumes.
    """

    __slots__ = ("mode", "seed_key", "_rng", "_buf", "_pos", "laplace_draws", "uniform_draws")

    def __init__(self, seed: int | Sequence[int], mode: str = "laplace"):
        if mode not in ("laplace", "zero"):
            raise ValueError(f"unknown noise mode {mode!r}")
        self.mode = mode
        key = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
        self.seed_key = key
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        self._buf = np.empty(0)
        self._pos = 0
        self.laplace_draws = 0
        self.uniform_draws = 0

    def child(self, *key: int) -> "NoiseSource":
        """Independently seeded source derived from this one; order-insensitive identity."""
        return NoiseSource(self.seed_key + tuple(int(k) for k in key), mode=self.mode)

    def _next_uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(_BUFFER)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniform(self) -> float:
        self.uniform_draws += 1
        return self._next_uniform()

    def laplace(self, scale: float) -> float:
        """One Laplace(0, scale) draw via inverse CDF from a single uniform."""
        if scale <= 0:
            raise ValueError(f"laplace scale must be positive, got {scale}")
        self.laplace_draws += 1
        if self.mode == "zero":
            return 0.0
        v = 2.0 * self._next_uniform() - 1.0  # in [-1, 1)
        if v <= -1.0:
            v = -1.0 + 2.0 ** -53
        return -scale * math.copysign(1.0, v) * math.log1p(-abs(v))

    def laplace_vector(self, scale: float, n: int) -> np.ndarray:
        return np.array([self.laplace(scale) for _ in range(n)])


def laplace(scale: float, source: NoiseSource) -> float:
    """One draw from Laplace(0, scale); exactly 0 in zero mode."""
    return source.laplace(scale)


def exponential_mechanism(
    utilities: Sequence[float] | np.ndarray,
    epsilon: float,
    sensitivity: float,
    source: NoiseSource,
) -> int:
    """Sample an index with probability proportional to exp(eps * u / (2 * sensitivity)).

    High utilities are favored. In zero mode this degenerates to argmax with
    ties broken toward the lowest index. Computed through a max-shifted
    softmax so large utilities cannot overflow.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.size == 0:
        raise ValueError("utilities must be nonempty")
    if not np.isfinite(u).all():
        raise ValueError("utilities must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive")
    if source.mode == "zero":
        return int(np.argmax(u))
    logits = (epsilon / (2.0 * sensitivity)) * u
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    r = source.uniform()
    idx = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    return min(idx, u.size - 1)


class BudgetOverspendError(RuntimeError):
    """Raised when a spend would push a composition group past the total budget."""


@dataclass(frozen=True)
class BudgetEntry:
    """One budget spend, stored as an exact fraction numerator/divisor pair.

    ``numerator`` is the run's total epsilon and ``divisor`` the share split
    (e.g. 2k), so sums over entries are exact rationals with no float drift.
    """

    label: str
    numerator: Fraction
    divisor: int
    group: str | None = None
    category: str = ""

    @property
    def epsilon(self) -> Fraction:
        return self.numerator / self.divisor


@dataclass
class BudgetLedger:
    """Append-only budget log with exact sequential accounting per group.

    Entries in one group compose sequentially and may never exceed the total.
    Distinct groups hold disjoint data (here: distinct time steps of an
    insert-only stream) and compose in parallel, so each group independently
    gets the whole budget. A spend covering parallel sub-mechanisms (the cells
    of one workload histogram) is recorded as a single entry at the shared
    per-cell epsilon.
    """

    total_epsilon: Fraction
    entries: list[BudgetEntry] = field(default_factory=list)
    # Running totals over entries[:_counted], brought up to date by every reader;
    # dict order is first-spend order.
    _group_totals: dict[str | None, Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _category_totals: dict[tuple[str | None, str], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _counted: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.total_epsilon = Fraction(self.total_epsilon)
        if self.total_epsilon <= 0:
            raise ValueError("total epsilon must be positive")

    def _sync(self) -> None:
        """Fold entries not yet counted (seeded or appended directly) into the totals."""
        for e in self.entries[self._counted :]:
            eps = e.epsilon
            self._group_totals[e.group] = self._group_totals.get(e.group, Fraction(0)) + eps
            key = (e.group, e.category)
            self._category_totals[key] = self._category_totals.get(key, Fraction(0)) + eps
        self._counted = len(self.entries)

    def spend(
        self,
        label: str,
        numerator: Fraction | float | str,
        divisor: int = 1,
        *,
        group: str | None = None,
        category: str = "",
    ) -> BudgetEntry:
        num = numerator if isinstance(numerator, Fraction) else Fraction(str(numerator))
        divisor = int(divisor)
        if num <= 0 or divisor < 1:
            raise ValueError("spend must be positive")
        entry = BudgetEntry(label, num, divisor, group, category)
        if self.group_total(group) + entry.epsilon > self.total_epsilon:
            raise BudgetOverspendError(
                f"spend {label!r} of {entry.epsilon} exceeds budget "
                f"{self.total_epsilon} in group {group!r}"
            )
        self.entries.append(entry)
        return entry

    def group_total(self, group: str | None) -> Fraction:
        self._sync()
        return self._group_totals.get(group, Fraction(0))

    def category_total(self, group: str | None, category: str) -> Fraction:
        self._sync()
        return self._category_totals.get((group, category), Fraction(0))

    def groups(self) -> list[str | None]:
        self._sync()
        return list(self._group_totals)

    def max_group_total(self) -> Fraction:
        self._sync()
        return max(self._group_totals.values(), default=Fraction(0))


def ledger_spend(ledger: BudgetLedger, label: str, epsilon: Fraction | float | str) -> BudgetLedger:
    """Append one sequential spend to the ledger's default group."""
    ledger.spend(label, epsilon)
    return ledger
