"""Laplace noise, the exponential mechanism, and exact privacy-budget accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .domain import checked_int

NOISE_MODES = ("laplace", "zero")


class NoiseSource:
    """Seeded stream of noise draws with a zero mode for deterministic oracle runs.

    The same seed and the same draw sequence always reproduce identical noise.
    In ``zero`` mode every draw returns exactly 0 (and selection becomes argmax)
    while draw requests are still counted, which lets tests attribute how many
    draws a mechanism consumes.
    """

    __slots__ = ("mode", "entropy", "spawn_key", "_rng", "laplace_draws")

    def __init__(self, seed: int | Sequence[int], mode: str = "laplace", spawn_key: Sequence[int] = ()):
        if mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {mode!r}; expected one of {NOISE_MODES}")
        self.mode = mode
        self.entropy = int(seed) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._rng = np.random.default_rng(np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key))
        self.laplace_draws = 0

    def child(self, *key: int) -> "NoiseSource":
        """The source whose spawn key is this one's plus ``key``. ``SeedSequence`` pads the entropy
        to four words before a spawn key, so no child draws what its parent, another key or a
        ``SeedSequence`` of at most four words (such as the seed, or ``(seed, 3)``) draws."""
        return NoiseSource(self.entropy, self.mode, self.spawn_key + tuple(int(k) for k in key))

    def uniform(self) -> float:
        return self._rng.random()

    def laplace(self, scale: float) -> float:
        """One Laplace(0, scale) draw via inverse CDF from a single uniform."""
        if not 0 < scale < math.inf:
            raise ValueError(f"laplace scale must be positive and finite, got {scale}")
        self.laplace_draws += 1
        if self.mode == "zero":
            return 0.0
        v = 2.0 * self._rng.random() - 1.0  # in [-1, 1)
        if v <= -1.0:
            v = -1.0 + 2.0 ** -53
        return -scale * math.copysign(1.0, v) * math.log1p(-abs(v))

    def laplace_vector(self, scale: float, n: int) -> np.ndarray:
        """``n`` Laplace(0, scale) draws from the uniforms ``n`` ``laplace`` calls would take, by the same
        formula on arrays: equal up to the last bit, where ``np.log1p`` rounds apart from ``math.log1p``."""
        if not 0 < scale < math.inf:
            raise ValueError(f"laplace scale must be positive and finite, got {scale}")
        self.laplace_draws += n
        if self.mode == "zero":
            return np.zeros(n)
        v = np.maximum(2.0 * self._rng.random(n) - 1.0, -1.0 + 2.0**-53)  # u = 0 moves up as in ``laplace``
        return -scale * np.copysign(1.0, v) * np.log1p(-np.abs(v))


def exponential_mechanism(
    utilities: Sequence[float] | np.ndarray,
    epsilon: float,
    sensitivity: float,
    source: NoiseSource,
) -> int:
    """Sample an index with probability proportional to exp(eps * u / (2 * sensitivity)).

    High utilities are favored. In zero mode this degenerates to argmax, with
    utilities within 1e-9 * max(1, |max u|) of each other (ties up to float
    rounding) broken toward the lowest index. Computed through a max-shifted
    softmax whose logits are clamped at -1000, so large utilities cannot overflow.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.size == 0:
        raise ValueError("utilities must be nonempty")
    top, bottom = float(u.max()), float(u.min())
    if not -math.inf < bottom <= top < math.inf:  # also false when either is NaN
        raise ValueError("utilities must be finite")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < sensitivity < math.inf:
        raise ValueError(f"sensitivity must be positive and finite, got {sensitivity}")
    rate = epsilon / (2.0 * sensitivity)
    if not 0 < rate < math.inf:
        raise ValueError(
            f"epsilon / (2 * sensitivity) must be positive and finite, got {epsilon} / (2 * {sensitivity})"
        )
    if source.mode == "zero":
        return int(np.argmax(u >= top - 1e-9 * max(1.0, abs(top))))
    # exp(-1000) is 0.0, so the clamp keeps every probability and no logit overflows at any rate
    if top - bottom < math.inf:
        shifted = u - top
    else:  # the spread overflows float64: those entries shift to -inf, which the clamp maps to 0
        with np.errstate(over="ignore"):
            shifted = u - top
    logits = rate * np.maximum(shifted, -1000.0 / rate)
    probs = np.exp(logits)
    probs /= probs.sum()
    r = source.uniform()
    idx = int(probs.cumsum().searchsorted(r, side="right"))
    return min(idx, u.size - 1)


def _exact(value: Fraction | float | str) -> Fraction:
    """``value`` read exactly as the fraction its text shows (``0.1`` is 1/10), as ``spend`` and
    ``checked_epsilon`` read numbers."""
    return value if isinstance(value, Fraction) else Fraction(str(value))


class BudgetOverspendError(RuntimeError):
    """Raised when a spend would push a composition group past the total budget."""


class BudgetEntry(NamedTuple):
    """One budget spend, stored as an exact fraction numerator/divisor pair.

    ``numerator`` is the run's total epsilon and ``divisor`` the share split
    (e.g. 2k), so sums over entries are exact rationals with no float drift.
    ``epsilon`` is their quotient, which ``BudgetLedger.spend`` derives and fills in.
    """

    label: str
    numerator: Fraction
    divisor: int
    group: str | None
    category: str
    epsilon: Fraction


@dataclass
class BudgetLedger:
    """Append-only budget log with exact sequential accounting per group.

    Entries in one group compose sequentially and may never exceed the total.
    Distinct groups hold disjoint data (here: distinct time steps of an
    insert-only stream) and compose in parallel, so each group independently
    gets the whole budget. A spend covering parallel sub-mechanisms (the cells
    of one workload histogram) is recorded as a single entry at the shared
    per-cell epsilon.

    Only ``spend`` adds entries. Running totals are integers in units of 1/D,
    D the lcm of the denominators seen so far, so the overspend check compares
    integers. The last share's epsilon and units are kept, so a spend that
    passes the same numerator object and divisor again derives neither.
    """

    total_epsilon: Fraction
    entries: list[BudgetEntry] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.total_epsilon = _exact(self.total_epsilon)
        if self.total_epsilon <= 0:
            raise ValueError("total epsilon must be positive")
        # Running totals over entries in units of 1/_denominator; dict order is first-spend order.
        self._group_totals: dict[str | None, int] = {}
        self._category_totals: dict[tuple[str | None, str], int] = {}
        self._denominator, self._limit = self.total_epsilon.denominator, self.total_epsilon.numerator
        # The last share derived: (numerator as passed, divisor, numerator as a Fraction, epsilon,
        # units). Only deriving a share refines the unit, and that share then replaces it, so its
        # units are always in the current unit.
        self._share: tuple[object, int, Fraction, Fraction, int] | None = None

    def _units_of(self, epsilon: Fraction) -> int:
        """``epsilon * _denominator``, first refining the denominator (and every total) to make it whole."""
        scale = epsilon.denominator // math.gcd(self._denominator, epsilon.denominator)
        if scale > 1:
            self._denominator *= scale
            self._limit *= scale
            for totals in (self._group_totals, self._category_totals):
                for key in totals:
                    totals[key] *= scale
        return epsilon.numerator * (self._denominator // epsilon.denominator)

    def spend(
        self,
        label: str,
        numerator: Fraction | float | str,
        divisor: int = 1,
        *,
        group: str | None = None,
        category: str = "",
    ) -> BudgetEntry:
        share = self._share
        if share is None or numerator is not share[0] or divisor != share[1]:
            num = _exact(numerator)
            divisor = checked_int(divisor, 1, "spend divisor must be an integer >= 1")
            if num <= 0:
                raise ValueError("spend must be positive")
            # kept with the object passed: a number or string, so the same object is the same value
            epsilon = num / divisor
            share = self._share = numerator, divisor, num, epsilon, self._units_of(epsilon)
        _, divisor, num, epsilon, units = share
        entry = BudgetEntry(label, num, divisor, group, category, epsilon)
        total = self._group_totals.get(group, 0) + units
        if total > self._limit:
            raise BudgetOverspendError(
                f"spend {label!r} of {entry.epsilon} exceeds budget "
                f"{self.total_epsilon} in group {group!r}"
            )
        self.entries.append(entry)
        self._group_totals[group] = total
        key = (group, category)
        self._category_totals[key] = self._category_totals.get(key, 0) + units
        return entry

    def group_total(self, group: str | None) -> Fraction:
        return Fraction(self._group_totals.get(group, 0), self._denominator)

    def category_total(self, group: str | None, category: str) -> Fraction:
        return Fraction(self._category_totals.get((group, category), 0), self._denominator)

    def groups(self) -> list[str | None]:
        return list(self._group_totals)
