"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import NamedTuple, Sequence

# Percentile levels the tail is chosen from, lowest first.
LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
MIN_GROUP = 4 * MIN_BEYOND  # so that every group reaches at least p75


class Tail(NamedTuple):
    level: float
    value: float
    samples: int
    beyond: int


def nearest_rank(ordered: Sequence[float], level: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many samples lie beyond its rank."""
    n = len(ordered)
    rank = max(1, math.ceil(Fraction(str(level)) * n / 100))  # exact: 99.9% of 10,000 is 9,990
    return ordered[rank - 1], n - rank


def tail(values: Sequence[float]) -> Tail:
    """The highest level of LEVELS that leaves at least MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    best = None
    for level in LEVELS:
        value, beyond = nearest_rank(ordered, level)
        if beyond >= MIN_BEYOND:
            best = Tail(level, value, len(ordered), beyond)
    if best is None:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {MIN_BEYOND} beyond the median"
        )
    return best


def stream_tail(streams: Sequence[Sequence[float]]) -> tuple[float, list[Tail]]:
    """Median over streams of each stream's `tail`.

    A stream is one synthesizer's releases. Consecutive streams are merged
    until each group holds at least MIN_GROUP releases (the last group
    absorbs a short remainder), so short streams still give a tail above
    the median. Taking the median over groups keeps one burst of machine
    noise in one stream from setting the result.
    """
    groups: list[list[float]] = []
    pending: list[float] = []
    for stream in streams:
        pending.extend(stream)
        if len(pending) >= MIN_GROUP:
            groups.append(pending)
            pending = []
    if pending:
        if groups:
            groups[-1].extend(pending)
        else:
            groups.append(pending)
    tails = [tail(g) for g in groups]
    return statistics.median(t.value for t in tails), tails
