"""CPU time scaled to a reference machine speed.

The benchmark times single-threaded regions on the thread's CPU clock, which
leaves out the time the host takes the vCPU away. The clock itself still runs
slower while the host loads the core's other threads: on a 2-vCPU VM the same
release took 4.4 ms in some stretches and 9 ms in others, and a stretch can
last from a second to several minutes, longer than a run.

`ScaledClock` therefore times a fixed calibration loop every CAL_EVERY_S of
CPU time, between steps, and scales the CPU time until the next calibration
by REFERENCE_S / (the mean of the loop's latest times). The calibrations'
own time is left out. A region's scaled time is what it would have taken
with the loop at its reference speed. The loop is the benchmark's own code,
so a change to the program moves the scaled times, while the machine's
slow stretches mostly cancel out.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

CAL_EVERY_S = 0.05  # CPU seconds between calibrations
CAL_WINDOW = 5  # the factor uses the mean of this many latest calibrations
CAL_REPEATS = 3
REFERENCE_S = 0.0003  # about the loop's CPU time in the quiet stretches of a 2-vCPU VM

_ARRAY = np.arange(64.0)


def _loop() -> float:
    """CPU time of a fixed mix of dict work and small numpy calls, like a release's."""
    t0 = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(700):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    for _ in range(20):
        b = np.sort(_ARRAY[::-1] * 1.5)
        np.abs(b - _ARRAY).sum()
        np.unique(b.astype(np.int64) % 9)
    return time.thread_time() - t0


def calibrate() -> float:
    """The fastest of CAL_REPEATS runs of the loop: an interrupt or a cold cache slows only one."""
    return min(_loop() for _ in range(CAL_REPEATS))


class ScaledClock:
    """A clock reading scaled CPU seconds; `checkpoint` calibrates when one is due.

    Call `checkpoint` only between timed regions, or inside a region whose
    elapsed time may include it: the calibration's own time is never counted.
    While `frozen`, `checkpoint` does nothing and the last factor holds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=CAL_WINDOW)
        self.frozen = False
        self._scaled = 0.0
        self._mark = time.thread_time()
        self._factor = 1.0
        calibrate()  # the first call loads numpy's lazy modules
        for _ in range(CAL_WINDOW):
            self._calibrate()

    def __call__(self) -> float:
        return self._scaled + (time.thread_time() - self._mark) * self._factor

    def checkpoint(self) -> None:
        if not self.frozen and time.thread_time() - self._mark >= CAL_EVERY_S:
            self._calibrate()

    def _calibrate(self) -> None:
        self._scaled = self()
        sample = calibrate()
        self.samples.append(sample)
        self._recent.append(sample)
        self._factor = REFERENCE_S / statistics.fmean(self._recent)
        self._mark = time.thread_time()

    def summary(self) -> str:
        median = statistics.median(self.samples)
        return (f"machine: calibration loop median {median * 1e3:.3f} ms over {len(self.samples)} "
                f"calibrations, reference {REFERENCE_S * 1e3:.3f} ms; times are scaled by "
                f"about {REFERENCE_S / median:.3f}")
