"""How fast the host runs right now, from a fixed reference computation.

The benchmark shares its cores with other machines, and identical work runs
up to ~1.6x slower from one minute to the next.  The reference uses nothing
from the program: an interpreter loop, small dense numpy algebra and a small
linear solve, the kinds of work the workloads do.  Timed every few seconds
between work, it slows down with the workloads: over six minutes of
30-second windows, a fixed PPO update varied by 16% (coefficient of
variation) and a fixed GA sizing by 20%, but their ratio to the reference,
sampled eight times a window, by 4-5%.  The end-to-end times are divided by
the reference's mean slowdown, so they read as on a host of the reference's
nominal speed.  A single sample says little: the host's speed flickers
between states from one second to the next.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Nominal seconds of one reference round; it only sets the scale of the
#: normalized figures, which compare alike whatever its value.
REFERENCE_S = 0.03


class HostSpeed:
    """Samples of the host's slowdown: reference round time over nominal."""

    rounds_per_sample = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = [rng.random((8, 64)) for _ in range(10)]
        self._weights = rng.random((64, 64))
        self._system = rng.random((24, 24)) + 24.0 * np.eye(24)
        self.samples: List[float] = []

    def _round(self) -> None:
        total = 0
        for value in range(200_000):
            total += value * value
        for _ in range(150):
            for rows in self._rows:
                (np.tanh(rows @ self._weights) * 0.5 + rows).sum(axis=1)
        for _ in range(300):
            np.linalg.solve(self._system, self._system[:, 0])

    def sample(self) -> float:
        """Median slowdown over a few reference rounds; kept and returned."""
        times = []
        for _ in range(self.rounds_per_sample):
            start = time.perf_counter()
            self._round()
            times.append(time.perf_counter() - start)
        slowdown = statistics.median(times) / REFERENCE_S
        self.samples.append(slowdown)
        return slowdown
