"""CPU time of the benchmark's runs, scaled to a nominal machine speed.

Every run is timed by the CPU time of this process (``time.process_time``,
which on a guest with steal-time accounting leaves out the time the host ran
someone else) and by the wall clock.

CPU time still changes within seconds with what the host's other tenants
run. Over seven minutes, 25-s window means of a fixed jse, erm or CLI run's
CPU time varied by 4.2-5.5% (sd). So a fixed reference kernel runs after
every measured block, and when the run ends each block's CPU time is scaled
by ``NOMINAL_MS`` over the mean of the ten kernel samples around it. Scaled
that way, the same window means varied by 1.7-3.0%. A change to jse cannot
move the kernel.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Timing:
    """One measured block: CPU, wall and (after ``Reference.finish``) scaled
    CPU ms."""

    ms: float = 0.0
    wall_ms: float = 0.0
    after: int = -1  # index of the kernel sample taken right after the block
    norm_ms: float = float("nan")


class Reference:
    """A fixed numpy kernel that uses no jse code: 800 minibatch logistic
    steps, like the package's SGD."""

    # median of one sample on the 2-core Xeon VM the benchmark was built on
    NOMINAL_MS = 14.0
    # samples on each side of a block's own pair (before, after) that its
    # scale averages over; one sample alone varies by ~18% (sd)
    WINDOW = 4

    def __init__(self) -> None:
        self.X = np.random.default_rng(0).standard_normal((2000, 20))
        self.samples: list[float] = []
        self.timings: list[Timing] = []
        self.scales: list[float] = []
        self._sample()  # warm-up
        self.samples.clear()
        self._sample()

    def _sample(self) -> float:
        X = self.X
        t0 = time.process_time()
        rng = np.random.default_rng(1)
        w = np.zeros(X.shape[1])
        for _ in range(40):
            order = rng.permutation(len(X))
            for start in range(0, len(X), 100):
                Xb = X[order[start:start + 100]]
                p = 1.0 / (1.0 + np.exp(-(Xb @ w)))
                w -= 0.01 * (Xb.T @ (p - 0.5)) / len(Xb)
        ms = 1000.0 * (time.process_time() - t0)
        self.samples.append(ms)
        return ms

    @contextmanager
    def measure(self, cpu_s=time.process_time):
        """Time the block by ``cpu_s`` (seconds) and the wall clock, then
        sample the kernel."""
        t = Timing()
        c0, w0 = cpu_s(), time.perf_counter()
        yield t
        t.ms = 1000.0 * (cpu_s() - c0)
        t.wall_ms = 1000.0 * (time.perf_counter() - w0)
        self._sample()
        t.after = len(self.samples) - 1
        self.timings.append(t)

    def finish(self) -> None:
        """Scale every measured block by the kernel samples around it."""
        k = self.WINDOW
        for t in self.timings:
            around = self.samples[max(0, t.after - 1 - k):t.after + 1 + k]
            scale = self.NOMINAL_MS / statistics.fmean(around)
            self.scales.append(scale)
            t.norm_ms = t.ms * scale

    def summary(self) -> dict:
        return {
            "reference_ms_median": statistics.median(self.samples),
            "speed_scale": {"min": min(self.scales), "median": statistics.median(self.scales),
                            "max": max(self.scales)},
        }
