"""A fixed computation timed around every measured segment.

This machine's speed drifts by up to 1.5x over a minute and differs between
processes, while CPU time tracks wall time, so repeating a pass does not
help.  What does help is timing a reference computation right before and
right after each measured segment and dividing by it.  The reference is owned
by the benchmark, so no change to the program can move it.

The reference is a Python-driven row reduction of a small GF(7) matrix, the
same kind of work as most of the program: many small NumPy calls under an
interpreter loop.  Memory-bound kernels (an np.bincount scatter, a streaming
sweep over 4 MiB) were tried beside it and tracked the program's drift worse
on every workload; the README gives the figures.

Samples at the two ends of a segment miss the drift within it, which matters
for the ladder's 6-8 s rungs.  So while a segment runs, a timer interrupts it
every TICK_S for one more, shorter sample (a "tick"), and the segment is
normalised by the mean of all its samples: the speed averaged over the time
it ran.  On six processes per workload this took the spread of pass_s from
14.0 % to 5.0 % on the ladder, 6.0 % to 4.2 % on enumerate and 8.6 % to
7.6 % on the survey, against end samples alone.

A normalised time is the raw time scaled to a nominal reference duration, so
its unit stays the second: seconds as they would read at the speed where one
reference sample takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.030  # a typical reference sample on the 2-CPU Xeon (KVM) it was tuned on
REPEATS = 27  # row reductions per sample
TICK_S = 0.025  # interval of the in-segment samples


class Reference:
    def __init__(self) -> None:
        self.matrix = np.random.default_rng(20211216).integers(0, 7, size=(32, 48))
        self.samples: list[float] = []

    def _reduce(self) -> int:
        a = self.matrix.copy()
        rank = 0
        for col in range(a.shape[1]):
            if rank == a.shape[0]:
                break
            nz = np.flatnonzero(a[rank:, col])
            if nz.size == 0:
                continue
            p = rank + int(nz[0])
            a[[rank, p]] = a[[p, rank]]
            a[rank] = a[rank] * pow(int(a[rank, col]), 5, 7) % 7
            rest = np.flatnonzero(a[:, col])
            rest = rest[rest != rank]
            a[rest] = (a[rest] - np.outer(a[rest, col], a[rank])) % 7
            rank += 1
        return rank

    def sample(self) -> float:
        """Seconds for one reference computation; also kept in self.samples."""
        start = time.perf_counter()
        for _ in range(REPEATS):
            self._reduce()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn, before: float, ticking: bool = True) -> tuple[float, float, float]:
        """Run fn between two samples and, when ticking, take a tick every
        TICK_S in between from a SIGALRM handler on this same thread: one row
        reduction to warm what fn evicted, then one timed row reduction.

        The handler's own time is taken out of fn's.  The speed estimate is
        the mean of the two full samples and every tick scaled to a full
        sample, so a long segment is normalised by its time-averaged speed
        rather than by its ends alone.  Returns (seconds of fn, factor, the
        closing sample); the closing sample opens the next segment.
        """
        ticks: list[float] = []
        spent = [0.0]

        def tick(signum, frame):
            start = time.perf_counter()
            self._reduce()
            warm = time.perf_counter()
            self._reduce()
            end = time.perf_counter()
            ticks.append(end - warm)
            spent[0] += end - start

        previous = signal.signal(signal.SIGALRM, tick)
        if ticking:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self.sample()
        estimates = [before, after] + [t * REPEATS for t in ticks]
        return elapsed - spent[0], NOMINAL_S / (sum(estimates) / len(estimates)), after
