"""Reference seconds: raw seconds scaled by a fixed NumPy kernel's speed.

The benchmark shares a 2-core machine whose speed changes within a
second: the same solve can take 1.6x longer a moment later, and the
kernel slows down with it.  So the kernel is timed right before and right
after each timed interval, and a timer signal also runs it
SAMPLE_HZ times a second inside the interval.  The interval's raw
seconds, less the time the kernel took, are scaled by NOMINAL_KERNEL_S
over the trimmed mean pass time seen in the interval.

Readings around an interval alone see a few milliseconds of a solve that
may last seconds, and scaling each instance by them spread throughput
more than raw seconds did.  The first pass after solver code runs cold
and follows the machine's speed worst, so every burst drops it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# trimmed mean pass time on the machine README.md describes; only the
# ratio of a measured pass time to it matters
NOMINAL_KERNEL_S = 5.4e-4
READING_PASSES = 6  # per burst before and after an interval, the first dropped
SAMPLE_PASSES = 2   # per timer tick, the first dropped
SAMPLE_HZ = 40
TRIM = 0.1  # share of passes dropped at each end before averaging


def normalize(raw_s: float, kernel_s: float) -> float:
    """Raw seconds expressed in reference seconds."""
    return raw_s * NOMINAL_KERNEL_S / kernel_s


def trimmed_mean(values) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    cut = int(TRIM * v.size)
    return float(v[cut:v.size - cut].mean())


class RefClock:
    """The kernel, its pass times, and the timer that samples it.

    One pass runs the two call mixes the solvers' iterations are made of,
    at n = 1000.  The sparse mix is an IHT step on 10 occupied bins: a
    pair-lag bincount, a clip, partition and scatter like the sparse-box
    projection, a strided bincount like the sparse gradient.  The dense mix
    is an l1pgd step: a zero-padded rfft/irfft correlation, a breakpoint
    sort and the clip-and-sum probes of a capped-simplex search.  It uses
    no udgp code, so a change to udgp cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(20250204)
        self._a = rng.random(1000)
        self._support = np.sort(rng.choice(1000, size=10, replace=False))
        self._pairs = np.triu_indices(10, 1)
        self._lags = np.arange(1, 50)
        self._c = rng.random(2048)
        self._pass()  # import numpy.fft now, never inside a timer tick
        self.passes: list[float] = []   # raw seconds of every pass run
        self.busy_s = 0.0               # raw seconds spent running passes
        self.sampling = False           # whether timer ticks run passes
        self._running = False

    def _pass(self) -> None:
        a, sup = self._a, self._support
        i, j = self._pairs
        for _ in range(4):
            hist = np.bincount(sup[j] - sup[i] - 1, weights=a[sup[i]] * a[sup[j]],
                               minlength=999)
            r = hist - a[:999]
            z = a - float(r @ r) * 1e-3
            clipped = np.clip(z, 0.0, 1.0)
            gain = z * z - (z - clipped) ** 2
            keep = np.flatnonzero(gain > np.partition(gain, 990)[990])
            x = np.zeros(1000)
            x[keep] = clipped[keep]
            lo = (sup[:, None] - self._lags[None, :]).ravel()
            np.bincount(np.concatenate([lo % 1000, (lo + 7) % 1000]), minlength=1000)
        np.fft.irfft(np.fft.rfft(a, 2048) * np.fft.rfft(self._c), 2048)
        breakpoints = np.sort(np.concatenate([-a, 1.0 - a]))
        for k in range(11):
            float(np.clip(a + breakpoints[180 * k], 0.0, 1.0).sum())

    def _burst(self, count: int) -> None:
        if self._running:  # a tick landing inside a reading adds nothing
            return
        self._running = True
        begin = time.perf_counter()
        self._pass()
        for _ in range(count - 1):
            t0 = time.perf_counter()
            self._pass()
            self.passes.append(time.perf_counter() - t0)
        self.busy_s += time.perf_counter() - begin
        self._running = False

    def _tick(self, signum, frame) -> None:
        if self.sampling:
            self._burst(SAMPLE_PASSES)

    def __enter__(self):
        """Start the sampling timer; it runs until the block ends."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        """Trimmed mean pass time over everything timed so far."""
        return trimmed_mean(self.passes)


class Interval:
    """One timed interval: readings around it, samples inside if asked."""

    def __init__(self, clock: RefClock, sample: bool = True):
        self._clock = clock
        self._first = len(clock.passes)
        clock._burst(READING_PASSES)
        self._busy0 = clock.busy_s
        self._t0 = time.perf_counter()
        clock.sampling = sample

    def lap(self) -> float:
        """Raw seconds since the start, less the time samples took."""
        return time.perf_counter() - self._t0 - (self._clock.busy_s - self._busy0)

    def stop(self) -> float:
        """End sampling, take the closing reading; the interval's kernel seconds."""
        clock = self._clock
        clock.sampling = False
        clock._burst(READING_PASSES)
        return trimmed_mean(clock.passes[self._first:])
