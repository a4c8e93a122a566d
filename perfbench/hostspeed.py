"""Host speed: a fixed kernel sampled through a run, and times scaled by it.

On a shared host the same code runs up to twice as fast at one moment as at
another, for a second or for minutes, and every time metric follows. Medians
over a run do not remove a slow phase that lasts the whole run. So a run
times a small fixed kernel (a pure-Python loop and small numpy gathers, the
same kinds of work as snmodel's hot loops; about 8 ms) every ``PERIOD_S``
seconds of wall time, from a ``SIGALRM`` handler, and right before and after
each timed interval. A time between two kernel samples is scaled by
``REFERENCE_S`` over the mean of their durations, and the kernel's own time is
left out. The scaled time reads as the time the code would take on the host
at the speed it had when ``REFERENCE_S`` was measured.

The kernel uses nothing from snmodel and touches none of its state, so a
change to snmodel does not change the kernel, and a speed-up or slow-down of
snmodel shows in full in the scaled times. The sampling costs about 3% of a
pass.

On a 2-core x86 host, scaling cut the spread (quartile distance over the
median) of twelve repeats of one 5-second ``snm generate`` call in one
process from 0.18 to 0.06.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Median kernel time on the 2-core x86 host the benchmark was defined on
#: (Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.0071
PERIOD_S = 0.25


class HostSpeed:
    """Kernel samples (start, duration) and the scaled time between any two instants."""

    def __init__(self) -> None:
        import numpy as np  # after the harness has set the BLAS thread count

        self._np = np
        self._table = np.arange(24, dtype=np.int8)
        self._index = np.random.default_rng(0).integers(0, 24, 10_000)
        self._buf = np.empty(10_000, dtype=np.int8)
        self._acc = np.zeros(10_000, dtype=np.int32)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> float:
        np = self._np
        t0 = perf_counter()
        s = 0
        for i in range(30_000):
            s += i * i % 7
        for _ in range(150):
            np.take(self._table, self._index, out=self._buf)
            np.add(self._acc, self._buf, out=self._acc)
        return perf_counter() - t0

    def sample(self, *_signal_args) -> None:
        """Time the kernel once; also the ``SIGALRM`` handler."""
        t0 = perf_counter()
        duration = self._kernel()
        self.starts.append(t0)
        self.durations.append(duration)

    def start(self) -> None:
        """Sample now and then every PERIOD_S seconds, until ``stop``."""
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the periodic samples and sample once more, to close the interval."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Time from *t0* to *t1* without kernel samples, scaled gap by gap.

        The gap between samples ``j`` and ``j + 1`` is scaled by
        ``REFERENCE_S`` over the mean of their durations. [t0, t1] must lie
        between two samples (``start``/``stop`` or ``sample`` calls).
        """
        np = self._np
        starts = np.asarray(self.starts)
        ends = starts + np.asarray(self.durations)
        if not (ends[0] <= t0 <= t1 <= starts[-1]):
            raise ValueError("interval is not between two kernel samples")
        overlap = np.clip(np.minimum(t1, starts[1:]) - np.maximum(t0, ends[:-1]), 0.0, None)
        mean_kernel = (np.asarray(self.durations[:-1]) + np.asarray(self.durations[1:])) / 2
        return float(np.sum(overlap * REFERENCE_S / mean_kernel))

    def median_kernel(self) -> float:
        return float(self._np.median(self.durations))
