"""Host-speed normalisation of wall times.

The hosts this benchmark runs on can run the same code at speeds up to 2x
apart, switching every second or so and sometimes staying slow for minutes
(contention for the physical core, not scheduling: ``time.process_time``
slows down as much as wall time). A plain wall time then measures the host's
phase as much as the program.

``HostSpeed`` samples the host's speed all through a run: a ``SIGALRM``
timer (no thread, no process) runs a fixed reference kernel every
``PERIOD`` seconds and records how long it took. The kernel is a log-space
series of scalar scipy special functions, ``math`` functions and Python
arithmetic, short calls into compiled code from the interpreter as fldp
makes them, and it never changes with the program. Of the kernels tried
(numpy matrix products, element-wise array functions, plain Python loops,
random memory reads, scalar special functions in a flat loop) its slowdown
matched fldp's local SGD and accountant best. A span of work that took
``busy`` seconds, with the kernel's own time taken out, is then rescaled to
a host on which one kernel call takes ``NOMINAL_S``:

    normalised = busy * mean(NOMINAL_S / kernel_time)

over the kernel calls from ``PAD`` seconds before the span to ``PAD``
seconds after it, so that a short span still averages about ten calls and
the jitter of single calls cancels. Since the timer fires at even
intervals, the mean weights each host phase by the time the span spent in
it. The kernel takes about 2% of the run.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

from scipy import special

perf = time.perf_counter

PERIOD = 0.05
PAD = 0.25
NOMINAL_S = 1e-3


def _log_add(a: float, b: float) -> float:
    lo, hi = min(a, b), max(a, b)
    return math.log1p(math.exp(lo - hi)) + hi


def reference_kernel() -> float:
    """About 1 ms of fixed work: a log-space series with scalar special
    functions, shaped like an RDP term sum. Its result is unused."""
    total = -50.0
    log_q, log_1mq = math.log(0.03), math.log1p(-0.03)
    for i in range(1, 200):
        x = 1.37 + 0.5 * i
        k = i % 7
        coef = special.gammaln(x + 1) - special.gammaln(k + 1) - special.gammaln(x - k + 1)
        term = coef + i * log_q + (x - i) * log_1mq + (i * i - i) / 8.0
        tail = math.log(0.5) + math.log(2.0) + float(special.log_ndtr(-0.05 * i))
        total = _log_add(total, term + tail)
    return total


class HostSpeed:
    """Times the reference kernel from a timer signal while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf()
        reference_kernel()
        end = perf()
        self.starts.append(start)
        self.kernel_s.append(end - start)
        self.overhead_s += end - start

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return perf(), self.overhead_s

    def span(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, busy seconds without the kernel) since ``mark``."""
        start, overhead = mark
        end = perf()
        return start, end, (end - start) - (self.overhead_s - overhead)

    def normalise(self, span: tuple[float, float, float]) -> float:
        """Busy seconds of ``span`` rescaled to the nominal host speed."""
        start, end, busy = span
        lo = bisect.bisect_left(self.starts, start - PAD)
        hi = bisect.bisect_right(self.starts, end + PAD)
        while hi - lo < 2 and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi == lo:
            return busy
        return busy * statistics.fmean(NOMINAL_S / k for k in self.kernel_s[lo:hi])

    def summary(self) -> dict[str, float]:
        k = self.kernel_s
        return {
            "kernel_calls": len(k),
            "kernel_ms_p10": statistics.quantiles(k, n=10)[0] * 1e3 if len(k) > 1 else None,
            "kernel_ms_p50": statistics.median(k) * 1e3 if k else None,
            "kernel_ms_p90": statistics.quantiles(k, n=10)[-1] * 1e3 if len(k) > 1 else None,
        }
