"""Machine speed, sampled while hcat runs, to put op latencies on one clock.

The benchmark's host shares its CPUs: the same code runs up to twice as
slow in phases that last from under a second to minutes, and process
CPU time slows with it (there is no steal time to subtract).  A median
over one run cannot remove a phase that covers the run, so two runs of
the same code could differ by more than a regression bound.

While an op runs, a SIGALRM handler times a fixed reference kernel every
INTERVAL_S seconds, after a shorter warm-up that makes it independent of
what hcat left in the caches.  The op's latency, less the handler's own
time, is multiplied by REFERENCE_S / (median kernel time in the op),
which gives the seconds it would have taken at the speed where the
kernel takes REFERENCE_S.  A change to hcat moves the latency and not
the kernel; a phase of the host moves both.  Work that competed with
hcat's own thread for the CPU would slow the kernel too and be partly
scaled away; hcat runs one thread.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

from scipy.integrate import quad

INTERVAL_S = 0.05
#: kernel time at the reference speed: the fast level of a 2-vCPU VM
#: (Python 3.11.7, scipy 1.17.1), so scaled latencies read as seconds there
REFERENCE_S = 0.65e-3


def _integrand(x: float) -> float:
    return (3.0 + 0.5 * math.cosh(x)) / math.sqrt((math.sinh(x) + 1e-3) * (math.cosh(x) + 2.0))


def kernel(upper: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)) -> float:
    """scipy's QUADPACK calling back into a Python integrand with a square
    root at one end: the mix of C and interpreter work that dominates
    hcat's inversions and integrals, with no hcat code in it.  Over 1-s
    blocks of interleaved work, hcat's inversion time divided by this
    kernel's time varied less (IQR / median 0.04) than divided by a
    pure-Python float loop's (0.06)."""
    return sum(quad(_integrand, 0.0, a, epsabs=1e-12, epsrel=1e-12)[0] for a in upper)


class Speedometer:
    """Use as a context manager around the timed loop; `start` before an
    op's clock starts, `stop` when it stops."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the kernel, inside and outside ops
        self.factors: list[float] = []  # REFERENCE_S / kernel median, per op

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        kernel((1.0,))
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.busy += t2 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self) -> tuple[int, float]:
        """Take one sample now, so that even an op shorter than
        INTERVAL_S has one, and mark where the op's samples begin."""
        n = len(self.samples)
        self.sample()
        return n, self.busy

    def stop(self, mark: tuple[int, float], latency: float) -> float:
        """The op's latency on the reference clock."""
        n, busy = mark
        factor = REFERENCE_S / statistics.median(self.samples[n:])
        self.factors.append(factor)
        return (latency - (self.busy - busy)) * factor
