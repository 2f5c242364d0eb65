"""Machine-speed calibration for the benchmark's timings.

The host shares its cores with other machines.  Its speed flips between
fast and slow phases lasting seconds, and drifts by up to about 2x over
minutes, more than any bound the benchmark could keep.  A fixed
pure-Python kernel (Fraction arithmetic, tuple building, sorting and dict
updates, the operations toriclab spends its time on) is timed every
INTERVAL_S of process CPU time from a SIGPROF handler, during set-up and
during the timed loop.  Each time is then brought to the reference speed:
the kernel time spent inside it is taken out, and the rest is scaled by
REF_KERNEL_MS over the mean kernel time around it.  Scaled times read as
milliseconds on a machine where the kernel takes REF_KERNEL_MS.  The
kernel never calls toriclab, so a change to the library moves the scaled
times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_MS = 0.6  # about the kernel's time in a fast phase of a 2.1 GHz Xeon vCPU
INTERVAL_S = 0.02  # process CPU time between samples
# samples this far before and after a query also set its speed; phases
# change fast enough that a narrow window tracks a short query best
MARGIN_S = 0.05
RECENT = 25  # samples that set the current slowdown


def _kernel():
    acc = Fraction(0)
    seen = {}
    pts = []
    for i in range(1, 200):
        a, b = i % 13 - 6, i % 7 - 3
        p = (3 * a + b, 5 * b - a, a * b)
        pts.append(p)
        seen[p] = seen.get(p, 0) + 1
        acc += Fraction(a, i)
    pts.sort()
    return acc, sum(x * y - z for x, y, z in pts), len(seen)


def kernel_ms():
    """One timed kernel run in ms, with the cyclic collector off so that
    garbage the library left behind is not charged to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every INTERVAL_S of process CPU time while started.
    `samples` holds [time.perf_counter() at the sample, kernel ms]."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append([time.perf_counter(), kernel_ms()])

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def slowdown(self):
        """How many times longer than at the reference speed work takes
        now, from the last RECENT samples; 1 before the first."""
        recent = self.samples[-RECENT:]
        return statistics.fmean(k for _, k in recent) / REF_KERNEL_MS if recent else 1.0


def scale(ms, inside, near):
    """`ms` brought to the reference speed: less the kernel samples taken
    `inside` it, scaled by the mean of the samples `near` it.  None when
    there are none near."""
    if not near:
        return None
    return (ms - sum(inside)) * REF_KERNEL_MS / statistics.fmean(near)


def scale_spans(spans, samples):
    """scale() for each (start, ms) span, start in perf_counter seconds,
    with the samples taken during it and within MARGIN_S of it, or all
    samples when none is that close."""
    samples = sorted(samples)
    times = [t for t, _ in samples]
    kernels = [k for _, k in samples]
    out = []
    for start, ms in spans:
        end = start + ms / 1000
        inside = kernels[bisect.bisect_left(times, start) : bisect.bisect_right(times, end)]
        near = kernels[bisect.bisect_left(times, start - MARGIN_S) : bisect.bisect_right(times, end + MARGIN_S)]
        out.append(scale(ms, inside, near or kernels))
    return out
