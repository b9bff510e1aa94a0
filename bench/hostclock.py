"""Host-speed correction for op latencies.

On a shared virtual machine the same pure-Python loop can take 1.7 times
longer from one second to the next, and the two vCPUs of a 2-vCPU guest slow
down independently.  Raw wall times then spread by 20 % or more between runs,
which hides the changes the benchmark is meant to show.

HostClock runs a fixed probe, written against the standard library only, on
a timer signal in the measuring thread itself.  The probe's duration traces
the speed of the CPU the thread is running on.  An op's corrected latency is
its wall time without the probes that ran inside it, scaled by the probe's
reference duration over the mean duration of those probes (or, for an op too
short to hold one, of the probes just before and after it).

The probe's code does not depend on stringalg, but it runs in the same
process as the ops and shares their heap and caches, so a change to the
program could move it and be partly cancelled.  calibrate.py measures how
much: it injects a known 2x cost, and a heap of a million extra objects,
into ops of 0.1 to 1 s and compares corrected with raw latency ratios.  On a
2-vCPU guest the corrected ratios came within 2 % of the raw ones on smith
and decompose.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

PROBE_EVERY_S = 0.05


def probe():
    """Interpreter-bound work: rational sums and tuple-keyed dict updates on
    small ints."""
    acc, table, x = Fraction(0), {}, 1
    for i in range(1, 400):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = (i & 31, x & 15)
        table[key] = table.get(key, 0) + (x >> 40)
        if i % 8 == 0:
            acc += Fraction(x & 1023, i)
    return acc, len(table)


# the probe's duration at the reference speed: corrected times are the times
# the ops would take on a host that runs the probe in that long (about the
# median speed of the 2-vCPU guest the bounds were set on)
PROBE_REF_S = 0.0005


class HostClock:
    """Probes the host on SIGALRM between start() and stop()."""

    def __init__(self, on_probe=None):
        self.on_probe = on_probe   # called with each probe's (start, end)
        self.stamps = array("d")
        self.durations = array("d")

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append(start)
        self.durations.append(end - start)
        if self.on_probe is not None:
            self.on_probe(start, end)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start=float("-inf"), end=float("inf")):
        """Reference over measured probe duration, from the probes inside
        [start, end] or, with none inside, the ones just before and after."""
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_left(self.stamps, end)
        if j == i:
            i, j = max(0, i - 1), min(len(self.stamps), i + 1)
        if j == i:
            raise ValueError("no probe has run yet")
        return PROBE_REF_S / statistics.fmean(self.durations[i:j])

    def net(self, start, end):
        """Wall time from start to end without the probes that ran in it."""
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_left(self.stamps, end)
        return end - start - sum(self.durations[i:j])

    def corrected(self, start, end):
        """Latency of an op that ran from start to end, at the reference
        speed."""
        return self.net(start, end) * self.scale(start, end)
