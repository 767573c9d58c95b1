"""Wall time scaled to a reference host speed.

The shared 2-vCPU host this benchmark was built on changes speed by up to
1.7x within a couple of seconds and stays there for up to a minute.  CPU
time moves with it, so it is no cure.  What does track it is a fixed
pure-Python loop (the probe): over 2-second windows a 12 ms blocker op
varied from 9.9 to 15.3 ms while its ratio to the probe stayed within 3%.

So the benchmark runs the probe between ops, at most `PROBE_EVERY` seconds
apart, and before and after every timed stretch that cannot be split (a
cold process, one set-up phase).  Each stretch of wall time is scaled by
`REF_PROBE_S` over the mean of the probes on either side of it.  A change
in the program moves the scaled time exactly as it moves the wall time; a
change in host speed moves the probe and the program alike and cancels.
`REF_PROBE_S` fixes the unit: a scaled second is a second on a host where
the probe takes exactly that long (the median there was 0.97 ms).
"""
from __future__ import annotations

from time import perf_counter

PROBE_LOOPS = 5000
PROBE_REPEATS = 3
REF_PROBE_S = 1.0e-3
PROBE_EVERY = 0.1


def probe():
    """Seconds the fixed loop takes now: the fastest of a few short runs,
    so that one interrupt does not skew it."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        s, d = 0, {}
        for i in range(PROBE_LOOPS):
            s += i * i % 7
            d[i & 1023] = s
        best = min(best, perf_counter() - t0)
    return best


class ScaledClock:
    """Collects raw wall-time stretches and hands each one, scaled, to its
    sink list once the probe after it has run."""

    def __init__(self):
        self.last = probe()
        self.at = perf_counter()
        self.pending = []  # (raw seconds, sink list)

    def add(self, seconds, sink):
        self.pending.append((seconds, sink))

    def due(self):
        """Probe if `PROBE_EVERY` has passed since the last probe."""
        if perf_counter() - self.at >= PROBE_EVERY:
            self.flush()

    def flush(self):
        """Probe now and scale every stretch added since the last probe."""
        now = probe()
        scale = REF_PROBE_S / ((self.last + now) / 2)
        for seconds, sink in self.pending:
            sink.append(seconds * scale)
        self.pending.clear()
        self.last = now
        self.at = perf_counter()
