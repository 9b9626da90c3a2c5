"""Machine-speed probe, used to express timings in reference seconds.

The host this benchmark was defined on (2 vCPUs, shared) changes speed
by up to 1.8x within seconds while steal time stays at zero, so raw wall
times of the same instance drift far more between runs than any useful
regression bound. Each timed call is therefore bracketed by two probes:
a fixed pure-Python loop of the same kind of work as the package's hot
paths (float recursion, math.log and math.exp calls). A timing in
reference seconds is

    wall seconds * REFERENCE_S / mean(probe before, probe after)

so a slowdown of the host that the probe also sees cancels out, while a
slowdown of the package does not (the probe runs none of its code). On
a machine as fast as the reference, reference seconds equal wall
seconds. Raw wall times are printed next to every timing and kept in
the result file.
"""
import math
import time

# median probe() on the reference machine: Intel Xeon, 2 vCPUs,
# Python 3.11.7
REFERENCE_S = 0.0033


def _kernel():
    ib = 1.0
    total = 0.0
    for k in range(1, 8001):
        ib = 1.0 + (k / 7919.5) * ib
        total += math.log(k) - math.exp(-k * 1e-3)
    return ib + total


def probe():
    """Seconds one kernel run takes now: the fastest of three runs, so a
    single interrupt does not count as a slow machine."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class ReferenceClock:
    """Times calls in reference seconds, probing between calls."""

    def __init__(self):
        self.last = probe()

    def time(self, fn):
        """Call fn(); return (result or None, exception or None, wall s,
        reference s)."""
        before = self.last
        start = time.perf_counter()
        result, error = None, None
        try:
            result = fn()
        except Exception as exc:  # reported by the caller as a failure
            error = exc
        wall = time.perf_counter() - start
        self.last = probe()
        return result, error, wall, wall * REFERENCE_S / ((before + self.last) / 2)
