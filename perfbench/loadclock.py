"""A wall clock that discounts contention from other tenants of the machine.

On a shared host the same job can take twice as long from one minute to the
next while its own CPU time tracks the wall clock, because the slowdown comes
from cores, caches and memory bandwidth shared with other machines' work.
LoadClock samples that slowdown: a SIGALRM timer runs a fixed probe, a 32^3
complex FFT round trip, every PERIOD seconds on the measured thread.  The
probe runs twice and only the second, warm run is timed, so the cache misses
the measured program causes itself do not count as contention.  Each stretch
of work between two probes is weighted by REF_PROBE_S / (mean duration of
the two probes around it), so a stretch run at half speed counts half.  The
result is "normalised seconds": seconds at the probe's reference speed, its
warm uncontended duration on a 2-core 2.0 GHz Xeon VM.  The raw wall time is
reported beside it; probe time is excluded from both.

Of the probes tried (small 2D FFTs with a small matmul and a Python loop,
pure-Python work, a 1 MB elementwise stream, the 3D FFT, each cold or warm),
the warm 3D FFT tracked the solver workloads' slowdown best.
"""

import signal
import time
from array import array

import numpy as np
from numpy.fft import fftn, ifftn  # bound now, so a tracer never sees them

PERIOD = 0.1
REF_PROBE_S = 1.5e-3
_ALARM = {signal.SIGALRM}

_CUBE = np.random.default_rng(1).standard_normal((32, 32, 32)) + 0j


def _probe_kernel():
    ifftn(fftn(_CUBE))


class LoadClock:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.durations = array("d")  # of the timed, warm run
        for _ in range(20):  # warm caches and the allocator
            _probe_kernel()

    def sample(self, *_signal_args):
        # blocked so that a timer tick cannot nest a probe inside this one
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            t0 = time.perf_counter()
            _probe_kernel()  # warm-up, untimed
            t1 = time.perf_counter()
            _probe_kernel()
            t2 = time.perf_counter()
            self.starts.append(t0)
            self.durations.append(t2 - t1)
            self.ends.append(t2)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, normalised seconds)."""
        first = len(self.starts)
        self.sample()
        result = fn(*args)
        self.sample()
        last = len(self.starts) - 1
        raw = norm = 0.0
        for k in range(first + 1, last + 1):
            work = self.starts[k] - self.ends[k - 1]
            slowdown = 0.5 * (self.durations[k - 1] + self.durations[k]) / REF_PROBE_S
            raw += work
            norm += work / slowdown
        return result, raw, norm
