"""Machine-speed sampling, to scale wall times to a reference speed.

The shared 2-core machine the benchmark was written on runs the same code
up to 1.6x slower for stretches of seconds to minutes; for the same
operations, raw medians of ten 30-second runs spread by 25-33%.  A SIGALRM
handler in this process times a tiny fixed kernel every PERIOD seconds, so
the speed is sampled during an operation as well as between operations.  An
operation's scaled time is its wall time, less the sampler's own time,
times the kernel's reference time and its mean speed around the operation.
Each workload has a kernel of the same kind of work as its own, none of it
evfam code; its reference time is its median on the machine the benchmark
was written on (2-core Intel Xeon, Python 3.11, numpy 2.4), so that scaled
times read as seconds there.
"""

import bisect
import json
import signal
import statistics
import time

import numpy as np

PERIOD = 0.2
MARGIN = 1.0  # seconds of samples taken on either side of an operation


def vector_kernel(dim, ref_seconds):
    """Projection steps and norms on dim-vectors and a little JSON, the mix
    of the solver workloads; the same code evfam runs, but none of it."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=dim)
    a /= np.linalg.norm(a)
    x = rng.normal(size=dim) + a

    def kernel():
        for _ in range(60):
            slack = float(a @ x) - 0.5
            y = x - (slack / float(a @ a)) * a if slack > 0 else x
            float(np.linalg.norm(x + 1.0 * (y - x) - y))
        json.dumps([list(map(float, x)) for _ in range(4)], indent=2)

    kernel.ref_seconds = ref_seconds
    return kernel


def set_kernel(ref_seconds):
    """Frozenset algebra and lookups, the mix of the set-calculus workload."""
    subsets = [frozenset(i for i in range(4) if mask >> i & 1) for mask in range(16)]
    members = frozenset(subsets[::3])

    def kernel():
        for _ in range(5):
            for u in subsets:
                for v in subsets:
                    if (u | v) in members and not (u & v) <= u:
                        raise AssertionError

    kernel.ref_seconds = ref_seconds
    return kernel


class SpeedSampler:
    def __init__(self, kernel):
        self.kernel = kernel
        self.ref_seconds = kernel.ref_seconds
        self.ends = []  # perf_counter at the end of each sample, increasing
        self.secs = []  # kernel seconds of each sample
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.secs.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, t0, t1):
        return bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def busy(self, t0, t1):
        """Sampler seconds spent between t0 and t1."""
        lo, hi = self._range(t0, t1)
        return sum(self.secs[lo:hi])

    def scale(self, t0, t1):
        """The kernel's reference time times its mean speed (1 / time) over
        the samples from t0 - MARGIN to t1 + MARGIN.  Samples come at even
        intervals, so a slow stretch weighs by its length."""
        lo, hi = self._range(t0 - MARGIN, t1 + MARGIN)
        if lo == hi:
            raise ValueError("no speed sample around the operation")
        return self.ref_seconds * statistics.fmean(1.0 / s for s in self.secs[lo:hi])
