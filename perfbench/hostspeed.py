"""Host speed: a fixed numpy kernel timed beside the workload.

The benchmark runs on shared machines whose speed moves by up to half,
in spells of seconds to minutes, so the same code reads very
differently from one run to the next. Each timed run therefore also
times a fixed kernel from the benchmark's own files, which never calls
the package, every ``INTERVAL_S`` of serving, outside the timed
requests, and once before each set-up. Each set-up and request time is
multiplied by

    NOMINAL_S[kernel] / (median time of the kernel's samples taken
                         within WINDOW_S of the one before it)

and a request that spans the whole run (a fit) by the mean of those
factors over all the run's samples, which are evenly spaced in time
while it serves. That scales them to a host on which
the kernel takes ``NOMINAL_S``, as it did on the 2-vCPU Intel Xeon
(2.1 GHz) where the values were chosen, so the scaled figures stay close
to that host's wall-clock ones. A slow spell slows the kernel and the
requests beside it alike, and cancels; a slower package slows only the
requests, and shows. Each workload uses the kernel whose work is most
like its own:

    oracle  the benchmark's Henderson solve (oracles.henderson_gamma) for
            two drivers of the default study at a time, in turn, under
            the generating parameters: per-driver Python and small numpy
            calls over a working set of 200 drivers, as in the fit, the
            fleet and the CLI
    large   a Cholesky factor at 500 x 500 and a solve with it, the BLAS
            work of the long-history replay's n x n solve

The unscaled wall-clock figures are in the run's report line.
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np

import oracles

INTERVAL_S = {"oracle": 0.020, "large": 0.100}
NOMINAL_S = {"oracle": 1.7e-4, "large": 1.0e-2}
WINDOW_S = 0.5


def _kernels(study, config):
    params = SimpleNamespace(spec=config.spec, beta=config.beta_true, sigma2=config.sigma2_true,
                             sigma_gamma=config.sigma_gamma_true)
    drivers = itertools.cycle(list(study.drivers.values()))
    rng = np.random.default_rng(20140524)
    a = rng.standard_normal((500, 500))
    large_a, large_b = a @ a.T + 500 * np.eye(500), rng.standard_normal((500, 10))

    def oracle():
        for _ in range(2):
            oracles.henderson_gamma(params, next(drivers))

    def large():
        np.linalg.solve(np.linalg.cholesky(large_a), large_b)

    return {"oracle": oracle, "large": large}


class HostSpeed:
    """Times ``kernel`` when ``tick`` is called, at most once per interval
    unless forced."""

    def __init__(self, kernel, study, config):
        self.kernel = kernel
        self._run = _kernels(study, config)[kernel]
        self._interval = INTERVAL_S[kernel]
        self._run()  # the first call pays numpy's and BLAS's lazy set-up
        self.times_s = []
        self.at_s = []
        self.spent_s = 0.0
        self._next = time.perf_counter()

    def tick(self, force=False):
        now = time.perf_counter()
        if now < self._next and not force:
            return
        self._run()
        end = time.perf_counter()
        self.times_s.append(end - now)
        self.at_s.append(now)
        self.spent_s += end - now
        self._next = end + self._interval

    def _local(self):
        """Per sample, NOMINAL_S over the median of the samples within
        WINDOW_S of it."""
        times = np.asarray(self.times_s)
        at = np.asarray(self.at_s)
        lo = np.searchsorted(at, at - WINDOW_S)
        hi = np.searchsorted(at, at + WINDOW_S, side="right")
        return np.array([NOMINAL_S[self.kernel] / np.median(times[a:b]) for a, b in zip(lo, hi)])

    def scale(self):
        """The whole run's factor; 1.0 before any sample."""
        return float(self._local().mean()) if self.times_s else 1.0

    def scales(self, marks):
        """Per-request factors for the sample indices ``marks`` (-1: the
        whole run's factor)."""
        local = self._local()
        marks = np.asarray(marks, dtype=np.int64)
        return np.where(marks >= 0, local[marks] if local.size else 1.0, self.scale())

    def summary(self):
        return {"kernel": self.kernel, "nominal_s": NOMINAL_S[self.kernel],
                "samples": len(self.times_s),
                "median_s": float(np.median(self.times_s)) if self.times_s else None,
                "scale": self.scale(), "spent_s": self.spent_s}
