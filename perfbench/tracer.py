"""In-memory span tracer that wraps brakedist's public names from outside.

Each wrapped name is replaced, on the module object where its caller
looks it up, by a function that opens a span, calls the original and
closes the span. Spans (name, start, end, parent) stay in arrays until
the run ends; counts and samples recorded by per-name hooks sit beside
them. Self time of a span is its duration minus that of its direct
children; calls nest on one thread, so children never overlap.
"""

import contextlib
import csv
import functools
import time
from array import array

import numpy as np

from brakedist import cli, driver, model, pbrt, simgen, training

BLUP_BUDGET_S = 0.050  # the real-time update budget (acceptance criterion 7)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = []
        self._saved = []
        self.counts = {}
        self.samples = {}
        self.slow_blups = []
        self._blup_sizes = set()
        self.position = -1  # index of the current event in the replayed stream

    # -- recording -----------------------------------------------------

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def _open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span_fn(self, fn, name, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` returns a token that
        ``after(token, args, result, duration_ns)`` receives."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(token, args, result, tracer.span_end[idx] - tracer.span_start[idx])
            return result

        return traced

    def wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span_fn(original, name, before, after))

    # -- hooks ---------------------------------------------------------

    def _nelder_mead(self, fn, *args, **kwargs):
        def objective(vec):
            idx = self._open("training.objective")
            try:
                value = fn(vec)
            finally:
                self._close(idx)
            self.count("training.objective.evals")
            if not np.isfinite(value):
                self.count("training.objective.inf")
            return value

        result = self._nelder_mead_original(objective, *args, **kwargs)
        self.count("optimize.nelder_mead.iterations", result.iterations)
        self.count("optimize.nelder_mead.nfev", result.nfev)
        self.count("optimize.nelder_mead.converged", int(result.converged))
        return result

    def _blup_before(self, args):
        state = args[0]
        return state.n, state.cached is not None

    def _blup_after(self, token, args, result, duration_ns):
        n, hit = token
        self.count("driver.compute_blup.cache_hits", int(hit))
        self.sample("driver.compute_blup.n", n)
        if duration_ns > BLUP_BUDGET_S * 1e9:
            self.slow_blups.append({
                "ms": duration_ns / 1e6,
                "n": n,
                "position": self.position,
                "first_at_size": n not in self._blup_sizes,
            })
        self._blup_sizes.add(n)

    def _add_after(self, token, args, result, duration_ns):
        before_n = token
        self.count("driver.evictions", before_n + 1 - result.n)

    def _write_after(self, token, args, result, duration_ns):
        self.sample("driver.state_bytes", len(args[1].encode("utf-8")))

    def _design_after(self, token, args, result, duration_ns):
        self.count("model.build_design.rows", result[0].shape[0])

    def _generate_after(self, token, args, result, duration_ns):
        self.count("simgen.generate.observations", result[0].num_observations)

    # -- installation --------------------------------------------------

    def install(self):
        self._nelder_mead_original = training.nelder_mead
        self._saved.append((training, "nelder_mead", training.nelder_mead))
        training.nelder_mead = self.span_fn(self._nelder_mead, "optimize.nelder_mead")
        self.wrap(training, "marginal_cov", "training.final_pass")
        self.wrap(training, "gls_beta", "training.final_pass")
        self.wrap(training, "generalized_inverse", "numerics.generalized_inverse")
        self.wrap(training, "spd_solve", "numerics.spd_solve")
        self.wrap(driver, "spd_solve", "numerics.spd_solve")
        self.wrap(model, "is_psd", "numerics.is_psd")
        self.wrap(simgen, "is_psd", "numerics.is_psd")
        self.wrap(training, "build_design", "model.build_design", after=self._design_after)
        self.wrap(driver, "build_design", "model.build_design", after=self._design_after)
        self.wrap(driver, "add_observation", "driver.add_observation",
                  before=lambda args: args[0].n, after=self._add_after)
        self.wrap(driver, "compute_blup", "driver.compute_blup",
                  before=self._blup_before, after=self._blup_after)
        self.wrap(driver, "load_driver_state", "driver.state_load")
        self.wrap(driver, "state_to_dict", "driver.state_save")
        self.wrap(cli, "_atomic_write_text", "driver.state_save", after=self._write_after)
        self.wrap(pbrt, "estimate_pbrt", "pbrt.estimate_pbrt")
        self.wrap(pbrt, "percentile", "pbrt.percentile")
        self.wrap(training, "load_model", "cli.load_model")
        self.wrap(cli, "main", "cli.main")
        self.wrap(simgen, "generate", "simgen.generate", after=self._generate_after)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def per_name(self):
        """name -> (calls, total_s, self_s, durations_s ndarray)."""
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = (end - start).astype(float) / 1e9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for name_id, label in enumerate(self.names):
            mask = name == name_id
            out[label] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()), dur[mask])
        return out

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent"])
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                writer.writerow([i, self.names[n], s, e, p])


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer`` for the block; do nothing when it is None."""
    if tracer is None:
        yield None
        return
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
