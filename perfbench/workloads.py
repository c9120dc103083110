"""The benchmark's workloads: set-up, one pass over fixed work, and checks.

Every workload is a closed loop with one request in flight: a recorded
stream is replayed as fast as the package serves it. ``setup`` builds
all inputs from the seed; each function in ``PASSES`` serves the whole
input once from a fresh start and checks every output against
``oracles``. Only the serving calls are timed; checks run between them,
untimed, and so does the host-speed kernel (``hostspeed.py``) when a
pass is given one.
"""

import io
import shutil
import time
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import oracles
from brakedist import cli, driver, pbrt, simgen, training
from brakedist.model import TrainedModel
from tracer import BLUP_BUDGET_S, tracing

STUDY_SEED = 42  # the committed default study, simgen.default_config()
STREAM_SEED_OFFSET = 1000  # replayed drivers never come from the study's seed
LEVELS = (10.0, 50.0, 90.0)  # percent, as `brakedist pbrt` prints them by default
HENDERSON_EVERY = 10  # check gamma_hat on every 10th event and each driver's last

# drivers, events per stimulus type per driver, and the history window of
# established drivers (None: drivers start empty with the package default).
# An established driver starts each pass with a full window of history
# already loaded, untimed, so every timed event runs at n = window and
# evicts one event; its remaining events are the timed stream.
SIZES = {
    "train": {"full": (200, (10, 10, 10), None), "smoke": (10, (5, 5, 5), None)},
    "replay_long": {"full": (2, (334, 333, 333), 500), "smoke": (1, (20, 20, 20), 40)},
    "replay_fleet": {"full": (400, (10, 10, 10), None), "smoke": (12, (2, 2, 2), None)},
    "cli_session": {"full": (20, (17, 17, 16), None), "smoke": (3, (2, 2, 2), None)},
}
# the host-speed kernel (hostspeed.py) whose work is most like each workload's
HOST_SPEED_KERNEL = {"train": "oracle", "replay_long": "large", "replay_fleet": "oracle",
                     "cli_session": "oracle"}
SMOKE_FIT = training.FitOptions(block_diagonal=True, max_iter=300, restarts=1)
FULL_FIT = training.FitOptions(block_diagonal=True)


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    latencies_s: array = field(default_factory=lambda: array("d"))
    # per request, the index of the host-speed sample taken just before it
    # (-1: none, or a request as long as the run, the fit)
    speed_marks: array = field(default_factory=lambda: array("q"))
    p90_error_sum_ms: float = 0.0
    p90_error_count: int = 0
    slow_blups: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add_latency(self, seconds, speed=None):
        self.latencies_s.append(seconds)
        self.speed_marks.append(len(speed.times_s) - 1 if speed is not None else -1)

    def add_p90_error(self, estimate_s, true_ms):
        self.p90_error_sum_ms += abs(1000.0 * estimate_s - true_ms)
        self.p90_error_count += 1

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def config_for(num_drivers, per_stimulus, seed):
    config = simgen.default_config()
    config.num_drivers = num_drivers
    config.obs_per_driver = tuple(per_stimulus)
    config.seed = seed
    return config


def interleave(drivers, seed, history):
    """Each driver's events in a seeded order (simgen emits them grouped
    by stimulus type): the first ``history`` per driver, and the rest
    round-robin over drivers as the stream."""
    rng = np.random.default_rng(seed)
    per_driver = [[obs[i] for i in rng.permutation(len(obs))] for obs in drivers.values()]
    stream = []
    for j in range(history, max(len(events) for events in per_driver)):
        stream += [(d, events[j]) for d, events in enumerate(per_driver) if j < len(events)]
    return [events[:history] for events in per_driver], stream


def true_p90s(config, truth, t_star):
    return np.array([
        [oracles.true_p90_ms(config.spec, config.beta_true, gamma, config.sigma2_true, s, t_star)
         for s in range(config.spec.num_stimuli)]
        for gamma in truth.values()
    ])


def served_model(study, config):
    """Population model without a fit: the generating variance parameters
    with fixed effects from a dense GLS solve on the default study."""
    beta, beta_cov = oracles.dense_gls(config.spec, study.drivers, config.sigma2_true,
                                       config.sigma_gamma_true)
    return TrainedModel(spec=config.spec, stimuli=config.stimuli, beta=beta,
                        sigma2=config.sigma2_true, sigma_gamma=config.sigma_gamma_true,
                        beta_cov=beta_cov)


def blup_percentiles(model, blup, stimulus):
    est = pbrt.estimate_pbrt(model, blup, stimulus)
    return [(pbrt.percentile(est, q / 100.0, conservative=False),
             pbrt.percentile(est, q / 100.0, conservative=True)) for q in LEVELS]


# -- set-up --------------------------------------------------------------


def setup(name, seed, size, workdir):
    num_drivers, per_stimulus, window = SIZES[name][size]
    stream_seed = seed + STREAM_SEED_OFFSET
    study_config = simgen.default_config()
    study, _ = simgen.generate(study_config)
    replayed, truth = simgen.generate(config_for(num_drivers, per_stimulus, stream_seed))
    drivers = replayed.drivers
    histories, stream = interleave(drivers, stream_seed, window or 0)
    ctx = SimpleNamespace(name=name, size=size, ids=list(drivers), drivers=drivers,
                          histories=histories, stream=stream,
                          max_history=window or driver.DEFAULT_MAX_HISTORY, blup_sizes=set(),
                          study=study, study_config=study_config,
                          seeds={"study_seed": STUDY_SEED, "stream_seed": stream_seed})
    if name == "train":
        if size == "smoke":
            ctx.study = simgen.generate(config_for(num_drivers, per_stimulus, STUDY_SEED))[0]
        ctx.options = FULL_FIT if size == "full" else SMOKE_FIT
    else:
        ctx.model = served_model(study, study_config)
    ctx.true90 = true_p90s(study_config, truth, TrainedModel.t_star)
    ctx.warmup_blup_ms = None
    if window:
        # A process's first BLUP at a size where OpenBLAS goes multithreaded
        # can stall for up to a second while its threads start. A serving
        # process pays that once, so set-up serves one BLUP at the window
        # size and reports how long it took.
        state = driver.DriverState(driver_id=ctx.ids[0], max_history=window)
        for obs in histories[0]:
            driver.add_observation(state, obs)
        t0 = time.perf_counter()
        driver.compute_blup(state, ctx.model)
        ctx.warmup_blup_ms = 1000.0 * (time.perf_counter() - t0)
    if name == "cli_session":
        ctx.workdir = workdir
        ctx.model_path = str(workdir / "model.json")
        training.save_model(ctx.model, ctx.model_path)
    return ctx


# -- passes --------------------------------------------------------------


def check_percentiles(res, values, where):
    for naive, cons in values:
        if not (np.isfinite(naive) and np.isfinite(cons) and naive > 0 and cons > 0):
            res.fail(f"{where}: non-finite or non-positive percentile")
            return False
    (n10, c10), (n50, c50), (n90, c90) = values
    if not (n10 < n50 < n90 and c10 < c50 < c90 and c10 <= n10 and c90 >= n90):
        res.fail(f"{where}: percentiles out of order")
        return False
    return True


@contextmanager
def ticking(speed):
    """Tick ``speed`` from inside ``training.fit``'s objective."""
    if speed is None:
        yield
        return
    original = training.nelder_mead

    def nelder_mead(fn, *args, **kwargs):
        def objective(vec):
            speed.tick()
            return fn(vec)

        return original(objective, *args, **kwargs)

    training.nelder_mead = nelder_mead
    try:
        yield
    finally:
        training.nelder_mead = original


def train_pass(ctx, tracer, speed=None):
    res = PassResult(attempted=1)
    with tracing(tracer), ticking(speed):
        spent = speed.spent_s if speed else 0.0
        t0 = time.perf_counter()
        model = training.fit(ctx.study, ctx.options)
        elapsed = time.perf_counter() - t0
        res.add_latency(elapsed - ((speed.spent_s - spent) if speed else 0.0))
    info = model.fit_info
    neg_loglik = -info.loglik
    res.info.update(neg_loglik=neg_loglik, converged=info.converged, iterations=info.iterations)
    problems = []
    recorded = oracles.RECORDED_NEG_LOGLIK[ctx.size]
    if neg_loglik > recorded + oracles.NEG_LOGLIK_SLACK:
        problems.append(f"-loglik {neg_loglik!r} above recorded {recorded!r}")
    if ctx.size == "full":
        if not info.converged:
            problems.append("fit did not converge")
        errors = oracles.recovery_errors(model, ctx.study_config)
        res.info["recovery_errors"] = errors
        problems += [f"{key} off by {errors[key]:.3f}"
                     for key, tol in oracles.RECOVERY_TOLERANCE.items() if errors[key] > tol]
    # Accuracy of the fitted model on drivers it never saw.
    heldout = PassResult()
    for d, driver_id in enumerate(ctx.ids):
        state = driver.DriverState(driver_id=driver_id)
        for obs in ctx.drivers[driver_id]:
            driver.add_observation(state, obs)
        blup = driver.compute_blup(state, model)
        for s in range(model.spec.num_stimuli):
            values = blup_percentiles(model, blup, s)
            if check_percentiles(heldout, values, f"held-out {driver_id}"):
                res.add_p90_error(values[2][1], ctx.true90[d, s])
    problems += heldout.failures[:1]
    if problems:
        res.fail("; ".join(problems))
    return res


def replay_pass(ctx, tracer, speed=None):
    res = PassResult()
    model = ctx.model
    num_stimuli = model.spec.num_stimuli
    states = [driver.DriverState(driver_id=i, max_history=ctx.max_history) for i in ctx.ids]
    for state, events in zip(states, ctx.histories):
        for obs in events:
            driver.add_observation(state, obs)
    last_event = len(ctx.stream) - len(ctx.ids)
    with tracing(tracer):
        for pos, (d, obs) in enumerate(ctx.stream):
            if tracer is not None:
                tracer.position = pos
            if speed is not None:
                speed.tick()
            state = states[d]
            res.attempted += 1
            try:
                t0 = time.perf_counter()
                driver.add_observation(state, obs)
                t1 = time.perf_counter()
                blup = driver.compute_blup(state, model)
                t2 = time.perf_counter()
                values = [blup_percentiles(model, blup, s) for s in range(num_stimuli)]
                t3 = time.perf_counter()
            except Exception as exc:  # a raising event is a failed event
                res.fail(f"event {pos}: {type(exc).__name__}: {exc}")
                continue
            res.add_latency(t3 - t0, speed)
            if t2 - t1 > BLUP_BUDGET_S:
                res.slow_blups.append({"ms": 1000.0 * (t2 - t1), "n": state.n, "position": pos,
                                       "first_at_size": state.n not in ctx.blup_sizes})
            ctx.blup_sizes.add(state.n)
            if not all(check_percentiles(res, v, f"event {pos}") for v in values):
                continue
            for s in range(num_stimuli):
                res.add_p90_error(values[s][2][1], ctx.true90[d, s])
            if pos % HENDERSON_EVERY == 0 or pos >= last_event:
                rel = oracles.relative_error(blup.gamma_hat,
                                             oracles.henderson_gamma(model, state.observations))
                if rel > oracles.HENDERSON_RTOL:
                    res.fail(f"event {pos}: gamma_hat off the Henderson solve by {rel:.2e}")
    return res


def cli_pass(ctx, tracer, speed=None):
    res = PassResult()
    registry = ctx.model.stimuli
    state_dir = ctx.workdir / "states"
    shutil.rmtree(state_dir, ignore_errors=True)
    state_dir.mkdir()
    last_output = {}
    with tracing(tracer):
        for pos, (d, obs) in enumerate(ctx.stream):
            if tracer is not None:
                tracer.position = pos
            if speed is not None:
                speed.tick()
            name = registry.name_of(obs.stimulus)
            state_path = str(state_dir / f"{ctx.ids[d]}.json")
            update = ["update", "--model", ctx.model_path, "--state", state_path,
                      "--event", f"{name},{obs.headway_s!r},{obs.brt_s!r}"]
            query = ["pbrt", "--model", ctx.model_path, "--state", state_path, "--stimulus", name]
            out, err = io.StringIO(), io.StringIO()
            res.attempted += 1
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                update_code = cli.main(update)
                query_start = out.tell()
                query_code = cli.main(query)
            res.add_latency(time.perf_counter() - t0, speed)
            text = out.getvalue()[query_start:]
            if update_code != 0 or query_code != 0:
                res.fail(f"event {pos}: exit codes {update_code},{query_code}: "
                         f"{err.getvalue().strip()}")
                continue
            last_output[d] = (text, obs.stimulus)
            try:
                p90_cons = float(text.splitlines()[3].split(",")[2])
            except (IndexError, ValueError):
                res.fail(f"event {pos}: unparsable pbrt output {text!r}")
                continue
            res.add_p90_error(p90_cons, ctx.true90[d, obs.stimulus])
    # Each driver's final output must equal an in-memory replay of its events.
    for d, (text, stimulus) in last_output.items():
        state = driver.DriverState(driver_id=ctx.ids[d])
        for e, obs in ctx.stream:
            if e == d:
                driver.add_observation(state, obs)
        values = blup_percentiles(ctx.model, driver.compute_blup(state, ctx.model), stimulus)
        want = oracles.pbrt_stdout([(q, n, c) for q, (n, c) in zip(LEVELS, values)])
        if text != want:
            res.fail(f"{ctx.ids[d]}: final pbrt output differs from the in-memory replay")
    return res


PASSES = {"train": train_pass, "replay_long": replay_pass, "replay_fleet": replay_pass,
          "cli_session": cli_pass}
