"""brakedist benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload replay_fleet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root or anywhere else: the package is imported
from ``src/`` beside this directory, never from an installed copy, and
the run fails without printing a result when that source is missing.

A run sets its workload up ``SETUPS`` times (set-up time is their
median; a timed run first sets up once more, untimed, for the study the
host-speed kernel reads), then serves the workload's fixed input in whole passes until
``--seconds`` have elapsed. Workloads and their checks are in
``workloads.py``, the reference computations in ``oracles.py``.

Every timing metric is scaled to a nominal host speed by
``hostspeed.py``: a fixed numpy kernel timed beside the requests
measures how fast the shared host runs from moment to moment, and each
set-up and request time is multiplied by a factor from it, which
cancels the host's slow spells. The report line gives the wall-clock
figures (``setup_times_s``, ``summary_wall``) and the kernel's timings
(``host_speed``).

End-to-end metrics (``--trace 0``), the same names on every workload:

    setup_s         median set-up time: study, served model, inputs
    peak_rss_mb     peak resident set size of the run
    events_per_s    served requests per second of serving time
    event_p50_ms    median request latency
    event_p90_ms    90th-percentile request latency

A request is one braking event on the replay and CLI workloads, and one
``fit`` on ``train``, where the sample count is therefore one per pass.
The tail is the 90th percentile: ``replay_long`` serves 1,000 events a
run, and its 99th percentile, ten samples from the top, follows the
host's stalls more than the code; on ``cli_session`` the 95th still
moved by a fifth between runs of the same code, after scaling, where
the 90th moved by a twentieth to a tenth. The report line gives the
95th and 99th percentiles and the sample count for every run.
Quality is checked rather than timed: ``failed_share`` is carried by
``attempted`` and ``failed``, and a failed check makes the result
``"correct": false`` and the exit code 1. The accuracy of the served
estimates, mean |conservative 90th-percentile estimate - the driver's
true 90th percentile| (``p90_abs_err_ms``), is deterministic for a seed
and depends on the few drivers a workload draws, so it is reported in
the report line and as the per-layer ``pbrt.p90_abs_err_ms``.

``--trace 1`` serves one untraced pass, then one traced set-up and pass
with ``tracer.Tracer`` installed, and reports per-layer metrics from
that pass's spans plus the tracing overhead between the two passes.
Spans are written to ``.bench_out/spans-<workload>.csv``.

``--smoke`` runs every workload of BENCHMARK.json at a tiny size with
tracing off and on, and fails unless every metric BENCHMARK.json names
is present with its unit.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = {"full": 9, "smoke": 2}
COLD_IMPORTS = {"full": 5, "smoke": 1}


def import_package():
    """Import brakedist from SRC, or exit non-zero."""
    if not (SRC / "brakedist" / "__init__.py").is_file():
        sys.exit(f"error: brakedist source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import brakedist

    if Path(brakedist.__file__).resolve().parent != SRC / "brakedist":
        sys.exit(f"error: imported brakedist from {brakedist.__file__}, not {SRC}")


def blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_env if k in os.environ},
    }


def cold_import_s(repeats):
    """Median wall time of a fresh interpreter importing brakedist.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import brakedist.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def latency_summary(results, speed=None):
    """Request-time statistics, scaled by ``speed`` when one is given."""
    import numpy as np

    lat = np.concatenate([np.asarray(r.latencies_s, dtype=float) for r in results])
    if speed is not None:
        lat = lat * speed.scales(np.concatenate([np.asarray(r.speed_marks) for r in results]))
    error_count = sum(r.p90_error_count for r in results)
    if lat.size == 0:
        return {"events": 0}
    return {
        "events": int(lat.size),
        "events_per_s": float(lat.size / lat.sum()),
        "event_p50_ms": float(1000.0 * np.percentile(lat, 50)),
        "event_p90_ms": float(1000.0 * np.percentile(lat, 90)),
        "event_p95_ms": float(1000.0 * np.percentile(lat, 95)),
        "event_p99_ms": float(1000.0 * np.percentile(lat, 99)),
        "serving_s": float(lat.sum()),
        "p90_abs_err_ms": (sum(r.p90_error_sum_ms for r in results) / error_count
                           if error_count else 0.0),
    }


def end_to_end(results, setup_times, speed):
    summary = latency_summary(results, speed)
    metrics = {
        "setup_s": (float(statistics.median(setup_times)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, unit in (("events_per_s", "1/s"), ("event_p50_ms", "ms"), ("event_p90_ms", "ms")):
        metrics[name] = (summary.get(name, 0.0), unit)
    return metrics


def per_layer(tracer, untraced, traced, cold_s):
    import numpy as np

    spans = tracer.per_name()
    empty = (0, 0.0, 0.0, np.zeros(0))

    def calls(name):
        return spans.get(name, empty)[0]

    def total(name):
        return spans.get(name, empty)[1]

    def own(name):
        return spans.get(name, empty)[2]

    def share(part, whole):
        return part / whole if whole else 0.0

    counts = tracer.counts
    evals = counts.get("training.objective.evals", 0)
    runs = calls("optimize.nelder_mead")
    blup_n = tracer.samples.get("driver.compute_blup.n", [])
    blup_ms = 1000.0 * spans.get("driver.compute_blup", empty)[3]
    state_bytes = tracer.samples.get("driver.state_bytes", [])
    untraced_s = latency_summary([untraced]).get("serving_s", 0.0)
    traced_s = latency_summary([traced]).get("serving_s", 0.0)
    metrics = {
        "numerics.generalized_inverse.calls": (calls("numerics.generalized_inverse"), "count"),
        "numerics.generalized_inverse.s": (total("numerics.generalized_inverse"), "s"),
        "numerics.spd_solve.calls": (calls("numerics.spd_solve"), "count"),
        "numerics.spd_solve.s": (total("numerics.spd_solve"), "s"),
        "numerics.is_psd.calls": (calls("numerics.is_psd"), "count"),
        "model.build_design.calls": (calls("model.build_design"), "count"),
        "model.build_design.rows": (counts.get("model.build_design.rows", 0), "count"),
        "model.build_design.s": (total("model.build_design"), "s"),
        "optimize.nelder_mead.runs": (runs, "count"),
        "optimize.nelder_mead.iterations": (counts.get("optimize.nelder_mead.iterations", 0), "count"),
        "optimize.nelder_mead.nfev": (counts.get("optimize.nelder_mead.nfev", 0), "count"),
        "optimize.nelder_mead.self_s": (own("optimize.nelder_mead"), "s"),
        "optimize.nelder_mead.converged_share": (
            share(counts.get("optimize.nelder_mead.converged", 0), runs), "ratio"),
        "training.objective.evals": (evals, "count"),
        "training.objective.s": (total("training.objective"), "s"),
        "training.objective.mean_ms": (1000.0 * share(total("training.objective"), evals), "ms"),
        "training.objective.inf_share": (share(counts.get("training.objective.inf", 0), evals), "ratio"),
        "training.final_pass.s": (total("training.final_pass"), "s"),
        "driver.compute_blup.calls": (calls("driver.compute_blup"), "count"),
        "driver.compute_blup.s": (total("driver.compute_blup"), "s"),
        "driver.compute_blup.mean_n": (float(np.mean(blup_n)) if blup_n else 0.0, "obs"),
        "driver.compute_blup.p99_ms": (
            float(np.percentile(blup_ms, 99)) if blup_ms.size else 0.0, "ms"),
        "driver.compute_blup.over_50ms": (len(tracer.slow_blups), "count"),
        "driver.compute_blup.cache_hit_share": (
            share(counts.get("driver.compute_blup.cache_hits", 0), calls("driver.compute_blup")),
            "ratio"),
        "driver.evictions": (counts.get("driver.evictions", 0), "count"),
        "driver.state_load.s": (total("driver.state_load"), "s"),
        "driver.state_save.s": (total("driver.state_save"), "s"),
        "driver.state_bytes": (float(np.mean(state_bytes)) if state_bytes else 0.0, "B"),
        "pbrt.estimate_pbrt.calls": (calls("pbrt.estimate_pbrt"), "count"),
        "pbrt.estimate_pbrt.s": (total("pbrt.estimate_pbrt"), "s"),
        "pbrt.percentile.calls": (calls("pbrt.percentile"), "count"),
        "pbrt.percentile.s": (total("pbrt.percentile"), "s"),
        "pbrt.p90_abs_err_ms": (latency_summary([traced]).get("p90_abs_err_ms", 0.0), "ms"),
        "simgen.generate.s": (total("simgen.generate"), "s"),
        "simgen.generate.observations": (counts.get("simgen.generate.observations", 0), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
        "cli.load_model.s": (total("cli.load_model"), "s"),
        "cli.cold_import_s": (cold_s, "s"),
        "trace.overhead_share": (share(traced_s, untraced_s) - 1.0 if untraced_s else 0.0, "ratio"),
    }
    return metrics


def run_workload(name, seed, seconds, trace, size, workdir):
    """Returns (metrics {name: (value, unit)}, results, report dict)."""
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer, tracing

    speed = None
    if not trace:
        first = workloads.setup(name, seed, size, workdir)  # untimed: the kernel's study
        speed = HostSpeed(workloads.HOST_SPEED_KERNEL[name], first.study, first.study_config)
    setup_times, setup_marks, warmups = [], [], []
    for _ in range(SETUPS[size]):
        if speed is not None:
            speed.tick(force=True)
            setup_marks.append(len(speed.times_s) - 1)
        t0 = time.perf_counter()
        ctx = workloads.setup(name, seed, size, workdir)
        setup_times.append(time.perf_counter() - t0)
        warmups.append(ctx.warmup_blup_ms)
    run_pass = workloads.PASSES[name]
    report = {"seeds": ctx.seeds, "setup_times_s": setup_times, "warmup_blup_ms": warmups}
    if not trace:
        results = []
        start = time.perf_counter()
        while True:
            results.append(run_pass(ctx, None, speed))
            if time.perf_counter() - start >= seconds:
                break
        metrics = end_to_end(results, speed.scales(setup_marks) * setup_times, speed)
        report["host_speed"] = speed.summary()
        report["summary"] = latency_summary(results, speed)
    else:
        untraced = run_pass(ctx, None)
        tracer = Tracer()
        with tracing(tracer):
            ctx = workloads.setup(name, seed, size, workdir)
        traced = run_pass(ctx, tracer)
        results = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced, cold_import_s(COLD_IMPORTS[size]))
        report["untraced_pass"] = latency_summary([untraced])
        report["traced_pass"] = latency_summary([traced])
        report["traced_slow_blups"] = tracer.slow_blups
        spans_path = (OUT if size == "full" else workdir) / f"spans-{name}.csv"
        tracer.write_spans(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    report["passes"] = len(results)
    report["summary_wall"] = latency_summary(results)
    report["slow_blups"] = [b for r in results for b in r.slow_blups]
    report["failures"] = [f for r in results for f in r.failures][:10]
    report.update({k: v for r in results for k, v in r.info.items()})
    return metrics, results, report


def result_line(metrics, results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(workdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            t0 = time.perf_counter()
            metrics, results, report = run_workload(workload, 0, 0, trace, "smoke", workdir)
            result = result_line(metrics, results)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            where = f"{workload} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: incorrect: {report['failures']}")
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            print(f"smoke {where}: {len(got)} metrics, {result['attempted']} attempted, "
                  f"{result['failed']} failed, {time.perf_counter() - t0:.2f}s")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at a tiny size, checking the metric names")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_package()
    import workloads

    if not args.smoke and args.workload not in workloads.PASSES:
        parser.error(f"--workload must be one of {sorted(workloads.PASSES)}")

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workdir)
        metrics, results, report = run_workload(
            args.workload, args.seed, args.seconds, args.trace, "full", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_line(metrics, results)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "failed_share": result["failed"] / result["attempted"], **report}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
