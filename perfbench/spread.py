"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload replay_fleet --runs 10
    python3 perfbench/spread.py --workload replay_fleet --runs 10 \
        --baseline .bench_out/spread-replay_fleet.json

Runs ``run.py`` once per seed (0, 1, ...), one run at a time, and prints
for each end-to-end metric its median and its quartile spread (the
distance between the first and third quartile as a share of the
median), next to the metric's bound from BENCHMARK.json. The spread of
every metric but ``setup_s`` should stay below a third of its bound.
With ``--baseline``, it also prints how far each median moved against
an earlier run's saved values, signed so that positive means worse.
Values are saved to ``.bench_out/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: [] for name in metrics}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode}): {proc.stdout[-2000:]}")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  ok  worse_by")
    for name, m in metrics.items():
        median = statistics.median(values[name])
        spread = quartile_spread(values[name])
        ok = name == "setup_s" or spread < m["bound"] / 3
        line = f"{name:<16} {median:>12.6g} {spread:>8.4f} {m['bound']:>6}  {'yes' if ok else 'NO '}"
        if baseline:
            before = statistics.median(baseline[name])
            worse = (median - before) / before * (1 if m["better"] == "lower" else -1)
            line += f"  {worse:+.4f}{'' if worse <= m['bound'] else ' OVER BOUND'}"
        print(line)
    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
