"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke FAIL" not in proc.stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay_fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "metrics" not in json.loads(line)


def test_host_speed_scales_by_the_kernels_median(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import hostspeed
    from brakedist import simgen

    config = simgen.default_config()
    config.num_drivers = 3
    config.obs_per_driver = (2, 2, 2)
    study, _ = simgen.generate(config)
    speed = hostspeed.HostSpeed("oracle", study, config)
    assert speed.scale() == 1.0
    speed.tick()
    speed.tick()  # within the interval of the first: no second sample
    assert len(speed.times_s) == 1
    assert speed.scale() == hostspeed.NOMINAL_S["oracle"] / speed.times_s[0]
    assert list(speed.scales([0, -1])) == [speed.scale(), speed.scale()]
