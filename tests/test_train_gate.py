"""The benchmark's full-size ``train`` gate, run as part of the test suite.

The fit must converge on the committed default study (block-diagonal),
reach -loglik <= 397.21544677218117 + 1e-6, recover sigma2 and beta
within the benchmark's tolerances, and give finite, ordered percentiles
for held-out drivers. Those checks are the benchmark's own
(``perfbench/workloads.py``); this test runs one pass of it and reads
the result line. A change to the fit can trip them only at full size.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_full_size_train_gate_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
