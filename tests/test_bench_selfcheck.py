"""The benchmark's traced self-check as a test: `bench/run.py --trace 1`
requires the layer predictions of `bench/layers.py` to hold on every
workload, counts to repeat between traced runs and traced outputs to equal
untraced ones.  A change to which layers a workload runs fails here.  The
run reads `bench/` and writes only its work directory, `.bench_work/`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_self_check_holds():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True, "\n".join(table[-60:])
    assert result["failed"] == 0
