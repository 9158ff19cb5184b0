"""Regenerate bench/reference.json, the stored outputs that the solve-n32 and
picard-n32 gates compare each run with: one record per seed in SEEDS.

    python3 bench/make_reference.py

The file is rewritten whole.  Rerun it only for a change that is meant to
change results, and say so in that change.
"""

import json
import shutil
import time

from run import WORK_DIR, spawn
from workloads import REFERENCE_PATH, WORKLOADS

SEEDS = range(32)


def main():
    refs = {}
    for name, workload in WORKLOADS.items():
        if not workload.has_reference:
            continue
        for seed in SEEDS:
            op_dir = WORK_DIR / "reference" / f"{name}-{seed}"
            shutil.rmtree(op_dir, ignore_errors=True)
            result = spawn(name, seed, op_dir, time.monotonic() + 600)
            if result is None:
                raise SystemExit(f"{name} seed {seed}: worker failed")
            problems = workload.gate(op_dir / "out", result["rc"], None)
            if any(problems):
                raise SystemExit(f"{name} seed {seed}: {problems}")
            refs.setdefault(name, {})[str(seed)] = workload.reference_record(op_dir / "out")
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
