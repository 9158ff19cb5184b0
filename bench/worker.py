"""One benchmark operation in a fresh process: import, make the input, run
`lanslab.cli.main` once and write the timings to `<op_dir>/result.json`.

    python3 bench/worker.py --workload solve-n32 --seed 0 --op-dir DIR \
        --t-spawn T [--trace]

`--t-spawn` is the parent's time.monotonic() just before it started this
process; the set-up time runs from there to the `main()` call and so covers
interpreter start, the numpy/scipy/lanslab imports and input generation.
The runner puts `src` on PYTHONPATH and pins every thread pool to one.
"""

import argparse
import importlib
import json
import pkgutil
import platform
import resource
import time
import warnings
from pathlib import Path

import numpy
import scipy

import lanslab
import lanslab.cli

import tracer
from workloads import WORKLOADS

COVERAGE_MESSAGE = "field has spectral content beyond the resolved dyadic range"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--op-dir", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # the CLI imports its commands lazily; import every module now so that
    # set-up is the same with and without tracing, and every binding site
    # exists before the tracer patches it
    for info in pkgutil.iter_modules(lanslab.__path__, "lanslab."):
        if info.name != "lanslab.__main__":
            importlib.import_module(info.name)

    workload = WORKLOADS[args.workload]
    op_dir = Path(args.op_dir)
    input_path = op_dir / "input.json"
    out_dir = op_dir / "out"
    workload.make_input(args.seed, input_path)
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()

    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "lanslab": lanslab.__version__,
        },
    }
    t_call = time.monotonic()
    result["setup_s"] = t_call - args.t_spawn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        rc = lanslab.cli.main(workload.argv(input_path, out_dir))
        wall = time.perf_counter() - t0
    coverage = sum(COVERAGE_MESSAGE in str(w.message) for w in caught)
    for w in caught:
        if COVERAGE_MESSAGE not in str(w.message):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    result.update(
        rc=rc,
        wall_s=wall,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        coverage_warnings=coverage,
        fft_workers=lanslab._fft.get_workers(),
    )
    if trace is not None:
        result["binding_sites"] = trace.binding_sites
        trace.write(op_dir / "spans.json")
    (op_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
