"""lanslab benchmark: three `lans-lab` workloads, timed end to end and, in a
separate traced run, layer by layer.

    python3 bench/run.py --workload solve-n32 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all           # every workload in turn

Every operation is one `lanslab.cli.main` call in a fresh single-threaded
process (bench/worker.py) with FFT workers pinned to 1, one process at a
time.  Inputs are generated from --seed (bench/workloads.py) and every
output passes a correctness gate.

--trace 0 runs operations until --seconds have passed (at least MIN_OPS of
them) and reports the medians of the end-to-end metrics over them.
--trace 1 runs one untraced and two traced operations and reports the
per-layer metrics of the first traced one.  Its self-check requires the
layer predictions of bench/layers.py to hold, call and point counts to
repeat exactly between the traced operations, and traced outputs to equal
the untraced ones byte for byte.  The traced operations record spans from
outside the program (bench/tracer.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (BENCHMARK.json lists the metrics and their units).
Run from a checkout of the repository: the program is imported from src/.
Outputs go to .bench_work/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
MIN_OPS = 5
# a run must end within 180 s; no operation starts that would end later
RUN_BUDGET_S = 170.0


class Op:
    """One worker process: its result.json (None if it crashed or timed
    out) and the gate's problems, one list per operation it counts as."""

    def __init__(self, op_dir, result, problems, duration):
        self.dir = op_dir
        self.result = result
        self.problems = problems
        self.duration = duration

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)


def child_env():
    env = dict(os.environ)
    env.pop("LANS_LAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, op_dir, deadline, trace=False):
    """Run the worker once; its parsed result.json, or None."""
    op_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--op-dir", str(op_dir)]
    cmd += ["--trace"] * trace
    with open(op_dir / "log.txt", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{op_dir.name}: killed at the run's time limit", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        print(f"{op_dir.name}: worker exited {proc.returncode}, see {op_dir / 'log.txt'}",
              file=sys.stderr)
        return None
    return json.loads((op_dir / "result.json").read_text())


def run_op(workload, seed, op_dir, deadline, reference, trace=False):
    t0 = time.monotonic()
    result = spawn(workload.name, seed, op_dir, deadline, trace=trace)
    if result is None:
        problems = [["worker failed"]] * workload.operations()
    else:
        problems = workload.gate(op_dir / "out", result["rc"], reference)
    op = Op(op_dir, result, problems, time.monotonic() - t0)
    for p in problems:
        for line in p:
            print(f"{op_dir.name}: FAILED {line}", file=sys.stderr)
    return op


def end_to_end(workload, ops):
    done = [op for op in ops if op.result is not None]
    walls = [op.result["wall_s"] for op in done]
    rates = [workload.work_units(op.dir / "out") / op.result["wall_s"]
             for op in done if not op.failed]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(op.result["setup_s"] for op in done),
        "peak_rss_mb": statistics.median(op.result["peak_rss_kb"] * 1024 / 1e6 for op in done),
        "work_per_s": statistics.median(rates) if rates else 0.0,
    }


def measure(workload, seed, seconds, work, deadline):
    """The untraced run: end-to-end metrics."""
    reference = load_reference(workload.name, seed)
    ops = []
    t0 = time.monotonic()
    while True:
        op = run_op(workload, seed, work / f"op{len(ops)}", deadline, reference)
        ops.append(op)
        enough = len(ops) >= MIN_OPS and time.monotonic() - t0 >= seconds
        if enough or time.monotonic() + op.duration > deadline:
            break
    if all(op.result is None for op in ops):
        return ops, None, []
    # the untraced run has no self-check
    return ops, end_to_end(workload, ops), []


def _same_outputs(a, b):
    """Problems where two operations' output files differ; the manifest
    holds wall-clock timings and is left out."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"output {f} only in one run" for f in sorted(files_a ^ files_b)]
    for f in sorted(files_a & files_b):
        if f.name != "manifest.json" and (a / f).read_bytes() != (b / f).read_bytes():
            problems.append(f"output {f} differs between traced and untraced runs")
    return problems


def _traced_metrics(op):
    spans = json.loads((op.dir / "spans.json").read_text())
    report = None
    if (op.dir / "out" / "picard_report.json").is_file():
        report = json.loads((op.dir / "out" / "picard_report.json").read_text())
    return layers.layer_metrics(spans, op.result["coverage_warnings"], report)


def measure_traced(workload, seed, work, deadline, names):
    """The traced run: per-layer metrics and the self-check's problems."""
    reference = load_reference(workload.name, seed)
    ops = [run_op(workload, seed, work / "untraced", deadline, reference)]
    for i in (1, 2):
        ops.append(run_op(workload, seed, work / f"traced{i}", deadline, reference, trace=True))
    if any(op.result is None for op in ops):
        return ops, None, ["an operation of the traced run did not finish"]
    untraced, first, second = ops
    metrics = _traced_metrics(first)
    problems = [f"{key} is bound nowhere" for key, sites in
                first.result["binding_sites"].items() if not sites]
    problems += layers.check_predictions(metrics, workload.name,
                                         [n for n in names if n in metrics])
    problems += layers.check_counts_repeat(metrics, _traced_metrics(second))
    problems += _same_outputs(untraced.dir / "out", first.dir / "out")
    metrics["trace.wall_s"] = first.result["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced.result["wall_s"]
    metrics["trace.overhead_s"] = first.result["wall_s"] - untraced.result["wall_s"]
    return ops, metrics, problems


def machine_info(seed, ops):
    info = {"seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        info["l3"] = "unknown"
    done = [op.result for op in ops if op.result is not None]
    if done:
        info.update(done[0]["versions"])
        info["fft_workers"] = sorted({r["fft_workers"] for r in done if "fft_workers" in r})
    return info


def run_workload(name, seed, seconds, trace, declared):
    workload = WORKLOADS[name]
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        ops, metrics, problems = measure_traced(workload, seed, work, deadline, declared)
    else:
        ops, metrics, problems = measure(workload, seed, seconds, work, deadline)
    attempted = sum(len(op.problems) for op in ops)
    failed = sum(op.failed for op in ops)
    if metrics is None:
        return None
    missing = [n for n in declared if n not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")

    print(f"== {name}  seed {seed}  trace {int(trace)}  operations {len(ops)}")
    for n, unit in declared.items():
        print(f"  {n:<40} {metrics[n]:<14.6g} {unit}")
    if trace:
        for n in ("trace.wall_s", "trace.untraced_wall_s"):
            print(f"  {n:<40} {metrics[n]:<14.6g} s")
    else:
        rate_name, rate_unit = workload.rate
        print(f"  {rate_name:<40} {metrics['work_per_s']:<14.6g} {rate_unit}")
    print(f"  {'fail_frac':<40} {failed / attempted:<14.6g} ratio ({failed}/{attempted})")
    for p in problems:
        print(f"  self-check FAILED: {p}")
    print("meta: " + json.dumps(machine_info(seed, ops), sort_keys=True))
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": {n: metrics[n] for n in declared}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "lanslab" / "cli.py").is_file():
        print(f"error: no lanslab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
        if res is None:
            print(f"error: no operation of {name} finished", file=sys.stderr)
            return 1
        results[name] = res
    # one workload reports its metrics by name; "all" prefixes the workload
    metrics = {
        (n if len(results) == 1 else f"{w}.{n}"): {"value": v, "unit": declared[n]}
        for w, res in results.items() for n, v in res["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
