"""Workload definitions: seeded inputs, units of work and correctness gates.

Each workload is one `lans-lab` command.  Its input (a solver config or a
verify suite) is generated here from the benchmark seed, so the program
receives only the generated file.  The gate reads the command's outputs and
returns the list of problems per operation; an empty list means the
operation passed.  This module uses the standard library only: the runner
imports it without numpy.
"""

import copy
import csv
import json
import math
from pathlib import Path

# IF-RK4 on N=32: 20 steps (T/dt) and a Besov row every 5 steps, 5 rows.
SOLVE_CONFIG = {
    "n": 3,
    "N": 32,
    "alpha": 1.0,
    "nu": 1.0,
    "T": 0.04,
    "dt": 0.002,
    "initial": {"kind": "random_divfree", "amplitude": 0.2},
    "besov": {"r": 2.5, "s": 3.0, "p": 2, "p_tilde": 2, "q": 2},
    "csv_stride": 5,
}

# The settings of configs/picard_demo.json with seeded random data, on 2x2
# Gauss nodes instead of 8x4 so that one run holds several operations.
PICARD_CONFIG = {
    "n": 3,
    "N": 32,
    "alpha": 1.0,
    "nu": 1.0,
    "T": 0.5,
    "dt": 0.001,
    "initial": {"kind": "random_divfree", "amplitude": 0.01},
    "besov": {"r": 2.5, "s": 3.0, "p": 2, "p_tilde": 2, "q": 2},
    "picard": {"tol": 1e-8, "max_iter": 25, "panels": 2, "nodes_per_panel": 2, "grading": 2.0},
}

# configs/verify_default.json with its trial and pair counts cut to a fifth,
# kept here so that the workload does not change when the shipped suite does.
VERIFY_SUITE = {
    "checks": [
        {"id": "partition_of_unity", "params": {"n": 3, "N": 32}},
        {"id": "support_orthogonality", "params": {"n": 3, "N": 32, "trials": 4, "seed": 0}},
        {"id": "support_product_low", "params": {"n": 3, "N": 32, "trials": 2, "seed": 1}},
        {"id": "support_product_high", "params": {"n": 3, "N": 32, "trials": 2, "seed": 2}},
        {"id": "paraproduct_reconstruction", "params": {"n": 3, "N": 32, "pairs": 4, "seed": 3}},
        {"id": "block_decomposition", "params": {"n": 3, "N": 32, "pairs": 2, "seed": 4}},
        {"id": "bony_bounds", "params": {"n": 3, "N": 32, "pairs": 2, "seed": 5, "p": 2}},
        {"id": "k2_tail", "params": {"r": 2.5}},
        {"id": "k2_tail", "params": {"r": 1.5}},
        {"id": "embedding", "params": {"n": 3, "N": 32, "trials": 4, "seed": 6}},
        {"id": "bernstein", "params": {"n": 3, "N": 32, "trials": 2, "seed": 7, "j_lo": 1, "j_hi": 3}},
        {"id": "heat_smoothing", "params": {"n": 3, "N": 32, "trials": 2, "seed": 8, "s0": 1.0, "s1": 2.0}},
        {"id": "product", "params": {"n": 3, "N": 32, "trials": 20, "seed": 9, "s": 1.6, "p": 2, "p1": 3}},
        {"id": "moser", "params": {"n": 3, "N": 32, "trials": 10, "seed": 10, "s": 1.5, "p": 1, "p1": 2, "p2": 2, "r1": 2, "r2": 2}},
    ]
}

# Tolerances of the reference comparison.  A fast path that reorders
# floating-point sums moves these columns at the 1e-16 level; the bounds
# leave six orders of magnitude for that and still catch a wrong result.
SOLVE_RTOL = 1e-9
PICARD_RESIDUAL_RTOL = 1e-6
PICARD_NORM_RTOL = 1e-9
DIV_RESIDUAL_MAX = 1e-12
ENERGY_SLACK = 1e-12
CONTRACTION_MAX = 0.9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_columns(got, want, rtol, label):
    problems = []
    for name, ref in want.items():
        col = got.get(name)
        if col is None or len(col) != len(ref):
            problems.append(f"{label}: column {name} missing or of wrong length")
            continue
        bad = [i for i, (a, b) in enumerate(zip(col, ref)) if not _close(a, b, rtol)]
        if bad:
            i = bad[0]
            problems.append(
                f"{label}: {name}[{i}] = {col[i]!r}, reference {ref[i]!r} (rtol {rtol})"
            )
    return problems


class Workload:
    name = ""
    command = ""
    rate = ("", "")  # work_per_s under its workload's name, and its unit
    has_reference = False  # whether bench/reference.json holds its outputs

    def make_input(self, seed, path):
        """Write the command's input file for `seed` to `path`."""
        raise NotImplementedError

    def argv(self, input_path, out_dir):
        return ["--threads", "1", self.command, "--config", str(input_path), "--out", str(out_dir)]

    def operations(self):
        """Operations one command run counts as (for attempted/failed)."""
        return 1

    def work_units(self, out_dir):
        """Units of work one command run did (steps, sweeps or checks)."""
        raise NotImplementedError

    def gate(self, out_dir, rc, reference):
        """Problems found in one run's outputs: a list with one entry of
        problems per operation."""
        raise NotImplementedError

    def reference_record(self, out_dir):
        """The values a reference stores for one seed (has_reference only)."""
        raise NotImplementedError


class Solve(Workload):
    name = "solve-n32"
    command = "solve"
    rate = ("solve.steps_per_s", "steps/s")
    has_reference = True

    def make_input(self, seed, path):
        _write_json(path, dict(SOLVE_CONFIG, seed=seed))

    def work_units(self, out_dir):
        return round(SOLVE_CONFIG["T"] / SOLVE_CONFIG["dt"])

    def reference_record(self, out_dir):
        cols = _read_csv(Path(out_dir) / "trajectory.csv")
        # round-off only; gated by DIV_RESIDUAL_MAX instead
        del cols["div_residual"]
        return cols

    def gate(self, out_dir, rc, reference):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        path = Path(out_dir) / "trajectory.csv"
        if not path.is_file():
            return [problems + ["trajectory.csv missing"]]
        cols = _read_csv(path)
        rows = len(cols.get("t", []))
        expected_rows = self.work_units(out_dir) // SOLVE_CONFIG["csv_stride"] + 1
        if rows != expected_rows:
            problems.append(f"{rows} CSV rows, expected {expected_rows}")
        if not all(math.isfinite(v) for col in cols.values() for v in col):
            problems.append("non-finite value in trajectory.csv")
        energy = cols.get("E", [])
        for i in range(1, len(energy)):
            if energy[i] > energy[i - 1] * (1.0 + ENERGY_SLACK):
                problems.append(f"energy rises at row {i}: {energy[i - 1]!r} -> {energy[i]!r}")
                break
        worst = max(cols.get("div_residual", [math.inf]))
        if not worst <= DIV_RESIDUAL_MAX:
            problems.append(f"div_residual {worst!r} > {DIV_RESIDUAL_MAX}")
        if reference is not None:
            problems += _compare_columns(cols, reference, SOLVE_RTOL, "trajectory.csv")
        return [problems]


class Picard(Workload):
    name = "picard-n32"
    command = "picard"
    rate = ("picard.sweeps_per_s", "sweeps/s")
    has_reference = True

    def make_input(self, seed, path):
        _write_json(path, dict(PICARD_CONFIG, seed=seed))

    def work_units(self, out_dir):
        return json.loads((Path(out_dir) / "picard_report.json").read_text())["iterates"]

    def reference_record(self, out_dir):
        report = json.loads((Path(out_dir) / "picard_report.json").read_text())
        traj = _read_csv(Path(out_dir) / "picard_trajectory.csv")
        return {"residuals": report["residuals"], "u_besov_base": traj["u_besov_base"]}

    def gate(self, out_dir, rc, reference):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        out_dir = Path(out_dir)
        try:
            report = json.loads((out_dir / "picard_report.json").read_text())
            traj = _read_csv(out_dir / "picard_trajectory.csv")
        except (OSError, ValueError, KeyError) as exc:
            return [problems + [f"unreadable outputs: {exc}"]]
        if not report.get("converged"):
            problems.append("did not converge")
        ratios = report.get("contraction_ratios", [])
        if not all(r < CONTRACTION_MAX for r in ratios):
            problems.append(f"contraction ratio >= {CONTRACTION_MAX}: {ratios}")
        if reference is not None:
            got, want = report.get("residuals", []), reference["residuals"]
            if len(got) != len(want):
                problems.append(f"{len(got)} sweeps, reference {len(want)}")
            else:
                # the last residual is a difference of nearly equal iterates,
                # so FFT round-off moves it most (1e-7 relative when the FFT
                # axis order is reversed); the floor leaves room for that
                atol = 1e-11 * want[0]
                for i, (a, b) in enumerate(zip(got, want)):
                    if not _close(a, b, PICARD_RESIDUAL_RTOL, atol):
                        problems.append(
                            f"residual[{i}] = {a!r}, reference {b!r} (rtol {PICARD_RESIDUAL_RTOL})"
                        )
            problems += _compare_columns(
                traj, {"u_besov_base": reference["u_besov_base"]}, PICARD_NORM_RTOL,
                "picard_trajectory.csv",
            )
        return [problems]


class Verify(Workload):
    name = "verify-default"
    command = "verify"
    rate = ("verify.checks_per_s", "checks/s")

    def make_input(self, seed, path):
        suite = copy.deepcopy(VERIFY_SUITE)
        for entry in suite["checks"]:
            params = entry["params"]
            if "seed" in params:
                params["seed"] += seed
        _write_json(path, suite)

    def operations(self):
        return len(VERIFY_SUITE["checks"])

    def work_units(self, out_dir):
        return len(json.loads((Path(out_dir) / "verify_report.json").read_text())["checks"])

    def gate(self, out_dir, rc, reference):
        n = self.operations()
        try:
            report = json.loads((Path(out_dir) / "verify_report.json").read_text())
        except (OSError, ValueError) as exc:
            return [[f"exit code {rc}; verify_report.json unreadable: {exc}"]] * n
        checks = report.get("checks", [])
        if len(checks) != n:
            return [[f"exit code {rc}; {len(checks)} checks reported, expected {n}"]] * n
        per_check = [
            [] if rec.get("pass") is True else [f"{rec.get('check_id')}: {rec.get('status', 'FAIL')}"]
            for rec in checks
        ]
        if rc != 0 or report.get("all_pass") is not True:
            # a wrong exit code with every check passing fails them all
            if not any(per_check):
                per_check = [[f"exit code {rc}, all_pass {report.get('all_pass')}"]] * n
        return per_check


WORKLOADS = {w.name: w for w in (Solve(), Picard(), Verify())}


def load_reference(workload, seed):
    """The stored reference for (workload, seed), or None."""
    if not REFERENCE_PATH.is_file():
        return None
    refs = json.loads(REFERENCE_PATH.read_text())
    return refs.get(workload, {}).get(str(seed))
