import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lanslab import cli
from lanslab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "n": 3,
        "N": 16,
        "alpha": 1.0,
        "nu": 1.0,
        "T": 0.05,
        "dt": 0.005,
        "seed": 0,
        "initial": {"kind": "taylor_green", "amplitude": 0.1},
        "csv_stride": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_solve_zero_data_emits_zero_csv(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "zero"})
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,E,u_L2,grad_u_L2,")
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 0.0
        assert float(fields[2]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trajectory.csv" in manifest["outputs"]


def test_solve_malformed_config_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "n": 3,\n  "N": oops\n}\n')
    code = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert ":3:" in err  # line-numbered diagnostic


def test_solve_unknown_key_exit2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"N": 16, "bogus": 1}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_solve_blowup_exit3(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "taylor_green", "amplitude": 1e7})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_solve_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_solve_without_snapshots_keeps_only_the_final_field(tmp_path, monkeypatch):
    from lanslab import cli

    solve_ivp, kept = cli.solve_ivp, []

    def spy(*args, **kwargs):
        kept.append(solve_ivp(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(cli, "solve_ivp", spy)
    out0, out1 = tmp_path / "o0", tmp_path / "o1"
    cfg0 = write_cfg(tmp_path, "c0.json", csv_stride=3)
    cfg1 = write_cfg(tmp_path, "c1.json", csv_stride=3, snapshot_stride=1)
    assert main(["solve", "--config", str(cfg0), "--out", str(out0)]) == 0
    assert main(["solve", "--config", str(cfg1), "--out", str(out1)]) == 0
    assert len(kept[0].fields) <= 1
    assert len(kept[1].fields) == 11  # every step of T/dt = 10, and t = 0
    assert not list(out0.glob("field_*.lans"))
    # the Besov rows convert their own states: the CSV does not depend on
    # which states the trajectory keeps
    assert (out0 / "trajectory.csv").read_bytes() == (out1 / "trajectory.csv").read_bytes()


def test_solve_snapshots_round_trip(tmp_path):
    from lanslab.fieldio import read_field

    cfg = write_cfg(tmp_path, snapshot_stride=5)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    snaps = sorted(out.glob("field_*.lans"))
    assert snaps
    f = read_field(snaps[0])
    assert f.grid.N == 16 and f.ncomp == 3


def test_picard_demo_converges(tmp_path):
    cfg = write_cfg(
        tmp_path,
        T=0.3,
        initial={"kind": "taylor_green", "amplitude": 0.02},
        picard={"tol": 1e-8, "max_iter": 20, "panels": 6, "nodes_per_panel": 4, "grading": 2.0},
    )
    out = tmp_path / "o"
    code = main(["picard", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "picard_report.json").read_text())
    assert rep["converged"] is True
    res = rep["residuals"]
    assert all(b < a for a, b in zip(res, res[1:]))  # monotone residual column
    assert (out / "residuals.csv").exists()


def test_picard_oversized_exit4(tmp_path):
    cfg = write_cfg(
        tmp_path,
        N=16,
        T=2.0,
        initial={"kind": "taylor_green", "amplitude": 40.0},
        picard={"tol": 1e-8, "max_iter": 8, "panels": 4, "nodes_per_panel": 3, "grading": 2.0},
    )
    out = tmp_path / "o"
    code = main(["picard", "--config", str(cfg), "--out", str(out)])
    assert code == 4
    rep = json.loads((out / "picard_report.json").read_text())
    assert rep["converged"] is False
    assert len(rep["residuals"]) >= 1  # residuals emitted for inspection


def test_picard_zero_data_one_iteration(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "zero"})
    out = tmp_path / "o"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "picard_report.json").read_text())
    assert rep["iterates"] == 1


def test_verify_small_suite_pass(tmp_path):
    suite = {
        "checks": [
            {"id": "partition_of_unity", "params": {"n": 2, "N": 32}},
            {"id": "k2_tail", "params": {"r": 2.5}},
            {"id": "bernstein", "params": {"n": 2, "N": 32, "trials": 3}},
        ]
    }
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps(suite))
    out = tmp_path / "o"
    code = main(["verify", "--config", str(spath), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_pass"] is True
    assert len(rep["checks"]) == 3


def test_verify_empty_suite_ok(tmp_path):
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps({"checks": []}))
    assert main(["verify", "--config", str(spath), "--out", str(tmp_path / "o")]) == 0


def test_verify_unknown_check_exit2(tmp_path):
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps({"checks": [{"id": "nonsense"}]}))
    assert main(["verify", "--config", str(spath), "--out", str(tmp_path / "o")]) == 2


def test_verify_parameter_gate_rejection_exit5(tmp_path):
    # the exponential-bound check requires r > 2; r = 1.5 must be rejected
    # with a structured record, never a silent pass
    suite = {"checks": [{"id": "apriori_bound", "params": {"n": 3, "N": 16, "r": 1.5}}]}
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps(suite))
    out = tmp_path / "o"
    code = main(["verify", "--config", str(spath), "--out", str(out)])
    assert code == 5
    rep = json.loads((out / "verify_report.json").read_text())
    entry = rep["checks"][0]
    assert entry["status"] == "rejected"
    assert "r > 2" in entry["condition"]


@pytest.mark.parametrize(
    "cid, params, condition",
    [
        ("duhamel_lsigma", {"sigma0": 0}, "sigma0 > 1"),
        ("duhamel_bc", {"s1": 0}, "sigma >= 1"),
        ("v_alpha_ct", {"a": 1e300}, "2a < 1"),
        ("bernstein", {"order": 1e300}, "log2(N) < 1024"),
    ],
)
def test_validity_gate_precedes_its_arithmetic(tmp_path, cid, params, condition):
    # each raised ZeroDivisionError, ValueError or OverflowError (exit 1)
    entry = {"id": cid, "params": {"n": 2, "N": 8, "trials": 1, **params}}
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps({"checks": [entry]}))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(spath), "--out", str(out)]) == 5
    (record,) = json.loads((out / "verify_report.json").read_text())["checks"]
    assert record["status"] == "rejected" and condition in record["condition"]


def test_verify_times_each_entry(tmp_path):
    # a repeated check id kept only its last timing
    suite = {"checks": [{"id": "k2_tail", "params": {"r": r}} for r in (2.5, 1.5, 2.5)]}
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps(suite))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(spath), "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings_s"]
    assert sorted(timings) == ["checks[0] k2_tail", "checks[1] k2_tail", "checks[2] k2_tail",
                               "total"]


def test_sweep_single_value_matches_solve(tmp_path):
    cfg = write_cfg(tmp_path)
    out_sweep = tmp_path / "sweep"
    out_solve = tmp_path / "solve"
    assert main(["sweep", "--config", str(cfg), "--axis", "N", "--values", "16",
                 "--out", str(out_sweep)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out_solve)]) == 0
    sweep_lines = (out_sweep / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 2
    final_E_sweep = float(sweep_lines[1].split(",")[1])
    last_solve = (out_solve / "trajectory.csv").read_text().splitlines()[-1]
    assert final_E_sweep == pytest.approx(float(last_solve.split(",")[1]), rel=1e-12)


def test_sweep_alpha_slope(tmp_path):
    cfg = write_cfg(tmp_path, T=0.1, dt=0.002, initial={"kind": "taylor_green", "amplitude": 0.5})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--axis", "alpha",
                 "--values", "0.025", "0.05", "0.1", "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert abs(summary["loglog_slope"] - 2.0) <= 0.5


def test_sweep_unsorted_values_exit2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", "alpha",
                 "--values", "0.1", "0.05", "--out", str(tmp_path / "o")]) == 2


def test_lp_analyze_round_trip(tmp_path):
    from lanslab.fieldio import write_field
    from lanslab.fields import random_band_limited
    from lanslab.grid import Grid

    grid = Grid(3, 16)
    f = random_band_limited(grid, j=1, seed=3)
    fpath = tmp_path / "f.lans"
    write_field(fpath, f, field_id="probe")
    out = tmp_path / "o"
    code = main(["lp-analyze", "--field", str(fpath), "--out", str(out),
                 "--indices", "1.0,2,2", "0.5,2,1"])
    assert code == 0
    fam_info = json.loads((out / "dyadic_family.json").read_text())
    assert fam_info["partition_max_defect"] <= 1e-12
    lines = (out / "norms.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["per_block"] and rec["value"] > 0


def test_lp_analyze_missing_file_exit2(tmp_path):
    assert main(["lp-analyze", "--field", str(tmp_path / "nope.lans"),
                 "--out", str(tmp_path / "o")]) == 2


def test_shipped_configs_parse():
    from lanslab.cli import load_config

    for name in ("taylor_green.json", "picard_demo.json", "picard_oversized.json", "small_run.json"):
        cfg = load_config(CONFIGS / name)
        assert cfg.N in (16, 32)


def test_shipped_suites_reference_known_checks():
    from lanslab.checks import CHECKS

    for name in ("verify_default.json", "verify_extended.json"):
        suite = json.loads((CONFIGS / name).read_text())
        for entry in suite["checks"]:
            assert entry["id"] in CHECKS


# whether the policy was applied, then the minor faults of 200 rounds of a
# touched 4 MB array and the 4 MB array an expression makes from it, both
# freed (one array alone is reused even unpinned: its first free raises
# glibc's dynamic mmap threshold past it)
HEAP_PROBE = """
import resource, sys
import numpy as np
from lanslab.cli import pin_heap_thresholds
print(sys.argv[1] == "pin" and pin_heap_thresholds())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    a = np.ones(4 << 20, dtype=np.uint8)
    b = a + 1
    del a, b
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _heap_probe(policy):
    """(policy applied, minor faults) of one probe process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE, policy],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    applied, faults = done.stdout.split()
    return applied == "True", int(faults)


def test_pinned_heap_reuses_freed_temporaries():
    applied, pinned = _heap_probe("pin")
    if not applied:
        pytest.skip("the C library has no mallopt or refused the thresholds")
    _, unpinned = _heap_probe("none")
    assert pinned < unpinned / 10


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [lambda name: object(), _no_library],
                         ids=["no_mallopt", "no_library"])
def test_heap_policy_is_a_no_op_without_mallopt(monkeypatch, library):
    monkeypatch.setattr(cli.ctypes, "CDLL", library)
    assert cli.pin_heap_thresholds() is False
