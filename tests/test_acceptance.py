"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from lanslab.checks import (
    apriori_report,
    energy_monotone_report,
    run_check,
)
from lanslab.dyadic import build_dyadic_family
from lanslab.dynamics import reynolds_stress_divergence, semigroup_apply
from lanslab.errors import ParameterGateError
from lanslab.fields import (
    fourier_mode,
    l2_norm,
    random_band_mixture,
    taylor_green,
    to_real,
)
from lanslab.grid import Grid, coordinates, kmag
from lanslab.operators import helmholtz_inverse, leray_project, stokes_project
from lanslab.picard import estimate_existence_time, picard_solve
from lanslab.quadrature import duhamel_apply
from lanslab.solver import InitialSpec, SolverConfig, Trajectory, solve_ivp


def _report(num, ok, desc, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_partition_of_unity():
    t0 = time.perf_counter()
    grid = Grid(3, 32)
    fam = build_dyadic_family(grid)
    covered = kmag(grid) <= 2.0**fam.j_max
    defect = float(np.max(np.abs((fam.low_hat + fam.psi_hat.sum(axis=0))[covered] - 1.0)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        defect <= 1e-12 and elapsed < 1.0,
        "partition of unity over the resolved lattice ball",
        f"defect={defect:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_support_identities():
    t0 = time.perf_counter()
    orth = run_check("support_orthogonality", {"n": 3, "N": 32, "trials": 20, "seed": 0})
    low = run_check("support_product_low", {"n": 3, "N": 32, "trials": 10, "seed": 1})
    high = run_check("support_product_high", {"n": 3, "N": 32, "trials": 10, "seed": 2})
    elapsed = time.perf_counter() - t0
    ok = (
        orth.passed
        and orth.max_ratio <= 1e-12
        and low.passed
        and low.max_ratio <= 1e-10
        and high.passed
        and high.max_ratio <= 1e-10
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        "block orthogonality and product-support cancellations",
        f"orth={orth.max_ratio:.2e}, low={low.max_ratio:.2e}, "
        f"high={high.max_ratio:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_paraproduct_reconstruction():
    t0 = time.perf_counter()
    rep = run_check(
        "paraproduct_reconstruction", {"n": 3, "N": 32, "pairs": 20, "seed": 3}
    )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        rep.passed and rep.max_ratio <= 1e-8 and elapsed < 10.0,
        "product reconstruction from the three paraproduct terms",
        f"max defect={rep.max_ratio:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_bernstein():
    rep = run_check(
        "bernstein",
        {"n": 3, "N": 32, "trials": 10, "seed": 4, "j_lo": 1, "j_hi": 3, "p": 2, "q": 2},
    )
    single = abs(rep.details["single_mode_ratio"] - 1.0)
    _report(
        4,
        single <= 1e-12 and rep.details["spread"] <= 4.0 and rep.passed,
        "Bernstein ratios: single-mode exactness and scale-stable interval",
        f"single-mode defect={single:.1e}, spread={rep.details['spread']:.2f}",
    )


def test_criterion_05_closed_form_operator_oracles():
    grid = Grid(3, 32)
    mode4 = fourier_mode(grid, (2, 0, 0), ncomp=3)  # |k|^2 = 4
    mode1 = fourier_mode(grid, (1, 0, 0), ncomp=3)  # |k|^2 = 1

    helm = helmholtz_inverse(mode4, alpha=1.0)
    err_h = l2_norm(helm - 0.2 * mode4) / (0.2 * l2_norm(mode4))

    semi = semigroup_apply(mode1, 0.1, nu=1.0)
    fac_s = math.exp(-0.1)
    err_s = l2_norm(semi - fac_s * mode1) / (fac_s * l2_norm(mode1))

    ts = np.linspace(0.0, 1.0, 17)
    traj = Trajectory(times=ts, fields=[mode4] * len(ts))
    duh = duhamel_apply(traj, [1.0]).final()
    fac_d = (1.0 - math.exp(-4.0)) / 4.0
    err_d = l2_norm(duh - fac_d * mode4) / (fac_d * l2_norm(mode4))

    ok = err_h <= 1e-10 and err_s <= 1e-10 and err_d <= 1e-10
    _report(
        5,
        ok,
        "closed-form factors: Helmholtz 1/5, semigroup e^-0.1, Duhamel (1-e^-4)/4",
        f"errors {err_h:.1e}, {err_s:.1e}, {err_d:.1e}",
    )


def test_criterion_06_stokes_equals_leray():
    grid = Grid(3, 32)
    worst = 0.0
    for trial in range(20):
        w = random_band_mixture(grid, seed=500 + trial, ncomp=3)
        ref = leray_project(w)
        for alpha in (0.0, 0.1, 1.0, 10.0):
            diff = l2_norm(stokes_project(w, alpha) - ref) / max(l2_norm(w), 1e-300)
            worst = max(worst, diff)
    _report(
        6,
        worst <= 1e-12,
        "filtered Stokes projection equals the orthogonal projection",
        f"max normalized gap={worst:.2e}",
    )


def test_criterion_07_reynolds_stress_oracle():
    grid = Grid(3, 32)
    u = fourier_mode(grid, (0, 1, 0), comp=0, ncomp=3, kind="sin")  # (sin y, 0, 0)
    div_tau = reynolds_stress_divergence(u, alpha=1.0)
    _, y, _ = coordinates(grid)
    expected = -np.sin(2 * y) / 10.0
    err = max(
        np.max(np.abs(div_tau.data[1] - expected)),
        np.max(np.abs(div_tau.data[0])),
        np.max(np.abs(div_tau.data[2])),
    )
    _report(
        7,
        err <= 1e-10,
        "shear-flow stress divergence equals (0, -sin(2y)/10, 0)",
        f"Linf error={err:.2e}",
    )


def test_criterion_08_energy_monotonicity():
    t0 = time.perf_counter()
    cfg = SolverConfig(
        n=3, N=32, alpha=1.0, nu=1.0, T=1.0, dt=1e-3,
        initial=InitialSpec("taylor_green", 0.1),
    )
    traj = solve_ivp(cfg.initial_field(), cfg, sample_stride=100)
    rep = energy_monotone_report(traj, cfg.dt, c_tol=10.0)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        rep.passed and elapsed < 120.0,
        "discrete energy non-increasing within 10*dt^4 per step",
        f"worst violation={rep.max_ratio:.2e}, {elapsed:.0f}s",
    )


def test_criterion_09_picard_contraction():
    from lanslab.solver import PicardParams

    t0 = time.perf_counter()
    cfg = SolverConfig(
        n=3, N=32, alpha=1.0, nu=1.0, T=0.5, dt=1e-3,
        initial=InitialSpec("taylor_green", 0.01),
        picard=PicardParams(tol=1e-12),
    )
    u0 = cfg.initial_field()
    traj_p, rep = picard_solve(u0, cfg)
    traj_s = solve_ivp(u0, cfg)
    rel = l2_norm(to_real(traj_p.final()) - traj_s.final()) / l2_norm(traj_s.final())
    # contraction_ratios[0] is the residual ratio at iteration 2
    ratios = rep.contraction_ratios
    geometric = bool(ratios) and all(r < 0.9 for r in ratios)
    elapsed = time.perf_counter() - t0
    _report(
        9,
        rep.converged and geometric and rel <= 1e-6 and elapsed < 300.0,
        "small-data fixed point: geometric residuals, matches the stepper",
        f"ratios={['%.1e' % r for r in ratios]}, final gap={rel:.2e}, {elapsed:.0f}s",
    )


def test_criterion_10_existence_time_monotone():
    t0 = time.perf_counter()
    cfg = SolverConfig(
        n=3, N=16, alpha=1.0, nu=1.0, T=0.5, dt=1e-3,
        initial=InitialSpec("taylor_green", 1.0),
    )
    # amplitudes straddle the convergence boundary at the cap, so the
    # certified horizons actually drop rather than saturating
    rows = estimate_existence_time([8.0, 16.0, 32.0], cfg, t_max=1.0, bisect_steps=5)
    ts = [row["certified_T"] for row in rows]
    elapsed = time.perf_counter() - t0
    ok = ts[0] >= ts[1] >= ts[2] and elapsed < 900.0
    _report(
        10,
        ok,
        "certified horizon non-increasing under amplitude doubling",
        f"T={['%.3g' % t for t in ts]}, {elapsed:.0f}s",
    )


def test_criterion_11_apriori_bound():
    sups = []
    for amp in (0.1, 0.2, 0.4):
        cfg = SolverConfig(
            n=3, N=32, alpha=1.0, nu=1.0, T=0.5, dt=2e-3,
            initial=InitialSpec("taylor_green", amp),
        )
        traj = solve_ivp(cfg.initial_field(), cfg, sample_stride=10)
        rep = apriori_report(traj, r=2.5, q=2, n=3)
        assert math.isfinite(rep.max_ratio)
        sups.append(rep.max_ratio)
    mags = [abs(v) for v in sups]
    spread = max(mags) / min(mags)
    same_sign = all(v < 0 for v in sups) or all(v > 0 for v in sups)
    with pytest.raises(ParameterGateError):
        run_check("apriori_bound", {"n": 3, "N": 16, "r": 1.5})
    _report(
        11,
        spread < 10.0 and same_sign,
        "implied exponential-bound constant finite, stable across amplitudes; r gate enforced",
        f"max C_impl={['%.3g' % v for v in sups]}, spread={spread:.2f}",
    )


def test_criterion_12_heat_smoothing():
    rep = run_check(
        "heat_smoothing",
        {
            "n": 3, "N": 32, "trials": 10, "seed": 12,
            "s0": 1.0, "s1": 2.0, "p0": 2, "p1": 2, "q": 2,
            "t_grid": list(np.logspace(-4, 0, 25)),
        },
    )
    _report(
        12,
        rep.passed and rep.details["sigma"] == pytest.approx(1.0),
        "weighted smoothing norm bounded on [1e-4, 1] and vanishing at 0",
        f"max weighted ratio={rep.max_ratio:.3g}",
    )


def test_criterion_13_alpha_to_zero_limit():
    gaps, alphas = [], [0.025, 0.05, 0.1]
    base_cfg = SolverConfig(
        n=3, N=16, alpha=0.0, nu=1.0, T=0.25, dt=2e-3,
        initial=InitialSpec("taylor_green", 0.5),
    )
    base = solve_ivp(base_cfg.initial_field(), base_cfg).final()
    for a in alphas:
        cfg = base_cfg.with_updates(alpha=a)
        gaps.append(l2_norm(solve_ivp(cfg.initial_field(), cfg).final() - base))
    slope = float(np.polyfit(np.log(alphas), np.log(gaps), 1)[0])
    _report(
        13,
        abs(slope - 2.0) <= 0.5,
        "filtered-to-unfiltered gap scales quadratically in the filter length",
        f"log-log slope={slope:.3f}",
    )


def test_criterion_14_determinism(tmp_path):
    from lanslab.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "n": 3, "N": 16, "T": 0.1, "dt": 0.002, "seed": 7,
                "initial": {"kind": "random_divfree", "amplitude": 0.2},
                "csv_stride": 1,
            }
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["solve", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["solve", "--config", str(cfg_path), "--out", str(out2)])
    identical = (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    _report(
        14,
        code1 == 0 and code2 == 0 and identical,
        "identical config and seed give byte-identical trajectory CSV",
    )
