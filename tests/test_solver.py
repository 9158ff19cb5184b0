import json
import math

import numpy as np
import pytest

from lanslab.dynamics import semigroup_apply
from lanslab.errors import BlowUpError, ConfigError
from lanslab.fields import l2_norm, taylor_green, zero_field
from lanslab.operators import div_l2_residual
from lanslab.solver import (
    InitialSpec,
    SolverConfig,
    Trajectory,
    config_from_dict,
    solve_ivp,
)


def small_cfg(**kw):
    base = dict(n=3, N=16, alpha=1.0, nu=1.0, T=0.1, dt=2e-3)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(nu=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(N=12)


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {
            "n": 3,
            "N": 16,
            "T": 0.5,
            "dt": 0.01,
            "initial": {"kind": "taylor_green", "amplitude": 0.2},
            "besov": {"r": 2.5, "q": 2.0},
        }
    )
    assert cfg.initial.amplitude == 0.2
    assert cfg.besov.r == 2.5
    with pytest.raises(ConfigError):
        config_from_dict({"unknown_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"picard": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"picard": {"tol": -1.0}})


def test_random_band_index_checked_against_grid(tmp_path):
    from lanslab.cli import main

    with pytest.raises(ConfigError, match=r"initial\.j=3.*<= 2"):
        SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=3))
    with pytest.raises(ConfigError, match=r"initial\.j"):
        SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=-1))
    SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=2))
    SolverConfig(N=16, initial=InitialSpec("taylor_green", 0.1, j=3))  # j unused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"N": 16, "T": 0.01, "dt": 0.005,
         "initial": {"kind": "random_band", "amplitude": 0.1, "j": 3}}
    ))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_zero_data_stays_zero():
    cfg = small_cfg(initial=InitialSpec(kind="zero"))
    traj = solve_ivp(cfg.initial_field(), cfg)
    assert l2_norm(traj.final()) == 0.0
    assert np.all(traj.series["energy"] == 0.0)


def test_linear_regime_tracks_semigroup():
    cfg = small_cfg(T=0.1, dt=1e-3, initial=InitialSpec("taylor_green", 1e-7))
    u0 = cfg.initial_field()
    traj = solve_ivp(u0, cfg, sample_stride=1)
    exact = semigroup_apply(u0, 0.1, nu=cfg.nu)
    err = l2_norm(traj.final() - exact) / l2_norm(exact)
    assert err <= 1e-8


def test_samples_divergence_free_and_energy_monotone():
    cfg = small_cfg(T=0.2, dt=2e-3, initial=InitialSpec("taylor_green", 0.1))
    traj = solve_ivp(cfg.initial_field(), cfg)
    for f in traj.fields:
        assert div_l2_residual(f) <= 1e-10
    energy = traj.series["energy"]
    tol = 10.0 * cfg.dt**4 * energy[:-1]
    assert np.all(np.diff(energy) <= tol)


def test_fourth_order_nonlinear_convergence():
    errs = []
    dts = [4e-3, 2e-3]
    cfg_ref = small_cfg(T=0.04, dt=2.5e-4, initial=InitialSpec("taylor_green", 0.5))
    ref = solve_ivp(cfg_ref.initial_field(), cfg_ref).final()
    for dt in dts:
        cfg = small_cfg(T=0.04, dt=dt, initial=InitialSpec("taylor_green", 0.5))
        out = solve_ivp(cfg.initial_field(), cfg).final()
        errs.append(l2_norm(out - ref))
    order = math.log2(errs[0] / errs[1])
    assert 3.5 <= order <= 4.6


def test_blowup_guard():
    cfg = small_cfg(initial=InitialSpec("taylor_green", 1e7), blowup_threshold=1e6)
    with pytest.raises(BlowUpError):
        solve_ivp(cfg.initial_field(), cfg)


def test_alpha_refinement_gap_scales_quadratically():
    gaps = []
    alphas = [0.2, 0.1]
    cfg0 = small_cfg(alpha=0.0, T=0.1, dt=2e-3, initial=InitialSpec("taylor_green", 0.5))
    base = solve_ivp(cfg0.initial_field(), cfg0).final()
    for a in alphas:
        cfg = small_cfg(alpha=a, T=0.1, dt=2e-3, initial=InitialSpec("taylor_green", 0.5))
        gaps.append(l2_norm(solve_ivp(cfg.initial_field(), cfg).final() - base))
    slope = math.log(gaps[0] / gaps[1]) / math.log(alphas[0] / alphas[1])
    assert 1.5 <= slope <= 2.5


def test_trajectory_validation(grid3d_small):
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], fields=[zero_field(grid3d_small)] * 2)


def test_besov_series_recorded():
    cfg = small_cfg(T=0.05, dt=5e-3, initial=InitialSpec("taylor_green", 0.1))
    traj = solve_ivp(cfg.initial_field(), cfg, besov_stride=5)
    assert "besov_base" in traj.series
    assert len(traj.series["besov_t"]) >= 2
    assert np.all(traj.series["besov_base"] > 0)
