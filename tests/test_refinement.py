"""Grid- and step-refinement stability of the empirical constants."""

import numpy as np
import pytest

from lanslab import _fft
from lanslab.checks import gronwall_report, run_check
from lanslab.errors import ConfigError
from lanslab.solver import InitialSpec, SolverConfig, solve_ivp


def test_product_constant_stable_under_grid_refinement():
    rep = run_check(
        "product",
        {"n": 2, "N": 32, "trials": 20, "s": 1.2, "p": 2, "p1": 3, "refine": True},
    )
    assert rep.passed
    assert 0.5 <= rep.details["refinement_factor"] <= 2.0


def test_tau_constant_stable_under_grid_refinement():
    rep = run_check(
        "tau",
        {"n": 2, "N": 32, "trials": 20, "r": 2.1, "p": 2, "p_bar": 2, "refine": True},
    )
    assert rep.passed
    assert 0.5 <= rep.details["refinement_factor"] <= 2.0


def test_gronwall_constant_stable_under_step_refinement():
    def implied_c(dt):
        cfg = SolverConfig(
            n=3, N=16, alpha=1.0, nu=1.0, T=0.2, dt=dt,
            initial=InitialSpec("taylor_green", 0.2),
        )
        # matched output times regardless of dt
        stride = max(1, int(round(cfg.T / dt)) // 20)
        traj = solve_ivp(cfg.initial_field(), cfg, sample_stride=stride)
        return gronwall_report(traj, 2.5, 2, 3).max_ratio

    c1 = implied_c(2e-3)
    c2 = implied_c(1e-3)
    assert abs(c2 - c1) <= 0.1 * max(abs(c1), abs(c2), 1e-12)


def test_solver_deterministic_across_thread_counts():
    cfg = SolverConfig(
        n=3, N=16, T=0.05, dt=5e-3, initial=InitialSpec("taylor_green", 0.3)
    )
    try:
        _fft.set_workers(1)
        one = solve_ivp(cfg.initial_field(), cfg).final()
        _fft.set_workers(4)
        four = solve_ivp(cfg.initial_field(), cfg).final()
    finally:
        _fft.set_workers(1)
    assert np.array_equal(one.data, four.data)


def test_workers_env_fallback(monkeypatch):
    monkeypatch.setenv("LANS_LAB_THREADS", "3")
    assert _fft.workers_from_env() == 3
    for bad in ("junk", "0"):
        monkeypatch.setenv("LANS_LAB_THREADS", bad)
        with pytest.raises(ConfigError, match="LANS_LAB_THREADS"):
            _fft.workers_from_env()
    monkeypatch.setenv("LANS_LAB_THREADS", "")
    assert _fft.workers_from_env() == 1
    monkeypatch.delenv("LANS_LAB_THREADS")
    assert _fft.workers_from_env() == 1


@pytest.mark.parametrize("bad", [0, -1])
def test_set_workers_rejects_non_positive_counts(bad):
    before = _fft.get_workers()
    with pytest.raises(ValueError, match=str(bad)):
        _fft.set_workers(bad)
    assert _fft.get_workers() == before
