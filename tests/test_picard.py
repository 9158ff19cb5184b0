import pytest

from helpers import div_l2_residual
from lanslab.errors import AdmissibilityError
from lanslab.fields import l2_norm, to_real
from lanslab.picard import check_admissibility, estimate_existence_time, picard_solve
from lanslab.solver import InitialSpec, SolverConfig, solve_ivp


def picard_cfg(**kw):
    base = dict(
        n=3, N=16, alpha=1.0, nu=1.0, T=0.3, dt=1e-3,
        initial=InitialSpec("taylor_green", 0.02),
    )
    base.update(kw)
    return SolverConfig(**base)


class TestAdmissibility:
    def test_default_tuple_accepted(self):
        a = check_admissibility(3, r=2.5, s=3.0, p=2, p_tilde=2, q=2)
        assert a == pytest.approx(0.25)

    def test_low_regularity_rejected(self):
        # r below n/p violates the minimal-regularity constraint
        with pytest.raises(AdmissibilityError) as err:
            check_admissibility(3, r=1.2, s=2.0, p=2, p_tilde=2, q=2)
        assert any("n/p" in v for v in err.value.violations)

    def test_smoothing_gap_must_be_fractional(self):
        with pytest.raises(AdmissibilityError):
            check_admissibility(3, r=2.5, s=3.8, p=2, p_tilde=2, q=2)  # s - r > 1
        with pytest.raises(AdmissibilityError):
            check_admissibility(3, r=2.5, s=2.5, p=2, p_tilde=2, q=2)  # s = r

    def test_p_range(self):
        with pytest.raises(AdmissibilityError):
            check_admissibility(3, 2.5, 3.0, p=1.0, p_tilde=2, q=2)
        with pytest.raises(AdmissibilityError):
            check_admissibility(3, 2.5, 3.0, p=4, p_tilde=2, q=2)


def test_zero_data_one_sweep():
    cfg = picard_cfg(initial=InitialSpec("zero"))
    traj, rep = picard_solve(cfg.initial_field(), cfg)
    assert rep.converged
    assert rep.iterates == 1
    assert l2_norm(to_real(traj.final())) == 0.0


# Recorded with the slow path: one inverse FFT per dyadic table, and a
# real-space round trip per node and sweep.  Tolerances as in the benchmark's
# picard gate: residuals rtol 1e-6 plus 1e-11 of the first residual, the
# trajectory's base norms rtol 1e-9.
SLOW_PATH_RESIDUALS = [
    0.001919217700828901, 5.694993621816324e-06, 1.9756759551362758e-08, 7.637592310550953e-11
]
SLOW_PATH_U_BESOV = [
    0.9828103499522891, 0.8074589715883776, 0.4773461511627151,
    0.22968760774603236, 0.06445607832061587, 0.04513090911971966,
]


def test_held_spectra_path_matches_slow_path_record():
    from lanslab.dyadic import BesovIndex, build_dyadic_family
    from lanslab.solver import PicardParams

    cfg = picard_cfg(
        seed=5,
        initial=InitialSpec("random_divfree", 0.05),
        picard=PicardParams(tol=1e-10, panels=2, nodes_per_panel=2),
    )
    traj, rep = picard_solve(cfg.initial_field(), cfg)
    assert rep.iterates == len(SLOW_PATH_RESIDUALS)
    floor = 1e-11 * SLOW_PATH_RESIDUALS[0]
    for got, want in zip(rep.residuals, SLOW_PATH_RESIDUALS):
        assert abs(got - want) <= 1e-6 * want + floor
    fam = build_dyadic_family(cfg.grid)
    base = [fam.besov_norm(f, BesovIndex(2.5, 2, 2)) for f in traj.fields]
    assert base == pytest.approx(SLOW_PATH_U_BESOV, rel=1e-9)


def test_small_data_contracts_geometrically():
    cfg = picard_cfg()
    traj, rep = picard_solve(cfg.initial_field(), cfg)
    assert rep.converged
    assert all(r < 0.9 for r in rep.contraction_ratios[1:])
    assert all(rep.membership_ok)
    # residual decay roughly geometric: ratios do not grow
    assert rep.residuals[-1] <= rep.residuals[0]


def test_fixed_point_matches_stepper():
    cfg = picard_cfg(T=0.3, dt=5e-4)
    u0 = cfg.initial_field()
    traj_p, rep = picard_solve(u0, cfg)
    assert rep.converged
    traj_s = solve_ivp(u0, cfg)
    ref = traj_s.final()
    err = l2_norm(to_real(traj_p.final()) - ref) / l2_norm(ref)
    assert err <= 1e-6


def test_divergence_free_samples():
    cfg = picard_cfg()
    traj, rep = picard_solve(cfg.initial_field(), cfg)
    assert rep.converged
    for f in traj.fields:
        assert div_l2_residual(to_real(f)) <= 1e-10


def test_nonconvergence_reported_for_large_data():
    cfg = picard_cfg(T=2.0, initial=InitialSpec("taylor_green", 40.0))
    _, rep = picard_solve(cfg.initial_field(), cfg)
    assert not rep.converged
    assert len(rep.residuals) >= 1


def test_existence_time_monotone_under_doubling():
    cfg = picard_cfg(T=0.5)
    rows = estimate_existence_time([0.9, 1.8, 3.6], cfg, t_max=1.0, bisect_steps=4)
    ts = [row["certified_T"] for row in rows]
    norms = [row["u0_norm"] for row in rows]
    assert norms[0] < norms[1] < norms[2]
    assert ts[0] >= ts[1] >= ts[2]
    # deterministic rerun
    rows2 = estimate_existence_time([0.9, 1.8, 3.6], cfg, t_max=1.0, bisect_steps=4)
    assert rows == rows2


def test_zero_amplitude_certifies_cap():
    cfg = picard_cfg()
    rows = estimate_existence_time([0.0], cfg, t_max=1.5)
    assert rows[0]["certified_T"] == 1.5
