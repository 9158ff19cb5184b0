import math

import numpy as np
import pytest

from lanslab.checks import run_check
from lanslab.errors import ParameterGateError


# a check takes either a trial count or a pair count, never both
SMALL = {"n": 2, "N": 32, "trials": 4, "seed": 0}
SMALL_PAIRS = {"n": 2, "N": 32, "pairs": 4, "seed": 0}


def test_registry_dispatch_unknown():
    with pytest.raises(KeyError):
        run_check("no_such_check", {})


def test_partition_of_unity_check():
    rep = run_check("partition_of_unity", {"n": 3, "N": 32})
    assert rep.passed
    assert rep.max_ratio <= 1e-12


def test_support_checks_pass():
    for cid in ("support_orthogonality", "support_product_low", "support_product_high"):
        rep = run_check(cid, dict(SMALL))
        assert rep.passed, f"{cid}: {rep.max_ratio}"


def test_paraproduct_and_block_checks():
    rep = run_check("paraproduct_reconstruction", dict(SMALL_PAIRS))
    assert rep.passed and rep.max_ratio <= 1e-8
    rep = run_check("block_decomposition", dict(SMALL_PAIRS))
    assert rep.passed


def test_bony_bounds_finite_and_scale_stable():
    rep = run_check("bony_bounds", dict(SMALL_PAIRS))
    assert rep.passed
    assert math.isfinite(rep.max_ratio)
    assert rep.details["scale_stable"]


def test_k2_tail_dichotomy():
    conv = run_check("k2_tail", {"r": 2.5})
    div = run_check("k2_tail", {"r": 1.5})
    assert conv.passed and conv.details["predicts"] == "convergent"
    assert div.passed and div.details["predicts"] == "divergent"
    assert div.details["growth_factor"] > 100


def test_embedding_check():
    rep = run_check("embedding", dict(SMALL))
    assert rep.passed
    assert rep.max_ratio <= 10.0
    with pytest.raises(ParameterGateError):
        run_check("embedding", {**SMALL, "q1": 2, "q2": 1})


def test_bernstein_check():
    rep = run_check("bernstein", {"n": 2, "N": 32, "trials": 5, "seed": 1})
    assert rep.passed
    assert abs(rep.details["single_mode_ratio"] - 1.0) <= 1e-12
    assert rep.details["spread"] <= 4.0
    with pytest.raises(ParameterGateError):
        run_check("bernstein", {"n": 2, "N": 32, "p": 4, "q": 2})


def test_heat_smoothing_check_and_gates():
    rep = run_check("heat_smoothing", {**SMALL, "s0": 1.0, "s1": 2.0})
    assert rep.passed
    assert rep.details["sigma"] == pytest.approx(1.0)
    assert rep.details["decay_to_zero"]
    # sigma = 0: pure semigroup contraction
    rep0 = run_check("heat_smoothing", {**SMALL, "s0": 1.5, "s1": 1.5})
    assert rep0.passed and rep0.max_ratio <= 1.0 + 1e-10
    with pytest.raises(ParameterGateError):
        run_check("heat_smoothing", {**SMALL, "s0": 2.0, "s1": 1.0})
    with pytest.raises(ParameterGateError):
        run_check("heat_smoothing", {**SMALL, "p0": 3, "p1": 2})


def test_product_check_and_gates():
    rep = run_check("product", {"n": 3, "N": 16, "trials": 10, "s": 1.6, "p": 2, "p1": 3})
    assert rep.passed and math.isfinite(rep.max_ratio)
    with pytest.raises(ParameterGateError):
        run_check("product", {"n": 3, "N": 16, "s": 1.6, "p": 2, "p1": 5})
    with pytest.raises(ParameterGateError):
        run_check("product", {"n": 3, "N": 16, "s": 0.1, "p": 2, "p1": 3})


def test_product_constant_field_ratio_one():
    # closed form: u = 1 gives ||u^2|| = ||u||^2 = 1 under every admissible tuple
    from lanslab.dyadic import BesovIndex, build_dyadic_family
    from helpers import constant_field
    from lanslab.fields import pointwise_product
    from lanslab.grid import Grid

    grid = Grid(3, 16)
    fam = build_dyadic_family(grid)
    one = constant_field(grid, [1.0])
    idx_out, idx_in = BesovIndex(1.6, 2, 2), BesovIndex(1.6, 3, 2)
    ratio = fam.besov_norm(pointwise_product(one, one), idx_out) / fam.besov_norm(one, idx_in) ** 2
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_moser_check_and_gate():
    rep = run_check("moser", {"n": 2, "N": 32, "trials": 10, "s": 1.5, "p": 1,
                              "p1": 2, "p2": 2, "r1": 2, "r2": 2})
    assert rep.passed
    with pytest.raises(ParameterGateError):
        run_check("moser", {"n": 2, "N": 32, "s": 1.5, "p": 1, "p1": 2, "p2": 3,
                            "r1": 2, "r2": 2})


def test_tau_check_and_gates():
    rep = run_check("tau", {"n": 2, "N": 32, "trials": 10, "r": 2.1, "p": 2,
                            "p_bar": 2, "alpha": 1.0})
    assert rep.passed and math.isfinite(rep.max_ratio)
    # n = 3 at p = p_bar = 2 needs r > 2.5
    with pytest.raises(ParameterGateError):
        run_check("tau", {"n": 3, "N": 16, "r": 2.1, "p": 2, "p_bar": 2})
    rep3 = run_check("tau", {"n": 3, "N": 16, "trials": 5, "r": 2.6, "p": 2, "p_bar": 2})
    assert rep3.passed


def test_tau_shear_oracle_numerator():
    # for the closed-form shear the check's numerator reproduces
    # div tau = (0, -sin 2y/10, 0) at alpha = 1
    from lanslab.dynamics import reynolds_stress_divergence
    from lanslab.fields import fourier_mode
    from lanslab.grid import Grid, coordinates

    grid = Grid(2, 32)
    u = fourier_mode(grid, (0, 1), comp=0, ncomp=2, kind="sin")
    div_tau = reynolds_stress_divergence(u, 1.0)
    _, y = coordinates(grid)
    assert np.max(np.abs(div_tau.data[1] + np.sin(2 * y) / 10.0)) < 1e-10


def test_energy_monotone_check():
    rep = run_check("energy_monotone", {"n": 3, "N": 16, "T": 0.2, "dt": 2e-3,
                                        "amplitude": 0.1})
    assert rep.passed
    assert rep.details["monotone"] and rep.details["low_pass_below_h12"]


def test_energy_monotone_zero_trajectory():
    rep = run_check("energy_monotone", {"n": 3, "N": 16, "T": 0.1, "dt": 2e-3,
                                        "initial_kind": "zero"})
    assert rep.passed


def test_gronwall_check_and_gate():
    rep = run_check("gronwall_differential", {"n": 3, "N": 16, "T": 0.2, "dt": 2e-3,
                                              "amplitude": 0.2, "r": 2.5, "q": 2})
    assert rep.passed and math.isfinite(rep.max_ratio)
    with pytest.raises(ParameterGateError):
        run_check("gronwall_differential", {"n": 3, "N": 16, "r": 1.5})


def test_gronwall_heat_flow_zero_constant():
    # pure decay: positive part of the derivative vanishes
    from lanslab.checks import gronwall_report
    from lanslab.dynamics import semigroup_apply
    from lanslab.fields import random_divergence_free
    from lanslab.grid import Grid
    from lanslab.solver import Trajectory

    grid = Grid(3, 16)
    u0 = random_divergence_free(grid, seed=2, j_hi=1)
    ts = np.linspace(0.0, 0.5, 21)
    traj = Trajectory(times=ts, fields=[semigroup_apply(u0, t) for t in ts])
    rep = gronwall_report(traj, 2.5, 2, 3)
    assert rep.max_ratio == 0.0
    assert rep.passed


def test_apriori_check_and_gate():
    rep = run_check("apriori_bound", {"n": 3, "N": 16, "T": 0.3, "dt": 2e-3,
                                      "amplitude": 0.2, "r": 2.5, "q": 2})
    assert rep.passed and math.isfinite(rep.max_ratio)
    # dissipative run: norm decays, implied constant is negative
    assert rep.max_ratio <= 0.0
    with pytest.raises(ParameterGateError):
        run_check("apriori_bound", {"n": 3, "N": 16, "r": 1.5})


def test_gamma_checks():
    rep = run_check("gamma_ct", {"n": 2, "N": 32, "trials": 3, "s0": 1.0, "s1": 2.0})
    assert rep.passed
    rep = run_check("gamma_lsigma", {"n": 2, "N": 32, "trials": 3, "s0": 1.0, "s1": 2.0})
    assert rep.passed and rep.details["sigma"] == pytest.approx(2.0)
    with pytest.raises(ParameterGateError):
        run_check("gamma_lsigma", {"n": 2, "N": 32, "s0": 1.0, "s1": 1.0})


def test_duhamel_mapping_checks():
    rep = run_check("duhamel_ct", {"n": 2, "N": 16, "trials": 2, "s0": 1.0,
                                   "s1": 1.5, "k0": 0.75})
    assert rep.passed
    with pytest.raises(ParameterGateError):
        run_check("duhamel_ct", {"n": 2, "N": 16, "s0": 1.0, "s1": 1.5, "k0": 1.5})
    rep = run_check("duhamel_lsigma", {"n": 2, "N": 16, "trials": 2})
    assert rep.passed
    rep = run_check("duhamel_bc", {"n": 2, "N": 16, "trials": 2})
    assert rep.passed


def test_v_alpha_check():
    rep = run_check("v_alpha_ct", {"n": 2, "N": 16, "trials": 2, "s": 2.2})
    assert rep.passed
    with pytest.raises(ParameterGateError):
        run_check("v_alpha_ct", {"n": 3, "N": 16, "s": 2.2})


def test_report_serialization_roundtrip():
    rep = run_check("k2_tail", {"r": 2.5})
    d = rep.to_dict()
    assert d["check_id"] == "k2_tail"
    assert d["pass"] is True
    import json

    json.dumps(d)  # must be JSON-serializable


def test_reports_deterministic():
    a = run_check("bernstein", {"n": 2, "N": 32, "trials": 4, "seed": 9})
    b = run_check("bernstein", {"n": 2, "N": 32, "trials": 4, "seed": 9})
    assert a.ratios == b.ratios


def test_heat_smoothing_single_mode_argmax_oracle():
    # weighted profile of a single mode |k| = 2^j peaks at t = sigma/(2 |k|^2)
    # with closed-form peak value (sigma/(2|k|^2) e^-1)^{sigma/2} 2^{j sigma}
    import math

    from lanslab.checks import _heat_weight_profile
    from lanslab.dyadic import build_dyadic_family
    from lanslab.fields import fourier_mode
    from lanslab.grid import Grid

    grid = Grid(2, 32)
    fam = build_dyadic_family(grid)
    j, s0, s1 = 2, 1.0, 2.0
    sigma = s1 - s0
    k2 = (2.0**j) ** 2
    u = fourier_mode(grid, (0, 2**j))
    t_star = sigma / (2.0 * k2)
    t_grid = np.linspace(0.25 * t_star, 4.0 * t_star, 4001)
    _, prof = _heat_weight_profile(fam, u, s0, p0=2, s1=s1, p1=2, q=2, t_grid=t_grid)
    t_peak = t_grid[int(np.argmax(prof))]
    assert t_peak == pytest.approx(t_star, rel=2e-3)
    peak_exact = t_star ** (sigma / 2.0) * math.exp(-sigma / 2.0) * 2.0 ** (j * sigma)
    assert float(np.max(prof)) == pytest.approx(peak_exact, rel=1e-10)
