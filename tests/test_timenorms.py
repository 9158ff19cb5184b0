import math

import numpy as np
import pytest

from lanslab.dyadic import BesovIndex, build_dyadic_family
from lanslab.dynamics import semigroup_apply
from helpers import constant_field
from lanslab.fields import random_band_mixture, zero_field
from lanslab.solver import Trajectory
from lanslab.timenorms import _simpson, ct_norm, lsigma_norm


def const_traj(grid, f, T=1.0, nsamples=9):
    ts = np.linspace(0.0, T, nsamples)
    return Trajectory(times=ts, fields=[f] * nsamples)


def test_ct_norm_unweighted_constant(grid3d_small):
    grid = grid3d_small
    fam = build_dyadic_family(grid)
    f = random_band_mixture(grid, seed=1, j_hi=fam.j_max - 1)
    idx = BesovIndex(1.0, 2, 2)
    traj = const_traj(grid, f)
    assert ct_norm(traj, 0.0, idx) == pytest.approx(
        fam.besov_norm(f, idx), rel=1e-12
    )


def test_ct_norm_weighted_skips_origin(grid3d_small):
    grid = grid3d_small
    fam = build_dyadic_family(grid)
    f = random_band_mixture(grid, seed=2, j_hi=fam.j_max - 1)
    idx = BesovIndex(1.0, 2, 2)
    traj = const_traj(grid, f, T=2.0)
    # sup of t^a * const is attained at the final time
    assert ct_norm(traj, 0.5, idx) == pytest.approx(
        math.sqrt(2.0) * fam.besov_norm(f, idx), rel=1e-12
    )


def test_zero_trajectory_functionals(grid3d_small):
    traj = const_traj(grid3d_small, zero_field(grid3d_small, 1))
    idx = BesovIndex(1.0, 2, 2)
    assert ct_norm(traj, 0.0, idx) == 0.0
    assert lsigma_norm(traj, 2.0, idx) == 0.0


def test_lsigma_constant_closed_form(grid3d_small):
    grid = grid3d_small
    one = constant_field(grid, [1.0])
    traj = const_traj(grid, one, T=3.0, nsamples=13)
    # ||1||_{s,p,q} = 1, so the integral is T^{1/sigma}
    assert lsigma_norm(traj, 2.0, BesovIndex(1.0, 2, 2)) == pytest.approx(
        math.sqrt(3.0), rel=1e-6
    )


def test_lsigma_semigroup_finite(grid3d_small):
    # smoothing trajectory is integrable with 2/sigma = s1 - s0
    grid = grid3d_small
    fam = build_dyadic_family(grid)
    u0 = random_band_mixture(grid, seed=3, j_hi=fam.j_max - 1)
    ts = np.linspace(0.0, 2.0, 41)
    traj = Trajectory(times=ts, fields=[semigroup_apply(u0, t) for t in ts])
    s0, s1 = 1.0, 2.0
    sigma = 2.0 / (s1 - s0)
    val = lsigma_norm(traj, sigma, BesovIndex(s1, 2, 2))
    assert math.isfinite(val) and val > 0


def test_second_functional_at_same_p_makes_no_fft(grid3d_small, monkeypatch):
    from lanslab import _fft

    grid = grid3d_small
    fam = build_dyadic_family(grid)
    f = random_band_mixture(grid, seed=5, j_hi=fam.j_max - 1)
    traj = const_traj(grid, f)
    ct_norm(traj, 0.0, BesovIndex(1.0, 2, 2))
    calls = []
    original = _fft.ifftn
    monkeypatch.setattr(_fft, "ifftn", lambda *a, **k: calls.append(1) or original(*a, **k))
    ct_norm(traj, 0.5, BesovIndex(2.0, 2, math.inf))
    lsigma_norm(traj, 2.0, BesovIndex(1.5, 2, 1))
    assert calls == []


@pytest.mark.parametrize("count", [2, 3, 4, 5, 6, 7, 25])
def test_simpson_bitwise_equal_to_scipy(count):
    pytest.importorskip("scipy", minversion="1.11")  # its even-count rule
    from scipy.integrate import simpson

    rng = np.random.default_rng(count)
    grids = [np.linspace(0.0, T, count) for T in (0.04, 0.5, 1.0, 3.0)]
    grids.append(np.logspace(-4, 0, count))
    # random spacings: the even-count correction cubes the last spacing,
    # which a numpy scalar power would round differently on some draws
    grids += [np.cumsum(rng.random(count) + 1e-3) for _ in range(200)]
    for x in grids:
        y = rng.standard_normal(count)
        ours, theirs = _simpson(y, x), simpson(y, x=x)
        assert np.float64(ours).tobytes() == np.float64(theirs).tobytes(), (x, y)
