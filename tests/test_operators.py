import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanslab.errors import GridMismatchError
from lanslab.fields import (
    fourier_mode,
    l2_norm,
    random_band_mixture,
    random_divergence_free,
    to_spectral,
)
from lanslab.grid import Grid
from lanslab.operators import (
    MultiplierSymbol,
    apply_multiplier,
    div_l2_residual,
    divergence,
    gradient_tensor,
    helmholtz_inverse,
    helmholtz_symbol,
    lambda_power,
    laplacian_symbol,
    leray_project,
    stokes_project,
)


def test_laplacian_on_single_mode(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))  # |k|^2 = 4
    g = apply_multiplier(laplacian_symbol(grid3d), f)
    assert np.allclose(g.data, -4.0 * f.data, atol=1e-12)


def test_identity_symbol(grid3d, rng):
    f = random_band_mixture(grid3d, seed=11)
    ident = MultiplierSymbol(grid3d, np.ones(grid3d.shape))
    assert np.allclose(apply_multiplier(ident, f).data, f.data)


def test_lambda_power_on_mode(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))  # |k| = 2
    g = lambda_power(f, 1.0)
    assert np.allclose(g.data, 2.0 * f.data, atol=1e-12)
    assert np.allclose(lambda_power(f, 0.0).data, f.data)


def test_symbol_grid_mismatch(grid2d, grid3d):
    sym = laplacian_symbol(grid2d)
    f = fourier_mode(grid3d, (1, 0, 0))
    with pytest.raises(GridMismatchError):
        apply_multiplier(sym, f)


def test_helmholtz_factor_and_inverse_pair(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))
    g = helmholtz_inverse(f, alpha=1.0)
    assert np.allclose(g.data, 0.2 * f.data, atol=1e-12)
    assert np.allclose(helmholtz_inverse(f, 0.0).data, f.data)
    # composition with (1 - alpha^2 Lap) is the identity
    forward = MultiplierSymbol(grid3d, 1.0 / helmholtz_symbol(grid3d, 0.7).table)
    h = apply_multiplier(forward, helmholtz_inverse(f, 0.7))
    assert np.max(np.abs(h.data - f.data)) < 1e-12


def test_leray_kills_gradients(grid3d):
    # gradient field grad g has spectral coefficients i k g_hat
    from lanslab.fields import SpectralField, to_real
    from lanslab.grid import wavevectors

    g_hat = to_spectral(random_band_mixture(grid3d, seed=2)).coeffs[0]
    kv = wavevectors(grid3d)
    grad = to_real(SpectralField(grid3d, 1j * kv * g_hat[None]))
    proj = leray_project(grad)
    assert l2_norm(proj) < 1e-12 * max(1.0, l2_norm(grad))


def test_leray_fixes_divergence_free(grid3d):
    u = fourier_mode(grid3d, (0, 1, 0), comp=0, ncomp=3, kind="sin") + fourier_mode(
        grid3d, (1, 0, 0), comp=1, ncomp=3, kind="sin"
    )
    # u = (sin y, sin x, 0) is divergence-free
    assert div_l2_residual(u) < 1e-13
    proj = leray_project(u)
    assert np.max(np.abs(proj.data - u.data)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_leray_idempotent_and_divergence_free(seed):
    grid = Grid(n=3, N=16)
    w = random_band_mixture(grid, seed=seed, ncomp=3)
    p1 = leray_project(w)
    p2 = leray_project(p1)
    assert l2_norm(divergence(p1)) <= 1e-12 * max(1.0, l2_norm(p1))
    assert np.max(np.abs(p2.data - p1.data)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 10.0])
def test_stokes_equals_leray(grid3d, alpha):
    w = random_band_mixture(grid3d, seed=31, ncomp=3)
    a = stokes_project(w, alpha)
    b = leray_project(w)
    assert l2_norm(a - b) <= 1e-12 * max(1.0, l2_norm(w))


def test_stokes_preserves_divergence_free(grid3d):
    u = random_divergence_free(grid3d, seed=5)
    v = stokes_project(u, alpha=2.0)
    assert l2_norm(v - u) <= 1e-12 * max(1.0, l2_norm(u))


def test_gradient_tensor_shear(grid3d):
    u = fourier_mode(grid3d, (0, 1, 0), comp=0, ncomp=3, kind="sin")  # (sin y, 0, 0)
    jac = gradient_tensor(u)
    from lanslab.grid import coordinates

    _, y, _ = coordinates(grid3d)
    assert np.allclose(jac[0, 1], np.cos(y), atol=1e-12)
    others = [jac[i, j] for i in range(3) for j in range(3) if (i, j) != (0, 1)]
    assert max(np.max(np.abs(o)) for o in others) < 1e-12


def test_stokes_commutes_with_forward_transform(grid3d):
    v = random_band_mixture(grid3d, seed=31, ncomp=3)
    spectral_first = stokes_project(to_spectral(v), 0.7).coeffs
    real_first = to_spectral(stokes_project(v, 0.7)).coeffs
    scale = np.max(np.abs(real_first))
    assert np.max(np.abs(spectral_first - real_first)) <= 1e-14 * scale
