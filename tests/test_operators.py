import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import div_l2_residual
from lanslab.dyadic import build_dyadic_family
from lanslab.dynamics import nonlinearity_V, reynolds_stress_divergence, semigroup_apply
from lanslab.fields import (
    SpectralField,
    VectorField,
    fourier_mode,
    l2_norm,
    random_band_mixture,
    random_divergence_free,
    to_real,
    to_spectral,
)
from lanslab.grid import Grid, ksq
from lanslab.operators import (
    divergence,
    helmholtz_inverse,
    lambda_power,
    leray_project,
    stokes_project,
)


def test_laplacian_on_single_mode(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))  # |k|^2 = 4
    g = lambda_power(f, 2.0)  # -Lap
    assert np.allclose(g.data, 4.0 * f.data, atol=1e-12)


def test_identity_symbol(grid3d):
    # Lambda^0 has symbol |k|^0 = 1 on the whole lattice, k = 0 included
    F = to_spectral(random_band_mixture(grid3d, seed=11))
    assert np.array_equal(lambda_power(F, 0.0).coeffs, F.coeffs)


def test_lambda_power_on_mode(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))  # |k| = 2
    g = lambda_power(f, 1.0)
    assert np.allclose(g.data, 2.0 * f.data, atol=1e-12)
    assert np.allclose(lambda_power(f, 0.0).data, f.data)


def test_lambda_power_negative_order_raises(grid3d):
    # |k|^a is infinite at k = 0 for a < 0, on samples and on spectra alike
    f = fourier_mode(grid3d, (2, 0, 0))
    for g in (f, to_spectral(f)):
        with pytest.raises(ValueError, match="order a must be >= 0"):
            lambda_power(g, -1.0)


def test_helmholtz_factor_and_inverse_pair(grid3d):
    f = fourier_mode(grid3d, (2, 0, 0))
    g = helmholtz_inverse(f, alpha=1.0)
    assert np.allclose(g.data, 0.2 * f.data, atol=1e-12)
    assert np.allclose(helmholtz_inverse(f, 0.0).data, f.data)
    # composition with (1 - alpha^2 Lap) is the identity
    g_hat = to_spectral(helmholtz_inverse(f, 0.7)).coeffs
    h = to_real(SpectralField(grid3d, g_hat * (1.0 + 0.49 * ksq(grid3d))))
    assert np.max(np.abs(h.data - f.data)) < 1e-12


def test_leray_kills_gradients(grid3d):
    # gradient field grad g has spectral coefficients i k g_hat
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


def test_stokes_commutes_with_forward_transform(grid3d):
    v = random_band_mixture(grid3d, seed=31, ncomp=3)
    spectral_first = stokes_project(to_spectral(v), 0.7).coeffs
    real_first = to_spectral(stokes_project(v, 0.7)).coeffs
    scale = np.max(np.abs(real_first))
    assert np.max(np.abs(spectral_first - real_first)) <= 1e-14 * scale


_FAMILY = build_dyadic_family(Grid(3, 16))
SAME_KIND_OPERATORS = {
    "helmholtz_inverse": lambda f: helmholtz_inverse(f, 0.7),
    "lambda_power": lambda f: lambda_power(f, 1.5),
    "leray_project": leray_project,
    "stokes_project": lambda f: stokes_project(f, 0.7),
    "semigroup_apply": lambda f: semigroup_apply(f, 0.1, nu=0.5),
    "nonlinearity_V": lambda f: nonlinearity_V(f, 0.7),
    "reynolds_stress_divergence": lambda f: reynolds_stress_divergence(f, 0.7),
    "delta_j": lambda f: _FAMILY.delta_j(f, 1),
    "low_pass": _FAMILY.low_pass,
    "s_j(-2)": lambda f: _FAMILY.s_j(f, -2),
    "s_j(1)": lambda f: _FAMILY.s_j(f, 1),
}


@pytest.mark.parametrize("name", sorted(SAME_KIND_OPERATORS))
def test_operator_returns_the_kind_it_is_given(name):
    op = SAME_KIND_OPERATORS[name]
    u = random_divergence_free(_FAMILY.grid, seed=23)
    real_out = op(u)
    spectral_out = op(to_spectral(u))
    assert isinstance(real_out, VectorField)
    assert isinstance(spectral_out, SpectralField)
    want = spectral_out.coeffs
    assert np.max(np.abs(to_spectral(real_out).coeffs - want)) <= 1e-14 * np.max(np.abs(want))
