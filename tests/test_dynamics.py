import math

import dynamics_reference as reference
import numpy as np
import pytest

from lanslab import fields
from lanslab.fields import (
    SpectralField,
    VectorField,
    fourier_mode,
    l2_norm,
    random_band_mixture,
    random_divergence_free,
    to_real,
    to_spectral,
    zero_field,
)
from lanslab.grid import Grid, coordinates, ksq, wavevectors
from lanslab.dynamics import (
    nonlinearity_V,
    reynolds_stress_divergence,
    semigroup_apply,
)


def shear_field(grid):
    # u = (sin y, 0, 0)
    return fourier_mode(grid, (0, 1, 0), comp=0, ncomp=3, kind="sin")


# Slow reference path: the tensors as physical samples, one c2c round trip
# per stage and per real field, through the reference's own scipy.fft
# transforms.  The fast kernels in lanslab.dynamics are compared against it
# and against tests/dynamics_reference.py.

dealias_array = reference.dealias_array


def gradient_tensor(f):
    """Jacobian samples J[i, j] = d_j u_i, shape (ncomp, n, N, ..., N)."""
    grid = f.grid
    kv = wavevectors(grid)
    coeffs = to_spectral(f).coeffs
    jac = 1j * kv[None, :, ...] * coeffs[:, None, ...]
    flat = jac.reshape((-1,) + grid.shape)
    return np.real(reference.ifftn(flat, grid.n)).reshape(jac.shape)


def divergence_tensor(grid, tensor):
    """(div T)_i = sum_j d_j T_ij for tensor samples of shape (n, n, ...)."""
    kv = wavevectors(grid)
    flat = tensor.reshape((-1,) + grid.shape)
    t_hat = reference.fftn(flat, grid.n).reshape(tensor.shape)
    div_hat = np.sum(1j * kv[None, ...] * t_hat, axis=1)
    return to_real(SpectralField(grid, div_hat))


def reynolds_stress(u, alpha):
    """Filtered Reynolds stress tensor, samples of shape (n, n, N, ..., N).

    The tensor product is dealiased before the Helmholtz inversion.
    """
    grid = u.grid
    a2 = float(alpha) ** 2
    if a2 == 0.0:
        return np.zeros((grid.n, grid.n) + grid.shape)
    jac = gradient_tensor(u)
    deform = 0.5 * (jac + np.swapaxes(jac, 0, 1))
    rotation = jac - np.swapaxes(jac, 0, 1)
    prod = np.einsum("ik...,kj...->ij...", deform, rotation)
    flat = dealias_array(grid, prod.reshape((-1,) + grid.shape))
    prod_hat = reference.fftn(flat, grid.n)
    tau_hat = a2 * prod_hat / (1.0 + a2 * ksq(grid))
    tau = np.real(reference.ifftn(tau_hat, grid.n))
    return tau.reshape(prod.shape)


def momentum_flux_divergence(u):
    """div(u (x) u) through physical samples: the slow path of the flux
    half of `nonlinearity_V`."""
    grid = u.grid
    flux = u.data[:, None, ...] * u.data[None, :, ...]
    flux = dealias_array(grid, flux.reshape((-1,) + grid.shape)).reshape(flux.shape)
    return divergence_tensor(grid, flux)


def _velocity(kind, grid, seed):
    if kind == "mixture":
        return random_band_mixture(grid, seed=seed, ncomp=grid.n)
    # white noise: most of its spectrum lies outside the dealiasing mask
    rng = np.random.default_rng(seed)
    return VectorField(grid, rng.standard_normal((grid.n,) + grid.shape))


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_gradient_tensor_shear(grid3d):
    u = shear_field(grid3d)
    jac = gradient_tensor(u)
    _, y, _ = coordinates(grid3d)
    assert np.allclose(jac[0, 1], np.cos(y), atol=1e-12)
    others = [jac[i, j] for i in range(3) for j in range(3) if (i, j) != (0, 1)]
    assert max(np.max(np.abs(o)) for o in others) < 1e-12


def test_stress_tensor_shear_closed_form(grid3d):
    # Def(u).Om(u) = diag(-cos^2 y, cos^2 y, 0)/2 for the unit shear;
    # the Helmholtz inverse maps cos(2y) to cos(2y)/5 at alpha = 1
    u = shear_field(grid3d)
    tau = reynolds_stress(u, alpha=1.0)
    _, y, _ = coordinates(grid3d)
    expected_22 = 0.25 + np.cos(2 * y) / 10.0 / 2.0
    assert np.allclose(tau[1, 1], expected_22, atol=1e-12)
    assert np.allclose(tau[0, 0], -expected_22, atol=1e-12)
    assert np.max(np.abs(tau[2, 2])) < 1e-12
    assert np.max(np.abs(tau[0, 1])) < 1e-12


def test_divergence_of_stress_shear_oracle(grid3d):
    u = shear_field(grid3d)
    div_tau = reynolds_stress_divergence(u, alpha=1.0)
    _, y, _ = coordinates(grid3d)
    assert np.max(np.abs(div_tau.data[1] + np.sin(2 * y) / 10.0)) < 1e-10
    assert np.max(np.abs(div_tau.data[0])) < 1e-12
    assert np.max(np.abs(div_tau.data[2])) < 1e-12


def test_stress_zero_cases(grid3d):
    z = zero_field(grid3d)
    assert np.max(np.abs(reynolds_stress(z, 1.0))) == 0.0
    u = shear_field(grid3d)
    assert np.max(np.abs(reynolds_stress(u, 0.0))) == 0.0
    assert l2_norm(reynolds_stress_divergence(u, 0.0)) == 0.0


def test_momentum_flux_vanishes_for_unidirectional_shear(grid3d):
    u = shear_field(grid3d)
    assert l2_norm(momentum_flux_divergence(u)) < 1e-12


def test_nonlinearity_shear_reduces_to_stress(grid3d):
    u = shear_field(grid3d)
    v = nonlinearity_V(u, alpha=1.0)
    dt = reynolds_stress_divergence(u, alpha=1.0)
    assert l2_norm(v - dt) < 1e-12


def test_nonlinearity_zero(grid3d):
    assert l2_norm(nonlinearity_V(zero_field(grid3d), 1.0)) == 0.0


def test_nonlinearity_quadratic_homogeneity(grid3d):
    u = random_divergence_free(grid3d, seed=17)
    lam = 3.7
    v1 = nonlinearity_V(lam * u, alpha=0.0)
    v2 = nonlinearity_V(u, alpha=0.0)
    assert l2_norm(v1 - lam**2 * v2) <= 1e-12 * max(1.0, l2_norm(v1))


def test_semigroup_identity_and_factor(grid3d):
    u = random_divergence_free(grid3d, seed=18)
    assert l2_norm(semigroup_apply(u, 0.0) - u) < 1e-13
    mode = fourier_mode(grid3d, (1, 0, 0), ncomp=3)
    out = semigroup_apply(mode, 0.1, nu=1.0)
    assert np.allclose(out.data, math.exp(-0.1) * mode.data, atol=1e-12)


def test_semigroup_rejects_negative_time(grid3d):
    with pytest.raises(ValueError):
        semigroup_apply(zero_field(grid3d), -0.5)


def test_semigroup_decays_high_modes_faster(grid3d):
    lo = fourier_mode(grid3d, (1, 0, 0), ncomp=3)
    hi = fourier_mode(grid3d, (4, 0, 0), ncomp=3)
    t = 0.3
    r_lo = l2_norm(semigroup_apply(lo, t)) / l2_norm(lo)
    r_hi = l2_norm(semigroup_apply(hi, t)) / l2_norm(hi)
    assert r_hi < r_lo
    assert r_hi == pytest.approx(math.exp(-16 * t), rel=1e-12)


@pytest.mark.parametrize("grid", [Grid(2, 16), Grid(3, 16), Grid(3, 32)], ids=str)
@pytest.mark.parametrize("kind", ["mixture", "white"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_nonlinearity_single_pass_matches_slow_path(grid, kind, alpha):
    u = _velocity(kind, grid, seed=31)
    slow_stress = divergence_tensor(grid, reynolds_stress(u, alpha))
    slow = momentum_flux_divergence(u) + slow_stress
    stress = reynolds_stress_divergence(u, alpha).data
    assert np.max(np.abs(stress - slow_stress.data)) <= 1e-13 * np.max(np.abs(slow_stress.data))
    real_out = nonlinearity_V(u, alpha)
    spectral_out = nonlinearity_V(to_spectral(u), alpha)
    assert isinstance(real_out, VectorField)
    assert isinstance(spectral_out, SpectralField)
    assert _rel(real_out.data, slow.data) <= 1e-13
    assert _rel(to_real(spectral_out).data, slow.data) <= 1e-13
    assert _rel(spectral_out.coeffs, to_spectral(slow).coeffs) <= 1e-13


def test_nonlinearity_spectral_zero_is_exact(grid3d):
    out = nonlinearity_V(to_spectral(zero_field(grid3d)), 1.0)
    assert isinstance(out, SpectralField)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_nonlinearity_rejects_non_velocity(grid3d):
    from lanslab.errors import GridMismatchError

    with pytest.raises(GridMismatchError):
        nonlinearity_V(zero_field(grid3d, 1), 1.0)


@pytest.mark.parametrize("grid", [Grid(2, 16), Grid(3, 16)], ids=str)
@pytest.mark.parametrize("kind", ["mixture", "white"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("spectral", [False, True], ids=["real", "spectral"])
def test_paired_transforms_match_one_transform_per_field(grid, kind, alpha, spectral):
    # white noise carries Nyquist content, where the derivative table is 0
    u = _velocity(kind, grid, seed=41)
    u = to_spectral(u) if spectral else u
    for fast, slow in [
        (nonlinearity_V, reference.nonlinearity_V),
        (reynolds_stress_divergence, reference.reynolds_stress_divergence),
    ]:
        got, want = fast(u, alpha), slow(u, alpha)
        assert type(got) is type(want)
        if spectral:
            got, want = got.coeffs, want.coeffs
        else:
            got, want = got.data, want.data
        # the stress at alpha = 0 is zero on both paths, exactly
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [Grid(2, 16), Grid(3, 16)], ids=str)
@pytest.mark.parametrize("count", [1, 2, 3, 6])
def test_dealias_array_pairs_match_one_transform_per_field(grid, count):
    data = np.random.default_rng(count).standard_normal((count,) + grid.shape)
    got, want = fields.dealias_array(grid, data), reference.dealias_array(grid, data)
    assert got.shape == want.shape
    if count == 1:
        assert np.array_equal(got, want)
    else:  # odd counts leave the last imaginary half empty
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
