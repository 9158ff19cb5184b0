import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_field, div_l2_residual
from lanslab.errors import GridMismatchError
from lanslab.fields import (
    VectorField,
    dealias_array,
    embed_to,
    fourier_mode,
    lp_norm,
    pointwise_product,
    random_band_limited,
    random_band_mixture,
    taylor_green,
    to_real,
    to_spectral,
    zero_field,
)
from lanslab.grid import Grid, kmag


def test_constant_field_transform(grid3d):
    F = to_spectral(constant_field(grid3d, [1.0, 1.0, 1.0]))
    zero = (slice(None),) + (0,) * grid3d.n
    assert np.allclose(F.coeffs[zero], 1.0)
    rest = F.coeffs.copy()
    rest[zero] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_cosine_mode_coefficients(grid3d):
    f = fourier_mode(grid3d, (1, 0, 0))
    F = to_spectral(f)
    assert F.coeffs[0, 1, 0, 0] == pytest.approx(0.5, abs=1e-14)
    assert F.coeffs[0, -1, 0, 0] == pytest.approx(0.5, abs=1e-14)
    assert abs(F.coeffs[0, 2, 0, 0]) < 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip(seed):
    grid = Grid(n=2, N=16)
    rng = np.random.default_rng(seed)
    f = VectorField(grid, rng.standard_normal((2,) + grid.shape))
    g = to_real(to_spectral(f))
    assert np.max(np.abs(g.data - f.data)) <= 1e-12 * max(
        1.0, np.max(np.abs(f.data))
    )


def test_spectrum_of_real_field_is_conjugate_symmetric(grid2d, rng):
    f = VectorField(grid2d, rng.standard_normal((2,) + grid2d.shape))
    coeffs = to_spectral(f).coeffs
    mirrored = coeffs  # c(-k) at index k: reverse each axis about index 0
    for ax in range(1, grid2d.n + 1):
        mirrored = np.flip(np.roll(mirrored, -1, axis=ax), axis=ax)
    assert np.max(np.abs(mirrored - np.conj(coeffs))) < 1e-12


def test_lp_norms_closed_forms(grid3d):
    one = constant_field(grid3d, [1.0])
    for p in (1, 2, 3.5, math.inf):
        assert lp_norm(one, p) == pytest.approx(1.0, abs=1e-13)
    cos = fourier_mode(grid3d, (1, 0, 0))
    assert lp_norm(cos, 2) == pytest.approx(1.0 / math.sqrt(2), abs=1e-13)
    assert lp_norm(cos, math.inf) == pytest.approx(1.0, abs=1e-13)


def test_lp_norm_complex_mode_unit(grid2d):
    # complex exponential has unit L^p norms under the normalized measure
    from lanslab.grid import coordinates

    x, y = coordinates(grid2d)
    z = np.exp(1j * (2 * x + y))[None]
    assert lp_norm(z, 2) == pytest.approx(1.0, abs=1e-13)
    assert lp_norm(z, math.inf) == pytest.approx(1.0, abs=1e-13)


def _lp_norm_reference(data, p):
    """lp_norm before its single-pass reduction: |x|^2 through np.abs, then
    the p-th power of the root, p = 2 included."""
    mag = np.sqrt(np.sum(np.abs(data) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_lp_norm_matches_its_two_pass_formula(grid3d, ncomp):
    rng = np.random.default_rng(40 + ncomp)
    shape = (ncomp,) + grid3d.shape
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # a strided view, as the blocks of block_samples are, and a plain array
    for real in (z.imag, np.ascontiguousarray(z.real)):
        for p in (1, 3, math.inf):
            assert lp_norm(real, p) == _lp_norm_reference(real, p)
        assert lp_norm(real, 2) == pytest.approx(_lp_norm_reference(real, 2), rel=1e-15, abs=0)
    for p in (1, 2, 3, math.inf):
        assert lp_norm(z, p) == _lp_norm_reference(z, p)


def test_lp_norm_rejects_bad_exponent(grid2d):
    with pytest.raises(ValueError):
        lp_norm(zero_field(grid2d), 0.5)


def test_band_limited_support_and_determinism(grid3d):
    f1 = random_band_limited(grid3d, j=2, seed=7)
    f2 = random_band_limited(grid3d, j=2, seed=7)
    assert np.array_equal(f1.data, f2.data)
    coeffs = to_spectral(f1).coeffs
    km = kmag(grid3d)
    outside = (km <= 2.0) | (km >= 8.0)
    assert np.max(np.abs(coeffs[:, outside])) < 1e-14
    inside = np.abs(coeffs[0]) > 1e-12
    assert inside.any()


def test_band_limited_rejects_unresolved_annulus(grid3d):
    with pytest.raises(ValueError):
        random_band_limited(grid3d, j=4, seed=0)


def test_taylor_green_divergence_free(grid3d):
    u = taylor_green(grid3d, amplitude=0.3)
    assert div_l2_residual(u) < 1e-13


def test_pointwise_product_scalar_vector(grid2d, rng):
    s = random_band_mixture(grid2d, seed=3)
    v = random_band_mixture(grid2d, seed=4, ncomp=2)
    fv = pointwise_product(s, v)
    assert fv.ncomp == 2
    assert np.array_equal(fv.data, dealias_array(grid2d, s.data[0] * v.data))


def test_pointwise_product_grid_mismatch(grid2d, grid3d):
    with pytest.raises(GridMismatchError):
        pointwise_product(zero_field(grid2d, 1), zero_field(grid3d, 1))


def test_embed_preserves_function_values(grid3d_small, grid3d):
    f = random_band_limited(grid3d_small, j=1, seed=5)
    g = embed_to(f, grid3d)
    # coarse samples are every other fine sample
    assert np.allclose(g.data[:, ::2, ::2, ::2], f.data, atol=1e-12)
    from lanslab.fields import l2_norm

    assert l2_norm(g) == pytest.approx(l2_norm(f), abs=1e-12)


def test_field_immutable(grid2d):
    f = zero_field(grid2d)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0
