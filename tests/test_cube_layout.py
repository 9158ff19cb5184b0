"""The one sub-lattice layout: the 2/3 rule's cube of `lanslab.grid`.

The stepper's state, Picard's correction and forcing, the nonlinearity's
unpacked spectra and `DyadicFamily.kept_besov_norms` all hold a real
field's spectrum on the cube `_fft.rfftn` returns.  These tests hold
`grid.cube_modes` to that transform's order, `grid.on_cube` to the masked
full spectrum, the weights to Parseval and the stepper's tables to the
meshgrid construction they replaced.
"""

import numpy as np
import pytest

from lanslab import _fft
from lanslab.grid import (
    Grid,
    at_cube,
    cube_modes,
    cube_weights,
    dealias_mask,
    on_cube,
    wavevectors,
)
from lanslab.solver import SpectralStepper
from stepper_reference import meshgrid_tables

GRIDS = [(2, 8), (2, 16), (2, 32), (3, 8), (3, 16), (3, 32)]


def _samples(grid, seed, ncomp=2):
    return np.random.default_rng(seed).standard_normal((ncomp,) + grid.shape)


def _mirrored(spectrum, n):
    """conj F(-k) at every k of the lattice spectra `spectrum`."""
    axes = tuple(range(-n, 0))
    return np.roll(np.conjugate(np.flip(spectrum, axis=axes)), 1, axis=axes)


@pytest.mark.parametrize("n, N", GRIDS)
def test_cube_modes_follow_the_rfftn_order(n, N):
    grid = Grid(n, N)
    x = _samples(grid, 10 * n + N)
    want = _fft.rfftn(x, n)
    got = at_cube(grid, _fft.fftn(x, n))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    modes, mirror = cube_modes(grid)
    kv = wavevectors(grid).reshape(n, -1)
    assert np.array_equal(kv[:, mirror], -kv[:, modes])
    # the cube and its mirror cover the kept modes, meeting on k_n = 0
    kept = np.flatnonzero(dealias_mask(grid))
    assert set(np.union1d(modes.ravel(), mirror.ravel())) == set(kept)
    assert np.all(kv[-1, modes] >= 0) and len(np.unique(modes)) == modes.size


@pytest.mark.parametrize("n, N", GRIDS)
def test_on_cube_completes_the_masked_spectrum(n, N):
    grid = Grid(n, N)
    x = _samples(grid, 20 * n + N)
    full = on_cube(grid, _fft.rfftn(x, n))
    want = _fft.fftn(x, n) * dealias_mask(grid)
    assert np.max(np.abs(full - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(full, _mirrored(full, n))  # exactly Hermitian
    # a Hermitian cube spectrum comes back unchanged, bitwise
    cube = at_cube(grid, full)
    assert np.array_equal(at_cube(grid, on_cube(grid, cube)), cube)


@pytest.mark.parametrize("n, N", GRIDS)
def test_cube_weights_give_parseval(n, N):
    grid = Grid(n, N)
    x = _samples(grid, 30 * n + N)
    cube = _fft.rfftn(x, n)
    weighted = np.sum(cube_weights(grid) * np.abs(cube) ** 2)
    want = np.sum(np.abs(_fft.fftn(x, n) * dealias_mask(grid)) ** 2)
    assert weighted == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n, N", GRIDS)
def test_stepper_tables_are_the_meshgrid_tables(n, N, alpha):
    grid = Grid(n, N)
    stepper = SpectralStepper(grid, alpha, 0.7, 3e-3)
    for name, want in meshgrid_tables(grid, alpha, 0.7, 3e-3).items():
        got = getattr(stepper, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
