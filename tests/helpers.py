"""Field generators and diagnostics that only the tests use."""

import numpy as np

from lanslab.errors import GridMismatchError
from lanslab.fields import (
    SpectralField,
    VectorField,
    l2_norm,
    spectral_mask_noise,
    to_real,
    to_spectral,
)
from lanslab.grid import kmag, wavevectors


def constant_field(grid, values):
    """The field equal to `values` (one per component) everywhere."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    data = np.broadcast_to(
        values.reshape((-1,) + (1,) * grid.n), (values.size,) + grid.shape
    ).copy()
    return VectorField(grid, data)


def random_low_pass(grid, kmax, seed, ncomp=1):
    """Random field with spectrum in |k| <= kmax (mean removed)."""
    km = kmag(grid)
    mask = (km <= float(kmax)) & (km > 0)
    return spectral_mask_noise(grid, mask, seed, ncomp)


def divergence(f):
    """Scalar divergence of a velocity field, returned as a 1-component field."""
    grid = f.grid
    if f.ncomp != grid.n:
        raise GridMismatchError("divergence needs one component per axis")
    kv = wavevectors(grid)
    coeffs = to_spectral(f).coeffs
    div_hat = np.sum(1j * kv * coeffs, axis=0, keepdims=True)
    return to_real(SpectralField(grid, div_hat))


def div_l2_residual(f):
    """||div u||_2 normalized by ||u||_2 (0 for the zero field)."""
    nrm = l2_norm(f)
    if nrm == 0.0:
        return 0.0
    return l2_norm(divergence(f)) / nrm
