"""Fourier-multiplier operators: Helmholtz inverse, fractional Laplacian,
divergence, Leray projection and the Stokes projector.

Every operator here is a constant-coefficient multiplier on the lattice, so
they commute exactly and preserve band limits.  Each takes a real field or
its spectrum and returns the same kind (`fields.like`); `divergence` always
returns real samples.  The Leray and Stokes projections are implemented as
genuinely different computations (direct orthogonal projection vs. solving
the filtered pressure problem) so their agreement on the torus can be used
as a cross-check rather than a tautology.
"""

import numpy as np

from .errors import GridMismatchError
from .fields import SpectralField, like, to_real, to_spectral
from .grid import kmag, ksq, ksq_safe, wavevectors


def helmholtz_inverse(f, alpha):
    """(1 - alpha^2 Lap)^{-1} f."""
    table = 1.0 / (1.0 + float(alpha) ** 2 * ksq(f.grid))
    return like(f, to_spectral(f).coeffs * table)


def lambda_power(f, a):
    """(-Lap)^{a/2} f for a >= 0 (kills the mean for a > 0; a = 0 is the
    identity).  Raises ValueError for a < 0, whose symbol is infinite at k = 0."""
    if a < 0:
        raise ValueError(f"order a must be >= 0, got {a}")
    return like(f, to_spectral(f).coeffs * kmag(f.grid) ** float(a))


def divergence(f):
    """Scalar divergence of a velocity field, returned as a 1-component field."""
    grid = f.grid
    if f.ncomp != grid.n:
        raise GridMismatchError("divergence needs one component per axis")
    kv = wavevectors(grid)
    coeffs = to_spectral(f).coeffs
    div_hat = np.sum(1j * kv * coeffs, axis=0, keepdims=True)
    return to_real(SpectralField(grid, div_hat))


def leray_project(f):
    """Orthogonal projection onto divergence-free fields:
    u_hat(k) <- u_hat(k) - k (k.u_hat) / |k|^2, mean mode untouched."""
    grid = f.grid
    F = to_spectral(f)
    if F.ncomp != grid.n:
        raise GridMismatchError("projection needs one component per axis")
    kv = wavevectors(grid)
    kdotu = np.sum(kv * F.coeffs, axis=0)
    proj = F.coeffs - kv * (kdotu / ksq_safe(grid))[None, ...]
    # k = 0: kdotu is 0 there only by cancellation; restore explicitly
    zero = (slice(None),) + (0,) * grid.n
    proj[zero] = F.coeffs[zero]
    return like(f, proj)


def stokes_project(f, alpha):
    """Projection through the filtered Stokes problem.

    Solves (1 - alpha^2 Lap) v + grad q = (1 - alpha^2 Lap) w for the
    pressure q mode by mode, then returns w - (1 - alpha^2 Lap)^{-1} grad q.
    Coincides with the Leray projection on the torus for every alpha; the
    pressure route keeps the computation independent of `leray_project`.
    """
    grid = f.grid
    F = to_spectral(f)
    if F.ncomp != grid.n:
        raise GridMismatchError("projection needs one component per axis")
    a2 = float(alpha) ** 2
    kv = wavevectors(grid)
    helm = 1.0 + a2 * ksq(grid)
    # div of (1 - a^2 Lap) w = 0 forces q_hat = -i (1 + a^2|k|^2)(k.w_hat)/|k|^2
    kdotw = np.sum(kv * F.coeffs, axis=0)
    q_hat = -1j * helm * kdotw / ksq_safe(grid)
    q_hat[(0,) * grid.n] = 0.0
    grad_q = 1j * kv * q_hat[None, ...]
    return like(f, F.coeffs - grad_q / helm[None, ...])
