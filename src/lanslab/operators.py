"""Fourier-multiplier operators: derivatives, Helmholtz inverse, fractional
Laplacian, Leray projection and the Stokes projector.

Every operator here is a constant-coefficient multiplier on the lattice, so
they commute exactly and preserve band limits.  The Leray and Stokes
projections are implemented as genuinely different computations (direct
orthogonal projection vs. solving the filtered pressure problem) so their
agreement on the torus can be used as a cross-check rather than a tautology.
"""

from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import GridMismatchError
from .fields import SpectralField, to_real, to_spectral
from .grid import ksq, ksq_safe, wavevectors


@dataclass(frozen=True)
class MultiplierSymbol:
    """Scalar Fourier symbol tabulated on the full lattice."""

    grid: object
    table: np.ndarray  # (N, ..., N) real or complex

    def __post_init__(self):
        arr = np.asarray(self.table)
        if arr.shape != self.grid.shape:
            raise GridMismatchError("symbol table does not match grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("symbol table must be bounded on the lattice")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)


def laplacian_symbol(grid):
    return MultiplierSymbol(grid, -ksq(grid))


def helmholtz_symbol(grid, alpha):
    """Symbol of (1 - alpha^2 Lap)^{-1}; everywhere positive."""
    return MultiplierSymbol(grid, 1.0 / (1.0 + float(alpha) ** 2 * ksq(grid)))


def lambda_symbol(grid, a):
    """Symbol of (-Lap)^{a/2}; a=0 is the identity."""
    from .grid import kmag

    if a == 0:
        return MultiplierSymbol(grid, np.ones(grid.shape))
    return MultiplierSymbol(grid, kmag(grid) ** float(a))


def apply_multiplier(symbol, f):
    """Coefficientwise product; accepts real or spectral input and returns
    the matching kind.  Real-valued even symbols preserve reality."""
    if symbol.grid != f.grid:
        raise GridMismatchError("symbol and field live on different grids")
    if isinstance(f, SpectralField):
        return SpectralField(f.grid, f.coeffs * symbol.table)
    F = to_spectral(f)
    return to_real(SpectralField(f.grid, F.coeffs * symbol.table))


def helmholtz_inverse(f, alpha):
    """(1 - alpha^2 Lap)^{-1} f."""
    return apply_multiplier(helmholtz_symbol(f.grid, alpha), f)


def lambda_power(f, a):
    """(-Lap)^{a/2} f (kills the mean for a > 0)."""
    return apply_multiplier(lambda_symbol(f.grid, a), f)


def gradient_tensor(f):
    """Jacobian samples J[i, j] = d_j u_i, shape (ncomp, n, N, ..., N)."""
    grid = f.grid
    kv = wavevectors(grid)
    coeffs = to_spectral(f).coeffs
    jac = 1j * kv[None, :, ...] * coeffs[:, None, ...]
    flat = jac.reshape((-1,) + grid.shape)
    return np.real(_fft.ifftn(flat * grid.npoints, grid.n)).reshape(jac.shape)


def divergence(f):
    """Scalar divergence of a velocity field, returned as a 1-component field."""
    grid = f.grid
    if f.ncomp != grid.n:
        raise GridMismatchError("divergence needs one component per axis")
    kv = wavevectors(grid)
    coeffs = to_spectral(f).coeffs
    div_hat = np.sum(1j * kv * coeffs, axis=0, keepdims=True)
    return to_real(SpectralField(grid, div_hat))


def divergence_tensor(grid, tensor):
    """(div T)_i = sum_j d_j T_ij for tensor samples of shape (n, n, ...)."""
    kv = wavevectors(grid)
    flat = tensor.reshape((-1,) + grid.shape)
    t_hat = (_fft.fftn(flat, grid.n) / grid.npoints).reshape(tensor.shape)
    div_hat = np.sum(1j * kv[None, ...] * t_hat, axis=1)
    return to_real(SpectralField(grid, div_hat))


def div_l2_residual(f):
    """||div u||_2 normalized by ||u||_2 (0 for the zero field)."""
    from .fields import l2_norm

    nrm = l2_norm(f)
    if nrm == 0.0:
        return 0.0
    return l2_norm(divergence(f)) / nrm


def leray_project(f):
    """Orthogonal projection onto divergence-free fields:
    u_hat(k) <- u_hat(k) - k (k.u_hat) / |k|^2, mean mode untouched."""
    grid = f.grid
    spectral_in = isinstance(f, SpectralField)
    F = f if spectral_in else to_spectral(f)
    if F.ncomp != grid.n:
        raise GridMismatchError("projection needs one component per axis")
    kv = wavevectors(grid)
    kdotu = np.sum(kv * F.coeffs, axis=0)
    proj = F.coeffs - kv * (kdotu / ksq_safe(grid))[None, ...]
    # k = 0: kdotu is 0 there only by cancellation; restore explicitly
    zero = (slice(None),) + (0,) * grid.n
    proj[zero] = F.coeffs[zero]
    out = SpectralField(grid, proj)
    return out if spectral_in else to_real(out)


def stokes_project(f, alpha):
    """Projection through the filtered Stokes problem.

    Solves (1 - alpha^2 Lap) v + grad q = (1 - alpha^2 Lap) w for the
    pressure q mode by mode, then returns w - (1 - alpha^2 Lap)^{-1} grad q.
    Coincides with the Leray projection on the torus for every alpha; the
    pressure route keeps the computation independent of `leray_project`.
    """
    grid = f.grid
    spectral_in = isinstance(f, SpectralField)
    F = f if spectral_in else to_spectral(f)
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
    proj = F.coeffs - grad_q / helm[None, ...]
    out = SpectralField(grid, proj)
    return out if spectral_in else to_real(out)
