"""Filtered fluid dynamics building blocks: Reynolds stress, momentum-flux
nonlinearity and the heat semigroup.

Conventions: the velocity Jacobian is J[i, j] = d_j u_i, the deformation
tensor is Def(u) = (J + J^T)/2 and the rotation tensor is taken unhalved,
Om(u) = J - J^T.  The filtered stress is

    tau(u) = alpha^2 (1 - alpha^2 Lap)^{-1} [ Def(u) . Om(u) ],

which for the shear u = (sin y, 0, 0) at alpha = 1 gives
div tau = (0, -sin(2y)/10, 0).  Setting alpha = 0 removes the stress and
the dynamics reduce to incompressible Navier-Stokes.
"""

import numpy as np

from . import _fft
from .errors import GridMismatchError
from .fields import SpectralField, VectorField, dealias_array, to_real, to_spectral
from .grid import dealias_mask, ksq, wavevectors
from .operators import divergence_tensor, gradient_tensor


def reynolds_stress(u, alpha):
    """Filtered Reynolds stress tensor, samples of shape (n, n, N, ..., N).

    The tensor product is dealiased before the Helmholtz inversion.
    """
    grid = u.grid
    if u.ncomp != grid.n:
        raise GridMismatchError("stress needs a velocity field")
    a2 = float(alpha) ** 2
    if a2 == 0.0:
        return np.zeros((grid.n, grid.n) + grid.shape)
    jac = gradient_tensor(u)
    deform = 0.5 * (jac + np.swapaxes(jac, 0, 1))
    rotation = jac - np.swapaxes(jac, 0, 1)
    prod = np.einsum("ik...,kj...->ij...", deform, rotation)
    flat = dealias_array(grid, prod.reshape((-1,) + grid.shape))
    prod_hat = _fft.fftn(flat, grid.n) / grid.npoints
    tau_hat = a2 * prod_hat / (1.0 + a2 * ksq(grid))
    tau = np.real(_fft.ifftn(tau_hat * grid.npoints, grid.n))
    return tau.reshape(prod.shape)


def reynolds_stress_divergence(u, alpha):
    """div tau(u) as a velocity-shaped field."""
    if float(alpha) == 0.0:
        return VectorField(u.grid, np.zeros_like(u.data))
    return divergence_tensor(u.grid, reynolds_stress(u, alpha))


def nonlinearity_V(u, alpha):
    """Unprojected nonlinearity div(u (x) u) + div tau(u), in one pass.

    Accepts a real field or its spectrum and returns the matching kind, as
    `apply_multiplier` does.  The flux u (x) u is formed in physical space
    and dealiased there; the stress product Def . Om is formed from the
    spectral gradient and filtered by mask alpha^2/(1 + alpha^2 |k|^2) in
    spectral space.  The two n x n spectra are summed and contracted with
    ik once.  Spectral input takes n + 3 n(n+1)/2 + 2 n^2 transforms of N^n
    points (39 at n = 3): u, the flux dealias round trip and transform on
    the upper triangle of the symmetric flux, the gradient and the stress
    transform.

    Bilinear in u at alpha = 0: V(lam u) = lam^2 V(u) exactly.
    """
    grid = u.grid
    if u.ncomp != grid.n:
        raise GridMismatchError("nonlinearity needs a velocity field")
    n, shape = grid.n, grid.shape
    spectral_in = isinstance(u, SpectralField)
    # scaled by N^n so that ifftn returns samples (exact: a power of two)
    U = to_spectral(u).coeffs * grid.npoints
    phys = np.real(_fft.ifftn(U, n)) if spectral_in else u.data
    # u (x) u is symmetric: transform its upper triangle only
    upper = np.triu_indices(n)
    flux = phys[upper[0]] * phys[upper[1]]
    flux_hat = _fft.fftn(dealias_array(grid, flux), n)
    del flux
    slot = np.empty((n, n), dtype=int)
    slot[upper] = slot.T[upper] = np.arange(len(upper[0]))
    ik = 1j * wavevectors(grid)
    a2 = float(alpha) ** 2
    if a2 != 0.0:
        jac = np.real(_fft.ifftn(U[:, None] * ik[None], n))  # J[i, j] = d_j u_i
        twice_def = jac + jac.swapaxes(0, 1)
        jac -= jac.swapaxes(0, 1)  # Om; numpy buffers the overlapping operands
        prod = np.einsum("ik...,kj...->ij...", twice_def, jac).reshape((-1,) + shape)
        del jac, twice_def
        total = _fft.fftn(prod, n).reshape((n, n) + shape)
        del prod
        total *= (0.5 * a2) * dealias_mask(grid) / (1.0 + a2 * ksq(grid))
        for i, j in np.ndindex(n, n):
            total[i, j] += flux_hat[slot[i, j]]
    else:
        total = flux_hat[slot]
    del flux_hat
    vhat = np.einsum("j...,ij...->i...", ik, total)
    vhat /= grid.npoints
    out = SpectralField(grid, vhat)
    return out if spectral_in else to_real(out)


def semigroup_apply(phi, t, nu=1.0):
    """Heat semigroup e^{t nu Lap} phi (multiplier e^{-nu t |k|^2})."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    grid = phi.grid
    factor = np.exp(-float(nu) * float(t) * ksq(grid))
    spectral_in = isinstance(phi, SpectralField)
    F = phi if spectral_in else to_spectral(phi)
    out = SpectralField(grid, F.coeffs * factor)
    return out if spectral_in else to_real(out)
