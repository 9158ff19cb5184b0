"""Slow reference for the nonlinearity: `nonlinearity_V`, `_stress_hat`
and `dealias_array` as they were before transforms took real fields in
pairs (with the helpers they call).  Each real field gets its own complex
transform: 39 of N^n points per spectral call at n = 3.  The transforms
are scipy's, in lanslab's coefficient convention (norm="forward"), so the
reference does not run through the `lanslab._fft` wrappers it checks.
`tests/test_dynamics.py` cross-checks the paired kernels against it.
"""

import numpy as np
import scipy.fft as sfft

from lanslab.errors import GridMismatchError
from lanslab.fields import like, to_real, to_spectral
from lanslab.grid import dealias_mask, ksq, wavevectors


def fftn(a, nax):
    return sfft.fftn(a, axes=tuple(range(-nax, 0)), norm="forward")


def ifftn(a, nax):
    return sfft.ifftn(a, axes=tuple(range(-nax, 0)), norm="forward")


def dealias_array(grid, data):
    """Apply the 2/3-rule truncation to real sample arrays."""
    mask = dealias_mask(grid)
    coeffs = fftn(data, grid.n) * mask
    return np.real(ifftn(coeffs, grid.n))


def _spectrum(u, what):
    """The spectrum of the velocity `u`."""
    if u.ncomp != u.grid.n:
        raise GridMismatchError(f"{what} needs a velocity field")
    return to_spectral(u).coeffs


def _stress_hat(U, grid, a2):
    """tau_hat, shape (n, n, N, ..., N), from the velocity spectrum U.

    The product Def . Om is formed from the spectral gradient, transformed
    once and filtered by mask alpha^2/(1 + alpha^2 |k|^2) in spectral
    space: 2 n^2 transforms of N^n points.
    """
    n, shape = grid.n, grid.shape
    ik = 1j * wavevectors(grid)
    jac = np.real(ifftn(U[:, None] * ik[None], n))  # J[i, j] = d_j u_i
    twice_def = jac + jac.swapaxes(0, 1)
    jac -= jac.swapaxes(0, 1)  # Om; numpy buffers the overlapping operands
    prod = np.einsum("ik...,kj...->ij...", twice_def, jac).reshape((-1,) + shape)
    del jac, twice_def
    total = fftn(prod, n).reshape((n, n) + shape)
    del prod
    total *= (0.5 * a2) * dealias_mask(grid) / (1.0 + a2 * ksq(grid))
    return total


def _divergence_like(u, tensor_hat):
    """(div T)_i = sum_j d_j T_ij from T_hat, of the same kind as u."""
    grid = u.grid
    vhat = np.einsum("j...,ij...->i...", 1j * wavevectors(grid), tensor_hat)
    return like(u, vhat)


def reynolds_stress_divergence(u, alpha):
    """div tau(u) as a velocity-shaped field.

    A real field takes n + 2 n^2 + n transforms of N^n points (24 at n = 3).
    """
    U = _spectrum(u, "stress")
    return _divergence_like(u, _stress_hat(U, u.grid, float(alpha) ** 2))


def nonlinearity_V(u, alpha):
    """Unprojected nonlinearity div(u (x) u) + div tau(u), in one pass.

    The flux u (x) u is formed in physical space and dealiased there; the
    stress spectrum comes from `_stress_hat`.  The two n x n spectra are
    summed and contracted with ik once.  Spectral input takes
    n + 3 n(n+1)/2 + 2 n^2 transforms of N^n points (39 at n = 3): u, the
    flux dealias round trip and transform on the upper triangle of the
    symmetric flux, the gradient and the stress transform.

    Bilinear in u at alpha = 0: V(lam u) = lam^2 V(u) exactly.
    """
    grid = u.grid
    n = grid.n
    U = _spectrum(u, "nonlinearity")
    phys = to_real(u).data
    # u (x) u is symmetric: transform its upper triangle only
    upper = np.triu_indices(n)
    flux = phys[upper[0]] * phys[upper[1]]
    flux_hat = fftn(dealias_array(grid, flux), n)
    del flux
    slot = np.empty((n, n), dtype=int)
    slot[upper] = slot.T[upper] = np.arange(len(upper[0]))
    a2 = float(alpha) ** 2
    if a2 != 0.0:
        total = _stress_hat(U, grid, a2)
        for i, j in np.ndindex(n, n):
            total[i, j] += flux_hat[slot[i, j]]
    else:
        total = flux_hat[slot]
    del flux_hat
    return _divergence_like(u, total)
