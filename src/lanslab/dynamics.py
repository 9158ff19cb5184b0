"""Filtered fluid dynamics building blocks: the divergence of the filtered
stress, the momentum-flux nonlinearity and the heat semigroup.

Conventions: the velocity Jacobian is J[i, j] = d_j u_i, the deformation
tensor is Def(u) = (J + J^T)/2 and the rotation tensor is taken unhalved,
Om(u) = J - J^T.  The filtered stress is

    tau(u) = alpha^2 (1 - alpha^2 Lap)^{-1} [ Def(u) . Om(u) ],

which for the shear u = (sin y, 0, 0) at alpha = 1 gives
div tau = (0, -sin(2y)/10, 0).  Setting alpha = 0 removes the stress and
the dynamics reduce to incompressible Navier-Stokes.

Every operator takes a real field or its spectrum and returns the same
kind (`fields.like`).  tau is computed in one place, `_stress_hat`, and
only its divergence leaves this module.
"""

import numpy as np

from . import _fft
from .errors import GridMismatchError
from .fields import dealias_array, like, to_spectral
from .grid import kept_modes, ksq, on_kept, wavevectors


def _velocity_spectrum(u, what):
    if u.ncomp != u.grid.n:
        raise GridMismatchError(f"{what} needs a velocity field")
    return to_spectral(u).coeffs


def _slabs(shape):
    """First-axis slices of about 4096 points: slab-wise products stay in cache."""
    step = max(1, 4096 // int(np.prod(shape[1:])))
    return [slice(a, a + step) for a in range(0, shape[0], step)]


def _stress_product(jac, out):
    """`out` = (J + J^T)(J - J^T) = 2 Def . Om from the Jacobian samples
    `jac` (n, n, ...), which is left holding J - J^T."""
    twice_def = jac + jac.swapaxes(0, 1)
    for i in range(len(jac)):  # J <- J - J^T in place
        jac[i, i] = 0.0
        for j in range(i + 1, len(jac)):
            np.subtract(jac[i, j], jac[j, i], out=jac[i, j])
            np.negative(jac[i, j], out=jac[j, i])
    return np.einsum("ik...,kj...->ij...", twice_def, jac, out=out)


def _samples(coeffs, grid, terms):
    """Real samples of u_i (j None) or d_j u_i for each (i, j) in `terms`,
    as a paired stack (`_fft.pack`): ceil(len(terms)/2) inverses of N^n
    points.

    Each slot is A + iB for the Hermitian spectra A and B of two terms.
    The derivative table i k_j has its Nyquist wavenumber set to 0: there
    i k_j u_hat is anti-Hermitian, and the real part of a separate inverse
    drops it.
    """
    n = grid.n
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    k[grid.N // 2] = 0.0
    scales = [(1j * k).reshape((-1,) + (1,) * (n - 1 - j)) for j in range(n)]

    def spectrum(term, out):
        i, j = term
        np.multiply(coeffs[i], 1.0 if j is None else scales[j], out=out)

    half = (len(terms) + 1) // 2
    stack = np.empty((half,) + grid.shape, dtype=complex)
    spare = np.empty(grid.shape, dtype=complex)
    for slot in range(half):
        spectrum(terms[slot], stack[slot])
        if slot + half < len(terms):
            spectrum(terms[slot + half], spare)
            spare *= 1j
            stack[slot] += spare
    return _fft.ifftn(stack, n, overwrite=True)


def _stress_hat(coeffs, grid, a2, with_velocity):
    """tau_hat on the kept modes (`grid.kept_modes`), shape (n, n, M),
    from the velocity spectrum; with the velocity samples (n, N, ..., N)
    when `with_velocity`, else None.

    One paired inverse gives J[i, j] = d_j u_i (and u).  The product
    Def . Om is formed slab by slab straight into a paired stack, which is
    transformed in place and unpacked on the kept modes only, where the
    filter alpha^2/(1 + alpha^2 |k|^2) is applied; off them the 2/3 rule
    zeroes tau.  The product of a symmetric and an antisymmetric matrix is
    trace free, so its last diagonal entry is not transformed: tau_nn =
    -sum_{i<n} tau_ii.  At n = 3: 5 inverses (6 with u) and 4 forward
    transforms of N^n points.
    """
    n, shape = grid.n, grid.shape
    velocity = [(i, None) for i in range(n)] if with_velocity else []
    samples = _samples(coeffs, grid, velocity + [(i, j) for i, j in np.ndindex(n, n)])
    first = len(velocity)
    u = _fft.unpack(samples, n) if with_velocity else None
    # every product but the last diagonal one, (n, n) in row-major order
    count = n * n - 1
    prod = np.zeros(((count + 1) // 2,) + shape, dtype=complex)
    for part in _slabs(shape):
        jac = _fft.unpack(samples[:, part], first + n * n)[first:]
        jac = jac.reshape((n, n) + jac.shape[1:])  # J[i, j] = d_j u_i
        slab_prod = _stress_product(jac, np.empty_like(jac))
        _fft.pack(slab_prod.reshape((n * n,) + jac.shape[2:])[:count], prod[:, part])
    del samples, jac, slab_prod
    prod = _fft.fftn(prod, n, overwrite=True)
    kept, mirror = kept_modes(grid)
    total = np.empty((n * n, kept.size), dtype=complex)
    total[:count] = _fft.unpack_spectra(prod, count, kept, mirror)
    del prod
    np.negative(np.sum(total[:count : n + 1], axis=0), out=total[count])  # trace free
    total *= (0.5 * a2) / (1.0 + a2 * ksq(grid).reshape(-1)[kept])
    return total.reshape(n, n, -1), u


def _divergence_like(u, tensor_hat):
    """(div T)_i = sum_j d_j T_ij from T_hat on the kept modes, of the
    same kind as u; zero off the kept modes."""
    grid = u.grid
    kept, _ = kept_modes(grid)
    ik = 1j * wavevectors(grid).reshape(grid.n, -1)[:, kept]
    return like(u, on_kept(grid, np.einsum("jm,ijm->im", ik, tensor_hat)))


def reynolds_stress_divergence(u, alpha):
    """div tau(u) as a velocity-shaped field.

    A real field takes n + ceil(n^2/2) + floor(n^2/2) + n transforms of
    N^n points (15 at n = 3): u, the paired gradient and trace-free stress
    product, the result.
    """
    grid = u.grid
    coeffs = _velocity_spectrum(u, "stress")
    total, _ = _stress_hat(coeffs, grid, float(alpha) ** 2, with_velocity=False)
    return _divergence_like(u, total)


def nonlinearity_V(u, alpha):
    """Unprojected nonlinearity div(u (x) u) + div tau(u), in one pass.

    Every transform takes two real fields (`_fft.pack`).  One paired
    inverse gives u and, at alpha > 0, its gradient, which `_stress_hat`
    turns into the stress spectrum.  The flux u (x) u is formed in
    physical space on its upper triangle, dealiased there by
    `dealias_array` and transformed; both spectra are unpacked on the kept
    modes only, summed and contracted with ik once, so the result is zero
    off the 2/3 mask.  Spectral input at n = 3 takes 19 transforms of N^n
    points (11 at alpha = 0): u and J (6), the stress product (4) and the
    flux's dealias round trip and transform (3 + 3 + 3).

    Bilinear in u at alpha = 0: V(lam u) = lam^2 V(u) exactly.
    """
    grid = u.grid
    n = grid.n
    coeffs = _velocity_spectrum(u, "nonlinearity")
    a2 = float(alpha) ** 2
    if a2 != 0.0:
        total, phys = _stress_hat(coeffs, grid, a2, with_velocity=True)
    else:
        phys = _fft.unpack(_samples(coeffs, grid, [(i, None) for i in range(n)]), n)
    # u (x) u is symmetric: transform its upper triangle only
    upper = np.triu_indices(n)
    flux = np.empty((len(upper[0]),) + grid.shape)
    for row, i, j in zip(flux, *upper):
        np.multiply(phys[i], phys[j], out=row)
    del phys
    flux = dealias_array(grid, flux)
    kept, mirror = kept_modes(grid)
    flux_hat = _fft.unpack_spectra(
        _fft.fftn(_fft.pack(flux), n, overwrite=True), len(flux), kept, mirror
    )
    del flux
    slot = np.empty((n, n), dtype=int)
    slot[upper] = slot.T[upper] = np.arange(len(upper[0]))
    if a2 != 0.0:
        for i, j in np.ndindex(n, n):
            total[i, j] += flux_hat[slot[i, j]]
    else:
        total = flux_hat[slot]
    del flux_hat
    return _divergence_like(u, total)


def semigroup_apply(phi, t, nu=1.0):
    """Heat semigroup e^{t nu Lap} phi (multiplier e^{-nu t |k|^2})."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    factor = np.exp(-float(nu) * float(t) * ksq(phi.grid))
    return like(phi, to_spectral(phi).coeffs * factor)
