"""Thin wrappers around scipy.fft with a process-wide worker count, and
the one owner of lanslab's coefficient convention: forward transforms
return u_hat(k) = N^-n sum_x u(x) e^{-i k.x} (u_hat(0) is the mean) and
inverse transforms the plain Fourier sum u(x) = sum_k u_hat(k) e^{i k.x},
so no caller rescales by N^n.  That is scipy's norm="forward"; N^n is a
power of two, so u_hat is bitwise the unnormalised transform over N^n.

All transforms act on the trailing spatial axes so leading axes batch
components and dyadic blocks in a single call.  The worker count is a
performance knob only; results are bitwise independent of it.
`overwrite=True` lets a c2c transform reuse its complex input's buffer.
Below the wrappers is the pairing rule that puts two real fields in one
c2c transform; it transforms nothing itself.
"""

import os

import numpy as np
import scipy.fft as _sfft

from .errors import ConfigError

_workers = 1


def set_workers(k):
    """Set the FFT worker count (1 = serial); k < 1 raises ValueError."""
    global _workers
    if int(k) < 1:
        raise ValueError(f"FFT worker count must be a positive integer, got {k!r}")
    _workers = int(k)


def get_workers():
    return _workers


def workers_from_env():
    """The LANS_LAB_THREADS worker count, 1 (serial) when it is unset or
    empty; any other value that is not a positive integer raises
    ConfigError naming the variable."""
    raw = os.environ.get("LANS_LAB_THREADS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LANS_LAB_THREADS={raw!r} is not a positive integer")
    return workers


def fftn(a, nax, *, overwrite=False):
    return _sfft.fftn(a, axes=range(-nax, 0), norm="forward", overwrite_x=overwrite, workers=_workers)


def ifftn(a, nax, *, overwrite=False):
    return _sfft.ifftn(a, axes=range(-nax, 0), norm="forward", overwrite_x=overwrite, workers=_workers)


def rfftn(a, nax):
    return _sfft.rfftn(a, axes=range(-nax, 0), norm="forward", workers=_workers)


def irfftn(a, shape):
    return _sfft.irfftn(a, s=shape, axes=range(-len(shape), 0), norm="forward", workers=_workers)


# Two real fields per c2c transform (Press et al., Numerical Recipes,
# sec. 12.3).  A paired stack of h complex slots holds up to 2h real
# fields: field f is the real part of slot f for f < h and the imaginary
# part of slot f - h otherwise.  The inverse of A + iB for Hermitian
# spectra A and B is a + ib; the forward transform Z of x + iy gives
# X(k) = (Z(k) + conj Z(-k))/2 and Y(k) = (Z(k) - conj Z(-k))/(2i), and a
# real, even multiplier acts on x and y alone.


def pack(data, out=None):
    """The real fields `data` (count, ...) as a paired stack of
    ceil(count/2) slots, written into `out` (a stack or a slab view of
    one) or into a new stack whose unused imaginary half is zero."""
    half = (len(data) + 1) // 2
    if out is None:
        out = np.zeros((half,) + data.shape[1:], dtype=complex)
    out.real[:] = data[:half]
    out.imag[: len(data) - half] = data[half:]
    return out


def unpack(z, count):
    """The first `count` real fields of the paired stack `z`, one array."""
    return np.concatenate([z.real[:count], z.imag[: max(count - len(z), 0)]])


def unpack_spectra(Z, count, modes, mirror):
    """Spectra of the `count` real fields whose paired stack has the
    forward transforms `Z`, at the flat lattice indices `modes` only;
    `mirror` holds the flat indices of -k in the same order.  Shape
    (count, len(modes))."""
    half = len(Z)
    flat = Z.reshape(half, -1)
    at_k = flat[:, modes]
    at_minus_k = np.conjugate(flat[:, mirror])
    out = np.empty((count, len(modes)), dtype=complex)
    np.add(at_k, at_minus_k, out=out[:half])
    out[:half] *= 0.5
    np.subtract(at_k[: count - half], at_minus_k[: count - half], out=out[half:])
    out[half:] *= -0.5j
    return out
