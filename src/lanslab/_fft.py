"""lanslab's four transforms, made by scipy's compiled pocketfft
extension with a process-wide worker count, and the one owner of
lanslab's coefficient convention: forward transforms return
u_hat(k) = N^-n sum_x u(x) e^{-i k.x} (u_hat(0) is the mean) and inverse
transforms the plain Fourier sum u(x) = sum_k u_hat(k) e^{i k.x}, so no
caller rescales by N^n.  That is scipy's norm="forward"; N^n is a power of
two, so u_hat is bitwise the unnormalised transform over N^n.

The extension (`scipy/fft/_pocketfft/pypocketfft*.so`) is loaded from its
file, not through `import scipy.fft`, whose Python layer (array-API
dispatch, scipy.special through fftlog) is most of lanslab's start-up and
none of its work.  `fftn` and `ifftn` make the `c2c` call that scipy.fft's
functions of that name make for the same arguments, so results are
bitwise scipy.fft's.

All transforms act on the trailing spatial axes so leading axes batch
components and dyadic blocks in a single call.  The worker count is a
performance knob only; results are bitwise independent of it.
`overwrite=True` lets a c2c transform reuse its complex input's buffer.

The real transforms live on the 2/3 rule's cube |k_i| <= N//3 (Orszag
1971): `rfftn` returns the spectrum there and `irfftn` takes it, zero
beyond.  The cube holds 2 (N//3) + 1 modes in fft order (k = 0..N//3, then
-N//3..-1) along each full axis and N//3 + 1 along the last.  One r2c (c2r)
pass runs along the last axis and c2c passes only on the lines that reach
the cube or carry data (FFT pruning, Markel 1971).  Each forward pass scales
by its own 1/n, exactly as N is a power of two, so results are bitwise
scipy.fft's `rfftn` on the cube, or `irfftn` of the zero-padded cube.
Below the wrappers is the pairing rule that puts two real fields in one
c2c transform; it transforms nothing itself.
"""

import importlib.machinery
import importlib.util
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError

# The extension's own name, so that a later `import scipy.fft` finds this
# module in sys.modules and reuses it instead of initialising it again.
_PFFT_NAME = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    if _PFFT_NAME in sys.modules:
        return sys.modules[_PFFT_NAME]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("lanslab needs scipy for its pocketfft extension; scipy is not installed")
    where = Path(scipy_spec.submodule_search_locations[0]) / "fft" / "_pocketfft"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = where / ("pypocketfft" + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy's pocketfft extension (pypocketfft*.so) is not in {where}")
    spec = importlib.util.spec_from_file_location(_PFFT_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_PFFT_NAME] = module
    spec.loader.exec_module(module)
    return module


_pfft = _load_pocketfft()
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


# pocketfft's normalisation codes for norm="forward": the forward
# transform scales by 1/N^n (code 2), the inverse not at all (code 0).
_FORWARD, _INVERSE = 2, 0


def _axes(a, nax):
    return tuple(range(a.ndim - nax, a.ndim))


def fftn(a, nax, *, overwrite=False):
    out = a if overwrite and a.dtype.kind == "c" else None
    return _pfft.c2c(a, _axes(a, nax), True, _FORWARD, out, _workers)


def ifftn(a, nax, *, overwrite=False):
    out = a if overwrite and a.dtype.kind == "c" else None
    return _pfft.c2c(a, _axes(a, nax), False, _INVERSE, out, _workers)


def rfftn(a, nax):
    """The spectra of the real fields `a` on the cube of their trailing
    `nax` axes."""
    first, kc = a.ndim - nax, a.shape[-1] // 3
    ends = (np.s_[: kc + 1], np.s_[-kc:])  # k = 0..kc and -kc..-1, in lattice and cube alike
    half = _pfft.r2c(a, (a.ndim - 1,), True, _FORWARD, None, _workers)[..., : kc + 1]
    for i in range(nax - 1):  # along axis first + i, the cube's lines of the axes before it
        for before in itertools.product(ends, repeat=i):
            view = half[(..., *before) + (slice(None),) * (nax - i)]
            _pfft.c2c(view, (first + i,), True, _FORWARD, view, _workers)
    out = np.empty(a.shape[:first] + (2 * kc + 1,) * (nax - 1) + (kc + 1,), complex)
    for block in itertools.product(ends, repeat=nax - 1):
        out[(..., *block, slice(None))] = half[(..., *block, slice(None))]
    return out


def irfftn(a, shape):
    """The real fields on the grid `shape` whose spectra on its cube are
    `a`; the leading extents of `shape` are those of a's trailing axes."""
    nax, N = len(shape), shape[-1]
    first, kc = a.ndim - nax, N // 3
    ends = (np.s_[: kc + 1], np.s_[-kc:])
    full = np.zeros(a.shape[:first] + shape[:-1] + (N // 2 + 1,), complex)
    half = full[..., : kc + 1]
    for block in itertools.product(ends, repeat=nax - 1):
        half[(..., *block, slice(None))] = a[(..., *block, slice(None))]
    for i in range(nax - 1):  # along axis first + i, the lines that carry data
        for after in itertools.product(ends, repeat=nax - 2 - i):
            view = half[(...,) + (slice(None),) * (i + 1) + after + (slice(None),)]
            _pfft.c2c(view, (first + i,), False, _INVERSE, view, _workers)
    return _pfft.c2r(full, (full.ndim - 1,), N, False, _INVERSE, None, _workers)


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
