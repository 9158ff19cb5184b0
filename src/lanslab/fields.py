"""Real and spectral vector fields plus generators and L^p norms.

A VectorField stores `ncomp` real components sampled on a Grid; velocity
fields have ncomp == grid.n while scalar observables use ncomp == 1.  The
spectral counterpart stores full complex Fourier coefficients in fft order,
conjugate-symmetric whenever it represents a real field.

Both kinds are immutable: frozen, with read-only arrays.  That makes it safe
to memoize derived quantities on the field object itself (the `_memo` slot,
excluded from comparison and repr): `DyadicFamily.block_lp_norms` keeps its
per-block norms there and the paraproducts their block stacks.

Every spectral operator returns the kind it is given: real in, real out;
spectrum in, spectrum out.  `like` is the one place that rule is written.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fft
from .errors import GridMismatchError
from .grid import Grid, coordinates, dealias_mask, kmag


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    data: np.ndarray  # (ncomp, N, ..., N), float64
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.shape[1:] != self.grid.shape or arr.ndim != self.grid.n + 1:
            raise GridMismatchError(
                f"field shape {arr.shape} does not match grid {self.grid}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def ncomp(self):
        return self.data.shape[0]

    def __add__(self, other):
        self._check(other)
        return VectorField(self.grid, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return VectorField(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return VectorField(self.grid, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField(self.grid, -self.data)

    def _check(self, other):
        if self.grid != other.grid or self.ncomp != other.ncomp:
            raise GridMismatchError("field mismatch")


@dataclass(frozen=True)
class SpectralField:
    grid: Grid
    coeffs: np.ndarray  # (ncomp, N, ..., N), complex128, fft order
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.shape[1:] != self.grid.shape or arr.ndim != self.grid.n + 1:
            raise GridMismatchError(
                f"coefficient shape {arr.shape} does not match grid {self.grid}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def ncomp(self):
        return self.coeffs.shape[0]

    _check = VectorField._check

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def to_spectral(f):
    """Forward transform; the k=0 coefficient equals the field mean."""
    if isinstance(f, SpectralField):
        return f
    return SpectralField(f.grid, _fft.fftn(f.data, f.grid.n))


def to_real(F):
    """Inverse transform; drops the (round-off level) imaginary part."""
    if isinstance(F, VectorField):
        return F
    return VectorField(F.grid, np.real(_fft.ifftn(F.coeffs, F.grid.n)))


def like(f, coeffs):
    """The field with spectrum `coeffs`, of the same kind as `f`: a
    SpectralField for spectral `f`, its real samples otherwise."""
    out = SpectralField(f.grid, coeffs)
    return out if isinstance(f, SpectralField) else to_real(out)


def lp_norm(f, p):
    """L^p norm under the normalized measure; vector fields use the
    pointwise Euclidean magnitude, p=inf is the grid maximum.

    Accepts a VectorField or a bare array whose leading axis indexes
    components (complex samples allowed).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    data = f.data if isinstance(f, VectorField) else np.asarray(f)
    if np.iscomplexobj(data):
        mag = np.sqrt(np.sum(np.abs(data) ** 2, axis=0))
    elif p == 2:  # one pass over the components and no root per point
        return float(np.sqrt(np.mean(np.einsum("c...,c...->...", data, data))))
    else:
        mag = np.sqrt(np.einsum("c...,c...->...", data, data))
    if np.isinf(p):
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))


def l2_norm(f):
    return lp_norm(f, 2)


def pointwise_product(f, g):
    """Grid product of two fields (scalar*scalar, or scalar*vector).

    The product spectrum is truncated by the 2/3-rule so aliased modes
    never contaminate multiplier-based analysis downstream.
    """
    if f.grid != g.grid:
        raise GridMismatchError("product of fields on different grids")
    a, b = f.data, g.data
    if f.ncomp == 1 and g.ncomp > 1:
        a, b = b, a
    elif g.ncomp != 1 and f.ncomp != g.ncomp:
        raise GridMismatchError("component mismatch in product")
    return VectorField(f.grid, dealias_array(f.grid, a * b))


def dealias_array(grid, data):
    """Apply the 2/3-rule truncation to real sample arrays.

    Two or more fields go two per transform (`_fft.pack`): the mask is
    real and even, so it acts on each half of a pair alone and the paired
    round trip needs no unpacking in between.
    """
    mask = dealias_mask(grid)
    count = data.size // grid.npoints
    if count < 2:
        coeffs = _fft.fftn(data, grid.n) * mask
        return np.real(_fft.ifftn(coeffs, grid.n))
    pairs = _fft.fftn(_fft.pack(data.reshape((count,) + grid.shape)), grid.n, overwrite=True)
    pairs *= mask
    pairs = _fft.ifftn(pairs, grid.n, overwrite=True)
    return _fft.unpack(pairs, count).reshape(data.shape)


# ----------------------------------------------------------------------
# generators (all seeded; no global RNG state)


def zero_field(grid, ncomp=None):
    ncomp = grid.n if ncomp is None else ncomp
    return VectorField(grid, np.zeros((ncomp,) + grid.shape))


def fourier_mode(grid, kvec, comp=0, ncomp=1, kind="cos"):
    """Real single-mode field cos(k.x) or sin(k.x) in one component."""
    xs = coordinates(grid)
    phase = sum(float(ki) * xi for ki, xi in zip(kvec, xs))
    data = np.zeros((ncomp,) + grid.shape)
    data[comp] = np.cos(phase) if kind == "cos" else np.sin(phase)
    return VectorField(grid, data)


def spectral_mask_noise(grid, mask, seed, ncomp=1):
    """White noise restricted to a frequency mask, unit-normalized in L^2."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((ncomp,) + grid.shape)
    coeffs = _fft.fftn(data, grid.n) * mask
    out = np.real(_fft.ifftn(coeffs, grid.n))
    norm = np.sqrt(np.mean(np.sum(out**2, axis=0)))
    if norm > 0:
        out = out / norm
    return VectorField(grid, out)


def random_band_limited(grid, j, seed, ncomp=1):
    """Random field with spectrum in the open dyadic annulus 2^{j-1} < |k| < 2^{j+1}.

    Deterministic in (grid, j, seed, ncomp); fails if the annulus is not
    resolved by the lattice.
    """
    if 2 ** (j + 1) > grid.nyquist:
        raise ValueError(
            f"annulus index {j} exceeds Nyquist: 2^{j + 1} > {grid.nyquist}"
        )
    km = kmag(grid)
    mask = (km > 2.0 ** (j - 1)) & (km < 2.0 ** (j + 1))
    return spectral_mask_noise(grid, mask, seed, ncomp)


def random_band_mixture(grid, seed, ncomp=1, j_hi=None):
    """Random field with spectrum in the ball |k| < 2^{j_hi+1}: blocks
    0..j_hi plus the low-frequency piece.

    The default j_hi keeps the spectrum below Nyquist/2 so products stay
    alias-safe.
    """
    j_hi = grid.max_dyadic_index - 1 if j_hi is None else j_hi
    km = kmag(grid)
    mask = km < 2.0 ** (j_hi + 1)
    return spectral_mask_noise(grid, mask, seed, ncomp)


def random_divergence_free(grid, seed, j_hi=None):
    """Leray-projected band mixture, the standard nonlinear test ensemble."""
    from .operators import leray_project

    return leray_project(random_band_mixture(grid, seed, ncomp=grid.n, j_hi=j_hi))


def taylor_green(grid, amplitude=1.0):
    """Classical divergence-free trigonometric vortex."""
    xs = coordinates(grid)
    a = float(amplitude)
    if grid.n == 2:
        x, y = xs
        data = np.stack([a * np.cos(x) * np.sin(y), -a * np.sin(x) * np.cos(y)])
    else:
        x, y, z = xs
        data = np.stack(
            [
                a * np.sin(x) * np.cos(y) * np.cos(z),
                -a * np.cos(x) * np.sin(y) * np.cos(z),
                np.zeros_like(x),
            ]
        )
    return VectorField(grid, data)


def embed_to(f, fine_grid):
    """Zero-pad the spectrum of `f` onto a finer grid (same function,
    sampled at more points).

    Requires the coarse Nyquist planes to be empty, which holds for every
    band-limited generator in this module (their masks are open annuli or
    balls strictly below Nyquist).
    """
    coarse = f.grid
    if fine_grid.n != coarse.n or fine_grid.N < coarse.N:
        raise GridMismatchError("embedding target must refine the source grid")
    if fine_grid.N == coarse.N:
        return f
    src = to_spectral(f).coeffs
    half = coarse.N // 2
    for ax in range(1, coarse.n + 1):
        plane = [slice(None)] * (coarse.n + 1)
        plane[ax] = -half
        if np.max(np.abs(src[tuple(plane)])) > 1e-12 * (1 + np.max(np.abs(src))):
            raise GridMismatchError("cannot embed a field with Nyquist content")
    out = np.zeros((f.ncomp,) + fine_grid.shape, dtype=np.complex128)
    idx_src = np.r_[0:half, -half:0]
    sel = np.ix_(range(f.ncomp), *([idx_src] * coarse.n))
    out[sel] = src[sel]
    return to_real(SpectralField(fine_grid, out))
