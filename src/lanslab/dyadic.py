"""Dyadic frequency decomposition and Besov norms on the torus.

The annular multipliers come from a smooth radial cutoff chi with
chi = 1 on r <= 1, chi = 0 on r >= 2, built as the normalized integral of
the bump exp(-1/(t(1-t))).  The low-pass symbol is chi(2|k|) and the j-th
annular symbol is chi(2^{-j}|k|) - chi(2^{-j+1}|k|), supported in the open
annulus 2^{j-1} < |k| < 2^{j+1}.  Partial sums telescope exactly: adding the
low-pass table and the first J+1 annular tables reproduces chi(2^{-J}|k|)
with *bitwise* cancellation, so the partition of unity holds to machine
zero for every lattice frequency |k| <= 2^J.

The dyadic range is finite: fields are expected (or dealiased) to carry
their spectrum inside the resolved annuli; a warning fires, once per field,
when a norm is requested for a field with appreciable content beyond the
covered ball.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _fft
from .fields import like, to_spectral
from .grid import kmag

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

COVERAGE_WARN_FRACTION = 1e-6


def _bump_integral(x):
    """int_0^x exp(-1/(t(1-t))) dt for x in [0, 1], vectorized."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    nodes = half[..., None] * (_GL_NODES + 1.0)  # map [-1,1] -> [0,x]
    t = np.clip(nodes, 1e-300, 1.0 - 1e-16)
    vals = np.exp(-1.0 / (t * (1.0 - t)))
    return half * np.sum(vals * _GL_WEIGHTS, axis=-1)


_BUMP_TOTAL = float(_bump_integral(1.0))


def smooth_cutoff(r):
    """Radial cutoff chi: exactly 1 for r <= 1, exactly 0 for r >= 2,
    smooth and monotone in between."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    if np.any(mid):
        # clip: the quadrature may overshoot the endpoint value by one ulp
        out[mid] = np.clip(1.0 - _bump_integral(r[mid] - 1.0) / _BUMP_TOTAL, 0.0, 1.0)
    return out


@dataclass(frozen=True)
class BesovIndex:
    """Besov indices (s, p, q); p or q may be math.inf."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.p >= 1 and self.q >= 1):  # False at NaN
            raise ValueError(f"need a finite s and p, q >= 1: s={self.s} p={self.p} q={self.q}")


class DyadicFamily:
    """Precomputed multiplier tables for one grid and dyadic range.

    Immutable after construction.  The block operators are pure.  The
    norms go through `block_lp_norms`, which memoizes its result on the
    (immutable) field per (grid, j_max, p): later `besov_norm`,
    `dyadic_norm` or `block_profile` calls on the same field at the same p
    reuse it, and the coverage check runs once per field.

    Attributes
    ----------
    psi_hat : (j_max+1, N, ..., N) annular symbols
    low_hat : (N, ..., N) low-frequency symbol
    s_hat   : (j_max+2, N, ..., N) cumulative symbols; s_hat[m+1] is the
              multiplier of the partial sum through block m (s_hat[0] is
              the low-pass alone)
    """

    def __init__(self, grid, j_max=None):
        j_max = grid.max_dyadic_index if j_max is None else int(j_max)
        if j_max < 0 or 2 ** (j_max + 1) > grid.nyquist:
            raise ValueError(
                f"j_max={j_max} not resolved: need 2^(j_max+1) <= N/2 = {grid.nyquist}"
            )
        self.grid = grid
        self.j_max = j_max
        # cumulative tables chi(2^{-m} |k|) for m = -1 .. j_max; exact
        # pairwise cancellation in the telescoping sum relies on every
        # block reusing the same floating-point table values.  The cutoff
        # is evaluated once per distinct lattice radius (464 of 32768 at
        # n = 3, N = 32) and gathered: the same arithmetic per element, so
        # the tables are bitwise those of a per-point build, without its
        # 64 quadrature nodes per lattice point.
        radii, where = np.unique(kmag(grid), return_inverse=True)
        per_radius = np.stack([smooth_cutoff(radii * 2.0 ** (-m)) for m in range(-1, j_max + 1)])
        cumulative = per_radius[:, where.reshape(grid.shape)]
        self.s_hat = cumulative
        self.low_hat = cumulative[0]
        self.psi_hat = cumulative[1:] - cumulative[:-1]
        for arr in (self.s_hat, self.psi_hat):
            arr.setflags(write=False)
        self._coverage = cumulative[-1]

    # -- block operators ------------------------------------------------

    def _apply_table(self, table, f):
        return like(f, to_spectral(f).coeffs * table)

    def delta_j(self, f, j):
        """Annular block Delta_j f."""
        if not 0 <= j <= self.j_max:
            raise ValueError(f"block index {j} outside [0, {self.j_max}]")
        return self._apply_table(self.psi_hat[j], f)

    def low_pass(self, f):
        """Low-frequency piece Psi * f."""
        return self._apply_table(self.low_hat, f)

    def s_j(self, f, j):
        """Partial sum through block j (j = -1 is the low-pass alone,
        j < -1 gives zero)."""
        if j < -1:
            return like(f, np.zeros((f.ncomp,) + self.grid.shape, dtype=np.complex128))
        return self._apply_table(self.s_hat[min(j, self.j_max) + 1], f)

    def block_samples(self, f):
        """All blocks at once: returns (low, blocks) as real sample arrays
        of shape (ncomp, ...) and (j_max+1, ncomp, ...), views of the
        transformed product stack.

        `f` must be a real field or the spectrum of one.  The tables are
        taken in pairs (low, psi_0), (psi_1, psi_2), ...: A and B are real
        and even and F is Hermitian, so one inverse of F (A + iB) holds
        block A in its real part and block B in its imaginary part (the
        pairing rule of `_fft.pack`, here with the pairs interleaved).  The
        packed pairs are built per call, never stored; their product with
        F is transformed in place and holds the blocks returned.
        """
        F = to_spectral(f).coeffs
        grid = self.grid
        tables = self.s_hat.shape[0]
        packed = np.zeros(((tables + 1) // 2,) + grid.shape, dtype=np.complex128)
        # the 1/N^n of ifftn is undone on the tables (exact: N^n is a power of two)
        np.multiply(self.low_hat, grid.npoints, out=packed[0].real)
        np.multiply(self.psi_hat[1::2], grid.npoints, out=packed[1:].real)
        np.multiply(self.psi_hat[0::2], grid.npoints, out=packed[: tables // 2].imag)
        # the product stack is transformed in place, and each slot's real
        # and imaginary parts are then laid out in its own memory as two
        # consecutive blocks, through one spare slot
        phys = _fft.ifftn(packed[:, None] * F[None], grid.n, overwrite=True)
        del packed
        slots = phys.reshape(len(phys), -1)
        pair = np.empty_like(slots[0])
        for slot in slots:
            pair[...] = slot
            halves = slot.view(np.float64).reshape(2, -1)
            halves[0], halves[1] = pair.real, pair.imag
        out = phys.view(np.float64).reshape((2 * len(phys),) + F.shape)
        return out[0], out[1:tables]

    # -- norms ------------------------------------------------------------

    def _warn_if_uncovered(self, F):
        power = np.abs(F.coeffs) ** 2
        total = float(np.sum(power))
        if total == 0.0:
            return
        # the weight is formed per call: a stored N^n table costs more
        # resident memory than the 0.07 ms it saves (N = 32)
        outside = float(np.sum(power * (1.0 - self._coverage) ** 2))
        if outside > COVERAGE_WARN_FRACTION**2 * total:
            warnings.warn(
                "field has spectral content beyond the resolved dyadic range; "
                "Besov norms ignore the uncovered tail",
                stacklevel=3,
            )

    def block_lp_norms(self, f, p):
        """(low-pass L^p norm, per-block L^p norms as a read-only array of
        length j_max+1), memoized on `f`."""
        from .fields import lp_norm

        memo = f._memo.setdefault((self.grid, self.j_max), {})
        if p not in memo:
            F = to_spectral(f)
            if not memo:
                self._warn_if_uncovered(F)
            low, blocks = self.block_samples(F)
            block_norms = np.array([lp_norm(b, p) for b in blocks])
            block_norms.setflags(write=False)
            memo[p] = (lp_norm(low, p), block_norms)
        return memo[p]

    def dyadic_norm(self, f, idx):
        """The annular part alone: l^q over j of 2^{js} ||Delta_j f||_p."""
        _, block_norms = self.block_lp_norms(f, idx.p)
        weights = 2.0 ** (idx.s * np.arange(self.j_max + 1))
        terms = weights * block_norms
        if math.isinf(idx.q):
            return float(np.max(terms)) if terms.size else 0.0
        return float(np.sum(terms**idx.q) ** (1.0 / idx.q))

    def besov_norm(self, f, idx):
        """Low-frequency L^p norm plus the dyadic l^q sum."""
        low_norm, _ = self.block_lp_norms(f, idx.p)
        return low_norm + self.dyadic_norm(f, idx)

    def block_profile(self, f, idx):
        """Per-block weighted norms [(j, 2^{js} ||Delta_j f||_p)]."""
        _, block_norms = self.block_lp_norms(f, idx.p)
        return [
            (j, float(2.0 ** (idx.s * j) * block_norms[j]))
            for j in range(self.j_max + 1)
        ]


def build_dyadic_family(grid, j_max=None):
    """Cached family constructor (families are immutable and shareable).
    j_max defaults to the grid's largest resolved index; it is resolved
    before the cache is consulted, so one family has one cache entry."""
    return _cached_family(grid, grid.max_dyadic_index if j_max is None else j_max)


@lru_cache(maxsize=16)
def _cached_family(grid, j_max):
    return DyadicFamily(grid, j_max)


def norm_report_record(family, f, idx, field_id):
    """One JSON-ready norm record with the per-block profile."""
    return {
        "field_id": field_id,
        "s": idx.s,
        "p": "inf" if math.isinf(idx.p) else idx.p,
        "q": "inf" if math.isinf(idx.q) else idx.q,
        "value": family.besov_norm(f, idx),
        "per_block": [[j, v] for j, v in family.block_profile(f, idx)],
    }
