"""Dyadic frequency decomposition and Besov norms on the torus.

The annular multipliers come from a smooth radial cutoff chi with
chi = 1 on r <= 1, chi = 0 on r >= 2, built as the normalized integral of
the bump exp(-1/(t(1-t))).  The low-pass symbol is chi(2|k|) and the j-th
annular symbol is chi(2^{-j}|k|) - chi(2^{-j+1}|k|), supported in the open
annulus 2^{j-1} < |k| < 2^{j+1}.  Partial sums telescope exactly: adding the
low-pass table and the first J+1 annular tables reproduces chi(2^{-J}|k|)
with *bitwise* cancellation, so the partition of unity holds to machine
zero for every lattice frequency |k| <= 2^J.  On the integer lattice the
low-pass symbol is exactly the indicator of k = 0 (|k| >= 1 puts 2|k| at
or past the cutoff's end), so the low-pass block is the mean of the field.

The dyadic range is finite: fields are expected (or dealiased) to carry
their spectrum inside the resolved annuli; a warning fires, once per field
(once per call for a spectrum held on the 2/3-rule modes), when a norm is
requested for a field with appreciable content beyond the covered ball.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _fft
from .fields import SpectralField, like, lp_norm, to_spectral
from .grid import kept_modes, kmag, on_kept

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
        """All blocks at once: (low, blocks), real samples of shape (ncomp, ...):
        `low` a read-only broadcast of the mean, `blocks` the j_max+1 annular
        blocks as views of one transformed stack (an odd last one gathered).

        `f` must be a real field or the spectrum of one.  On the lattice
        chi(2|k|) is the indicator of k = 0: the low-pass block is the mean
        and takes no transform.  The annular tables go in pairs (psi_0,
        psi_1), (psi_2, psi_3), ...: A and B are real and even and F is
        Hermitian, so the inverse of F (A + iB) is block A plus i times block
        B (the rule of `_fft.pack`).  An odd last table pairs its components:
        ceil((j_max+1) ncomp / 2) inverses in all, in place on the stack the
        products are written to.
        """
        F = to_spectral(f).coeffs
        grid, ncomp = self.grid, len(F)
        pairs, odd = divmod(self.j_max + 1, 2)
        half = (ncomp + 1) // 2
        stack = np.empty((pairs * ncomp + odd * half,) + grid.shape, dtype=complex)
        table = np.empty(grid.shape, dtype=complex)
        for m in range(pairs):
            table.real, table.imag = self.psi_hat[2 * m], self.psi_hat[2 * m + 1]
            np.multiply(F, table, out=stack[m * ncomp : (m + 1) * ncomp])
        if odd:  # components c and c + half of the last block share a slot
            last = stack[pairs * ncomp :]
            last[...] = F[:half]
            last[: ncomp - half] += 1j * F[half:]
            last *= self.psi_hat[-1]
        phys = _fft.ifftn(stack, grid.n, overwrite=True)
        slots = phys[: pairs * ncomp].reshape((pairs,) + F.shape)
        blocks = [part for slot in slots for part in (slot.real, slot.imag)]
        if odd:
            blocks.append(_fft.unpack(phys[pairs * ncomp :], ncomp))
        mean = F.reshape(ncomp, -1)[:, 0].real.reshape((ncomp,) + (1,) * grid.n)
        return np.broadcast_to(mean.copy(), F.shape), tuple(blocks)

    # -- norms ------------------------------------------------------------

    @cached_property
    def _kept_tables(self):
        """psi_j^2 and the uncovered weight (1 - s_hat[-1])^2 on the modes
        the 2/3 rule keeps, in `grid.kept_modes` order."""
        kept, _ = kept_modes(self.grid)
        psi2 = self.psi_hat.reshape(self.j_max + 1, -1)[:, kept] ** 2
        outside = (1.0 - self.s_hat[-1].reshape(-1)[kept]) ** 2
        return psi2, outside

    def _covered_power(self, values, outside):
        """sum_c |values_c|^2 per mode, flattened.  Warns when more than
        COVERAGE_WARN_FRACTION of the L^2 norm lies beyond the dyadic range:
        `outside` is (1 - s_hat[-1])^2 at the same modes.  Every norm path
        warns from this one line."""
        re, im = values.real, values.imag
        power = (np.einsum("c...,c...->...", re, re) + np.einsum("c...,c...->...", im, im)).ravel()
        total = float(np.sum(power))
        # einsum, not np.dot, keeps threaded BLAS out of it
        if total and float(np.einsum("i,i->", power, outside)) > COVERAGE_WARN_FRACTION**2 * total:
            warnings.warn(
                "field has spectral content beyond the resolved dyadic range; "
                "Besov norms ignore the uncovered tail"
            )
        return power

    def block_lp_norms(self, f, p):
        """(low-pass L^p norm, per-block L^p norms as a read-only array of
        length j_max+1), memoized on `f`."""
        memo = f._memo.setdefault((self.grid, self.j_max), {})
        if p not in memo:
            F = to_spectral(f)
            if not memo:
                # the weight is formed per call (a stored N^n table costs
                # more memory than it saves)
                self._covered_power(F.coeffs, ((1.0 - self.s_hat[-1]) ** 2).ravel())
            block_norms = np.array([lp_norm(b, p) for b in self.block_samples(F)[1]])
            block_norms.setflags(write=False)
            mean = F.coeffs.reshape(F.ncomp, -1)[:, 0].real
            # the low-pass block is the mean: its L^p norm is |mean| for every p
            memo[p] = (float(np.linalg.norm(mean)), block_norms)
        return memo[p]

    def _lq(self, block_norms, idx):
        """l^q over j of 2^{js} times the block norms."""
        terms = 2.0 ** (idx.s * np.arange(self.j_max + 1)) * block_norms
        top = float(np.max(terms))
        if math.isinf(idx.q):
            return top
        with np.errstate(over="ignore"):
            powers = np.sum(terms**idx.q)
        if 0.0 < top < math.inf and powers in (0.0, math.inf):  # q-th powers out of range
            return top * float(np.sum((terms / top) ** idx.q) ** (1.0 / idx.q))
        return float(powers ** (1.0 / idx.q))

    def dyadic_norm(self, f, idx):
        """The annular part alone: l^q over j of 2^{js} ||Delta_j f||_p."""
        return self._lq(self.block_lp_norms(f, idx.p)[1], idx)

    def besov_norm(self, f, idx):
        """Low-frequency L^p norm plus the dyadic l^q sum."""
        low_norm, _ = self.block_lp_norms(f, idx.p)
        return low_norm + self.dyadic_norm(f, idx)

    def kept_besov_norms(self, values, *indices):
        """Besov norms, one per index, of the real field whose spectrum is
        `values` (ncomp, M) on the modes the 2/3 rule keeps, in
        `grid.kept_modes` order, and 0 elsewhere.

        At p = 2 no field is formed: by Parseval ||Delta_j f||_2^2 =
        sum_k psi_j(k)^2 |f_hat(k)|^2, a dot product with psi_j^2 on the
        kept modes, and the low-pass block is |f_hat(0)| (k = 0 is the first
        kept mode).  The coverage rule is that of `block_lp_norms`, applied
        per call.  Other p scatter the spectrum (`on_kept`) once and take
        `besov_norm`.
        """
        norms, low, blocks, F = [], None, None, None
        for idx in indices:
            if idx.p != 2:
                if F is None:
                    F = SpectralField(self.grid, on_kept(self.grid, values))
                norms.append(self.besov_norm(F, idx))
                continue
            if blocks is None:
                psi2, outside = self._kept_tables
                power = self._covered_power(values, outside)
                blocks = np.sqrt(np.einsum("jm,m->j", psi2, power))
                low = float(np.linalg.norm(values[:, 0].real))
            norms.append(low + self._lq(blocks, idx))
        return norms

    def block_profile(self, f, idx):
        """Per-block weighted norms [(j, 2^{js} ||Delta_j f||_p)]."""
        _, block_norms = self.block_lp_norms(f, idx.p)
        return [(j, float(2.0 ** (idx.s * j) * b)) for j, b in enumerate(block_norms)]


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
