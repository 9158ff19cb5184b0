"""Periodic grid on the torus [0, 2pi)^n with normalized measure.

The measure is normalized so that ||1||_{L^p} = 1 for every p; a single
Fourier mode e^{ik.x} then has unit L^2 norm and coefficient tables can be
checked against closed forms without volume factors.

Frequency layout follows numpy's fftn convention: integer frequencies
k_i in {-N/2, ..., N/2 - 1} along each axis, stored in fft order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice: `n` spatial dimensions, `N` points per axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def npoints(self):
        return self.N**self.n

    @property
    def nyquist(self):
        return self.N // 2

    @property
    def max_dyadic_index(self):
        """Largest j with the annulus (2^{j-1}, 2^{j+1}) resolved: 2^{j+1} <= N/2."""
        return int(np.log2(self.N)) - 2


@lru_cache(maxsize=None)
def coordinates(grid):
    """Physical coordinates, tuple of n arrays of shape grid.shape."""
    x = np.linspace(0.0, 2.0 * np.pi, grid.N, endpoint=False)
    return tuple(np.meshgrid(*([x] * grid.n), indexing="ij"))


@lru_cache(maxsize=None)
def wavevectors(grid):
    """Integer frequency components, array of shape (n, N, ..., N) in fft order."""
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    mesh = np.meshgrid(*([k] * grid.n), indexing="ij")
    out = np.stack(mesh)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def ksq(grid):
    """|k|^2 on the lattice."""
    out = np.sum(wavevectors(grid) ** 2, axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def kmag(grid):
    """|k| on the lattice."""
    out = np.sqrt(ksq(grid))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def ksq_safe(grid):
    """|k|^2 with the zero mode replaced by 1 (safe divisor)."""
    out = ksq(grid).copy()
    out[(0,) * grid.n] = 1.0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def dealias_mask(grid):
    """Two-thirds rule mask: keep |k_i| <= N//3 on every axis.

    Products of two kept modes alias only into the discarded band, so a
    masked pointwise product of masked fields is alias-free.
    """
    kc = grid.N // 3
    kv = wavevectors(grid)
    out = np.all(np.abs(kv) <= kc, axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def kept_modes(grid):
    """Flat indices of the modes the 2/3 rule keeps and, in the same order,
    of their mirror images -k (the kept set is symmetric; 28% of the
    lattice at n = 3)."""
    kept = np.flatnonzero(dealias_mask(grid))
    axes = np.unravel_index(kept, grid.shape)
    mirror = np.ravel_multi_index(tuple(-i % grid.N for i in axes), grid.shape)
    for arr in (kept, mirror):
        arr.setflags(write=False)
    return kept, mirror


def on_kept(grid, values):
    """The spectrum (ncomp, N, ..., N) equal to `values` (ncomp, M) on the
    kept modes, in `kept_modes` order, and 0 elsewhere."""
    out = np.zeros((len(values), grid.npoints), dtype=complex)
    out[:, kept_modes(grid)[0]] = values
    return out.reshape((len(values),) + grid.shape)
