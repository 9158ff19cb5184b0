"""The stepper as it was before it moved onto the 2/3 rule's cube: its
state is the whole half spectrum of scipy's `rfftn`, every transform runs
over every line, and `nonlinear` gathers the kept modes with `np.take` and
scatters its result back into a zero half spectrum.  The transforms are
scipy's, in lanslab's coefficient convention (norm="forward"), so the
reference does not run through the `lanslab._fft` wrappers it checks.
`tests/test_solver.py` holds the cube stepper bitwise to it on states that
are zero beyond the cube (`helpers.half_of` pads a cube state with zeros).

`meshgrid_tables` builds the cube stepper's multiplier tables as it did
before `lanslab.grid` held the cube: from a meshgrid of the cube's axes.
"""

import numpy as np
import scipy.fft as sfft

from lanslab.dynamics import _slabs, _stress_filter, _stress_product
from lanslab.grid import dealias_mask, ksq, ksq_safe


def _axes(nax):
    return tuple(range(-nax, 0))


def rfftn(a, nax):
    return sfft.rfftn(a, axes=_axes(nax), norm="forward")


def irfftn(a, shape):
    return sfft.irfftn(a, s=shape, axes=_axes(len(shape)), norm="forward")


class HalfSpectrumStepper:
    """The half-spectrum `SpectralStepper`: tables, projection, kernel and
    RK4 step."""

    def __init__(self, grid, alpha, nu, dt):
        self.grid = grid
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.dt = float(dt)
        n, N = grid.n, grid.N
        kfull = np.fft.fftfreq(N, 1.0 / N)
        khalf = np.arange(N // 2 + 1, dtype=float)
        mesh = np.meshgrid(*([kfull] * (n - 1) + [khalf]), indexing="ij")
        self.kv = np.stack(mesh)
        self.ik = 1j * self.kv
        half = np.s_[..., : N // 2 + 1]
        k2 = ksq(grid)[half]
        self.kv_k2 = self.kv / ksq_safe(grid)[half]
        self.kept = np.flatnonzero(dealias_mask(grid)[half])
        ik_tau = self.ik * _stress_filter(self.alpha**2, k2)
        self.kept_tables = tuple(
            t.reshape(n, -1)[:, self.kept].astype(complex) for t in (self.kv, self.kv_k2, ik_tau)
        )
        self.e_full = np.exp(-self.nu * k2 * self.dt).astype(complex)
        self.e_half = np.exp(-self.nu * k2 * self.dt / 2.0).astype(complex)
        self.shape = grid.shape

    def to_state(self, u):
        return rfftn(u.data, self.grid.n)

    def project(self, state):
        return state - self.kv_k2 * np.einsum("i...,i...->...", self.kv, state)

    def nonlinear(self, state):
        n, shape = self.grid.n, self.shape
        spec = state.shape[1:]
        out = np.zeros_like(state)
        grad = np.empty((n + n * n,) + spec, dtype=complex)
        grad[:n] = state
        np.multiply(self.ik[None], state[:, None], out=grad[n:].reshape((n, n) + spec))
        phys = irfftn(grad, shape)
        u, jac = phys[:n], phys[n:].reshape((n, n) + shape)
        flux = np.empty((n + n * n if self.alpha > 0 else n,) + shape)
        conv, prod = flux[:n], flux[n:].reshape((-1, n) + shape)
        for part in _slabs(shape):
            J = jac[:, :, part]
            np.einsum("j...,ij...->i...", u[:, part], J, out=conv[:, part])
            if self.alpha > 0:
                _stress_product(J, prod[:, :, part])
        fwd = rfftn(flux, n)
        fwd = np.take(fwd.reshape(len(fwd), -1), self.kept, axis=1)
        kv, kv_k2, ik_tau = self.kept_tables
        vhat = fwd[:n]
        if self.alpha > 0:
            tau = fwd[n:].reshape(n, n, -1)
            for j in range(n):
                vhat += ik_tau[j] * tau[:, j]
        vhat = kv_k2 * np.einsum("ik,ik->k", kv, vhat) - vhat
        for flat, row in zip(out.reshape(n, -1), vhat):
            flat[self.kept] = row
        return out

    def step(self, state):
        dt, e1, e2 = self.dt, self.e_half, self.e_full
        k1 = self.nonlinear(state)
        stage = 0.5 * dt * k1
        stage += state
        stage *= e1
        k2 = self.nonlinear(stage)
        stage = e1 * state
        stage += 0.5 * dt * k2
        k3 = self.nonlinear(stage)
        e2_state = e2 * state
        stage = dt * e1 * k3
        stage += e2_state
        k4 = self.nonlinear(stage)
        k2 += k3
        k2 *= 2.0 * e1
        k2 += e2 * k1
        k2 += k4
        k2 *= dt / 6.0
        k2 += e2_state
        return k2


def meshgrid_tables(grid, alpha, nu, dt):
    """The cube stepper's tables by name, each built from a meshgrid of
    the cube's wavenumbers k = 0..N//3, -N//3..-1 (and 0..N//3 last)."""
    n, kc = grid.n, grid.N // 3
    k = np.r_[0 : kc + 1, -kc:0].astype(float)
    mesh = np.meshgrid(*([k] * (n - 1) + [k[: kc + 1]]), indexing="ij")
    kv = np.stack(mesh)
    k2 = np.sum(kv**2, axis=0)
    ik = 1j * kv
    w = np.where(mesh[-1] > 0, 2.0, 1.0)
    return {
        "kv": kv.astype(complex),
        "ik": ik,
        "kv_k2": (kv / np.where(k2 > 0, k2, 1.0)).astype(complex),
        "ik_tau": ik * _stress_filter(alpha**2, k2),
        "weights": np.stack([w, w * k2, w * (1.0 + alpha**2 * k2)]),
        "e_full": np.exp(-nu * k2 * dt).astype(complex),
        "e_half": np.exp(-nu * k2 * dt / 2.0).astype(complex),
    }
