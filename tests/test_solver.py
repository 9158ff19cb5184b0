import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from lanslab import _fft, dyadic
from lanslab.dynamics import _slabs, nonlinearity_V, semigroup_apply
from lanslab.errors import BlowUpError, ConfigError
from lanslab.fields import VectorField, l2_norm, random_divergence_free, taylor_green, zero_field
from lanslab.grid import Grid, coordinates
from helpers import cube_of, div_l2_residual, half_of
from lanslab.operators import leray_project, stokes_project
from lanslab.solver import (
    INITIAL_KINDS,
    InitialSpec,
    SolverConfig,
    SpectralStepper,
    Trajectory,
    config_from_dict,
    solve_ivp,
)
from stepper_reference import HalfSpectrumStepper


def small_cfg(**kw):
    base = dict(n=3, N=16, alpha=1.0, nu=1.0, T=0.1, dt=2e-3)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(nu=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=-1.0)
    with pytest.raises(ConfigError, match="power of two"):
        SolverConfig(N=12)


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {
            "n": 3,
            "N": 16,
            "T": 0.5,
            "dt": 0.01,
            "initial": {"kind": "taylor_green", "amplitude": 0.2},
            "besov": {"r": 2.5, "q": 2.0},
        }
    )
    assert cfg.initial.amplitude == 0.2
    assert cfg.besov.r == 2.5
    with pytest.raises(ConfigError):
        config_from_dict({"unknown_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"picard": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"picard": {"tol": -1.0}})


def test_random_band_index_checked_against_grid(tmp_path):
    from lanslab.cli import main

    with pytest.raises(ConfigError, match=r"initial\.j=3.*<= 2"):
        SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=3))
    with pytest.raises(ConfigError, match=r"initial\.j"):
        SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=-1))
    SolverConfig(N=16, initial=InitialSpec("random_band", 0.1, j=2))
    SolverConfig(N=16, initial=InitialSpec("taylor_green", 0.1, j=3))  # j unused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"N": 16, "T": 0.01, "dt": 0.005,
         "initial": {"kind": "random_band", "amplitude": 0.1, "j": 3}}
    ))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_zero_data_stays_zero():
    cfg = small_cfg(initial=InitialSpec(kind="zero"))
    traj = solve_ivp(cfg.initial_field(), cfg)
    assert l2_norm(traj.final()) == 0.0
    assert np.all(traj.series["energy"] == 0.0)


def test_linear_regime_tracks_semigroup():
    cfg = small_cfg(T=0.1, dt=1e-3, initial=InitialSpec("taylor_green", 1e-7))
    u0 = cfg.initial_field()
    traj = solve_ivp(u0, cfg, sample_stride=1)
    exact = semigroup_apply(u0, 0.1, nu=cfg.nu)
    err = l2_norm(traj.final() - exact) / l2_norm(exact)
    assert err <= 1e-8


def test_samples_divergence_free_and_energy_monotone():
    cfg = small_cfg(T=0.2, dt=2e-3, initial=InitialSpec("taylor_green", 0.1))
    traj = solve_ivp(cfg.initial_field(), cfg)
    for f in traj.fields:
        assert div_l2_residual(f) <= 1e-10
    energy = traj.series["energy"]
    tol = 10.0 * cfg.dt**4 * energy[:-1]
    assert np.all(np.diff(energy) <= tol)


def test_fourth_order_nonlinear_convergence():
    errs = []
    dts = [4e-3, 2e-3]
    cfg_ref = small_cfg(T=0.04, dt=2.5e-4, initial=InitialSpec("taylor_green", 0.5))
    ref = solve_ivp(cfg_ref.initial_field(), cfg_ref).final()
    for dt in dts:
        cfg = small_cfg(T=0.04, dt=dt, initial=InitialSpec("taylor_green", 0.5))
        out = solve_ivp(cfg.initial_field(), cfg).final()
        errs.append(l2_norm(out - ref))
    order = math.log2(errs[0] / errs[1])
    assert 3.5 <= order <= 4.6


def test_blowup_guard():
    cfg = small_cfg(initial=InitialSpec("taylor_green", 1e7), blowup_threshold=1e6)
    with pytest.raises(BlowUpError):
        solve_ivp(cfg.initial_field(), cfg)


def test_alpha_refinement_gap_scales_quadratically():
    gaps = []
    alphas = [0.2, 0.1]
    cfg0 = small_cfg(alpha=0.0, T=0.1, dt=2e-3, initial=InitialSpec("taylor_green", 0.5))
    base = solve_ivp(cfg0.initial_field(), cfg0).final()
    for a in alphas:
        cfg = small_cfg(alpha=a, T=0.1, dt=2e-3, initial=InitialSpec("taylor_green", 0.5))
        gaps.append(l2_norm(solve_ivp(cfg.initial_field(), cfg).final() - base))
    slope = math.log(gaps[0] / gaps[1]) / math.log(alphas[0] / alphas[1])
    assert 1.5 <= slope <= 2.5


def test_trajectory_validation(grid3d_small):
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], fields=[zero_field(grid3d_small)] * 2)


def test_besov_series_recorded():
    cfg = small_cfg(T=0.05, dt=5e-3, initial=InitialSpec("taylor_green", 0.1))
    traj = solve_ivp(cfg.initial_field(), cfg, besov_stride=5)
    assert "besov_base" in traj.series
    assert len(traj.series["besov_t"]) >= 2
    assert np.all(traj.series["besov_base"] > 0)


def test_solve_projects_its_initial_data_once():
    cfg = small_cfg(T=0.02, dt=5e-3)
    grid = cfg.grid
    x, y, z = coordinates(grid)
    # grad of sin(x) cos(2y) sin(z): curl-free, so the projection removes it
    grad = np.stack([np.cos(x) * np.cos(2 * y) * np.sin(z),
                     -2 * np.sin(x) * np.sin(2 * y) * np.sin(z),
                     np.sin(x) * np.cos(2 * y) * np.cos(z)])
    u0 = taylor_green(grid, 0.5) + VectorField(grid, 0.3 * grad)
    assert div_l2_residual(u0) > 0.1
    traj = solve_ivp(u0, cfg, sample_stride=1)
    want = solve_ivp(leray_project(u0), cfg, sample_stride=1)
    assert traj.series["div_residual"][0] <= 1e-12
    scale = max(np.max(np.abs(f.data)) for f in want.fields)
    for got, expected in zip(traj.fields, want.fields):
        assert np.max(np.abs(got.data - expected.data)) <= 1e-13 * scale


class _SlowKernel:
    """The stepper's nonlinear term as first written: one batch of scipy
    transforms each way in lanslab's coefficient convention, the mask and
    the Helmholtz division on every call, an out-of-place projection.
    It is the slow-path oracle for `SpectralStepper.nonlinear`."""

    def __init__(self, grid, alpha):
        self.grid = grid
        self.alpha = float(alpha)
        n, N = grid.n, grid.N
        kfull = np.fft.fftfreq(N, 1.0 / N)
        khalf = np.arange(N // 2 + 1, dtype=float)
        mesh = np.meshgrid(*([kfull] * (n - 1) + [khalf]), indexing="ij")
        self.kv = np.stack(mesh)
        self.k2 = np.sum(self.kv**2, axis=0)
        self.k2_safe = self.k2.copy()
        self.k2_safe[(0,) * n] = 1.0
        self.dealias = np.all(np.abs(self.kv) <= N // 3, axis=0)
        self.helm = 1.0 + self.alpha**2 * self.k2
        self.shape = grid.shape
        self.axes = tuple(range(-n, 0))

    def project(self, state):
        kdot = np.sum(self.kv * state, axis=0)
        out = state - self.kv * (kdot / self.k2_safe)[None]
        zero = (slice(None),) + (0,) * self.grid.n
        out[zero] = state[zero]
        return out

    def nonlinear(self, state):
        n = self.grid.n
        jac_hat = (1j * self.kv[None, :] * state[:, None]).reshape(
            (n * n,) + self.k2.shape
        )
        phys = sfft.irfftn(
            np.concatenate([state, jac_hat]), self.shape, axes=self.axes, norm="forward"
        )
        u = phys[:n]
        jac = phys[n:].reshape((n, n) + self.shape)
        conv = np.einsum("j...,ij...->i...", u, jac)
        if self.alpha > 0:
            deform = 0.5 * (jac + np.swapaxes(jac, 0, 1))
            rotation = jac - np.swapaxes(jac, 0, 1)
            prod = np.einsum("ik...,kj...->ij...", deform, rotation)
            fwd = sfft.rfftn(
                np.concatenate([conv, prod.reshape((n * n,) + self.shape)]),
                axes=self.axes, norm="forward",
            ) * self.dealias
            vhat = fwd[:n]
            tau_hat = (
                self.alpha**2 * fwd[n:].reshape((n, n) + self.k2.shape)
                / self.helm[None, None]
            )
            vhat = vhat + np.einsum("j...,ij...->i...", 1j * self.kv, tau_hat)
        else:
            vhat = sfft.rfftn(conv, axes=self.axes, norm="forward") * self.dealias
        return -self.project(vhat)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _white_noise_state(stepper, seed):
    """A state with content on every mode of the cube, Leray-projected."""
    grid = stepper.grid
    noise = np.random.default_rng(seed).standard_normal((grid.n,) + grid.shape)
    return stepper.project(stepper.to_state(VectorField(grid, noise)))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n,N", [(2, 16), (2, 32), (3, 16), (3, 32)])
def test_nonlinear_matches_slow_path(n, N, alpha):
    grid = Grid(n, N)
    stepper = SpectralStepper(grid, alpha, 1.0, 1e-3)
    slow = _SlowKernel(grid, alpha)
    state = _white_noise_state(stepper, 17 * n + N)
    want = slow.nonlinear(half_of(state, grid.shape))
    assert not np.any(want[:, ~slow.dealias])
    assert _rel_err(stepper.nonlinear(state), cube_of(want, n)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n,N", [(2, 16), (2, 32), (2, 128), (3, 16), (3, 32)])
def test_kernel_and_step_bitwise_equal_to_half_spectrum_stepper(n, N, alpha):
    # on states zero beyond the cube the half-spectrum stepper sees the
    # same numbers: its own transforms restricted to the cube, its kept
    # modes gathered and scattered, and zeros elsewhere.  The kernel
    # streams x0-slabs of about 4096 points per field: 4 at (2, 128), 8 at
    # (3, 32), one at the other shapes
    assert len(_slabs(Grid(n, N).shape)) == {(2, 128): 4, (3, 32): 8}.get((n, N), 1)
    grid = Grid(n, N)
    stepper = SpectralStepper(grid, alpha, 1.0, 1e-3)
    reference = HalfSpectrumStepper(grid, alpha, 1.0, 1e-3)
    state = _white_noise_state(stepper, 31 * n + N)
    for ours, theirs in ((stepper.nonlinear, reference.nonlinear), (stepper.step, reference.step)):
        want = theirs(half_of(state, grid.shape))
        assert np.array_equal(half_of(cube_of(want, n), grid.shape), want)
        assert np.array_equal(ours(state), cube_of(want, n))


def test_twenty_steps_match_the_half_spectrum_stepper():
    # the half-spectrum stepper keeps the round-off its transform leaves
    # beyond the cube; the cube stepper drops it on entry
    grid = Grid(3, 16)
    u0 = random_divergence_free(grid, seed=0)
    stepper = SpectralStepper(grid, 1.0, 1.0, 2e-3)
    reference = HalfSpectrumStepper(grid, 1.0, 1.0, 2e-3)
    state = stepper.project(stepper.to_state(u0))
    want = reference.project(reference.to_state(u0))
    for _ in range(20):
        state, want = stepper.step(state), reference.step(want)
    assert _rel_err(state, cube_of(want, 3)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_to_state_drops_exactly_the_modes_beyond_the_cube(n):
    grid = Grid(n, 16)
    stepper = SpectralStepper(grid, 1.0, 1.0, 1e-3)
    u = VectorField(grid, np.random.default_rng(n).standard_normal((n,) + grid.shape))
    axes = tuple(range(-n, 0))
    state = stepper.to_state(u)
    assert np.array_equal(state, cube_of(sfft.rfftn(u.data, axes=axes, norm="forward"), n))
    back = sfft.rfftn(stepper.to_field(state).data, axes=axes, norm="forward")
    assert np.max(np.abs(back - half_of(state, grid.shape))) <= 1e-15 * np.max(np.abs(state))


def _every_initial_kind(grid):
    yield InitialSpec("taylor_green", 0.5)
    yield InitialSpec("zero")
    for j in range(grid.max_dyadic_index + 1):
        yield InitialSpec("random_band", 0.5, j)
    yield InitialSpec("random_divfree", 0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_kernel_matches_picard_kernel_for_every_initial_kind(n, alpha):
    # the convective form equals the divergence form for a divergence-free
    # field on the cube: what the stepper holds once `to_state` has cut it.
    # The error is relative to V before the projection, which leaves only
    # round-off of 2-D Taylor-Green's gradient V at alpha = 0.
    grid = Grid(n, 16)
    stepper = SpectralStepper(grid, alpha, 1.0, 1e-3)
    kinds = list(_every_initial_kind(grid))
    assert {spec.kind for spec in kinds} == set(INITIAL_KINDS)
    for spec in kinds:
        state = stepper.project(stepper.to_state(spec.build(grid, seed=3)))
        V = nonlinearity_V(stepper.to_field(state), alpha)
        want = -stepper.to_state(stokes_project(V, alpha))
        err = np.max(np.abs(stepper.nonlinear(state) - want))
        assert err <= 1e-13 * np.max(np.abs(stepper.to_state(V))), spec


def test_step_temporaries():
    grid = Grid(3, 32)
    stepper = SpectralStepper(grid, 1.0, 1.0, 2e-3)
    state = stepper.project(stepper.to_state(random_divergence_free(grid, seed=2)))
    stepper.step(state)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 11.6 MB on the half spectrum, 8.6 MB with the cube's stages and four
    # lattice-sized stacks per kernel call; the kernel's one buffer (2.2 MB)
    # and its x0-slabs need less than 6 MB
    assert peak <= 6.0e6


@pytest.mark.filterwarnings("ignore:field has spectral content beyond:UserWarning")
def test_solve_temporaries(monkeypatch):
    # the bench's solve-n32 run: 20 steps and 5 Besov rows at N = 32, with
    # the dyadic family built inside the window as in a fresh process
    monkeypatch.setattr(dyadic, "build_dyadic_family", lambda grid: dyadic.DyadicFamily(grid))
    cfg = SolverConfig(n=3, N=32, T=0.04, dt=2e-3, initial=InitialSpec("random_divfree", 0.2),
                       csv_stride=5)
    u0 = cfg.initial_field()
    solve_ivp(u0, cfg, sample_stride=0, besov_stride=cfg.csv_stride)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = solve_ivp(u0, cfg, sample_stride=0, besov_stride=cfg.csv_stride)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(traj.series["besov_step"]) == 5
    # 12.4 MB with lattice-sized family tables, four lattice-sized stacks
    # per kernel call and the final field formed before the last row
    assert peak <= 9e6


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n,N", [(2, 16), (3, 16), (3, 32)])
def test_nonlinear_matches_physical_space_oracle(n, N, alpha):
    # band-limited and divergence-free inside the mask: the kernel's
    # convective form equals div(u (x) u) and no product aliases
    grid = Grid(n, N)
    stepper = SpectralStepper(grid, alpha, 1.0, 1e-3)
    u = random_divergence_free(grid, seed=5)
    want = -stepper.to_state(leray_project(nonlinearity_V(u, alpha)))
    assert _rel_err(stepper.nonlinear(stepper.to_state(u)), want) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_forward_norm_is_exact_rescaling(n):
    # The one coefficient convention (`lanslab._fft`): each forward wrapper
    # is scipy's unnormalised transform times 1/N^n and each inverse the
    # plain Fourier sum, bitwise (N^n is a power of two).
    rng = np.random.default_rng(3)
    for N in (8, 16, 32, 64):
        shape, axes, npoints = (N,) * n, tuple(range(-n, 0)), N**n
        x = rng.standard_normal((2,) + shape)
        z = x + 1j * rng.standard_normal(x.shape)
        assert np.array_equal(_fft.fftn(x, n), sfft.fftn(x, axes=axes) / npoints)
        assert np.array_equal(_fft.fftn(z, n), sfft.fftn(z, axes=axes) / npoints)
        assert np.array_equal(_fft.ifftn(z, n), sfft.ifftn(z * npoints, axes=axes))
        for transform in (_fft.fftn, _fft.ifftn):
            assert np.array_equal(transform(z.copy(), n, overwrite=True), transform(z, n))
        cube = _fft.rfftn(x, n)
        assert np.array_equal(cube, cube_of(sfft.rfftn(x, axes=axes) / npoints, n))
        assert np.array_equal(
            _fft.irfftn(cube, shape),
            sfft.irfftn(half_of(cube, shape) * npoints, s=shape, axes=axes),
        )
