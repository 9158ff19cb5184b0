"""Transform budgets of the spectral kernels.

Every c2c transform goes through `lanslab._fft.fftn`/`ifftn`; these tests
count the points they are handed, so an edit that brings back a round trip
(a real-space detour, one inverse per dyadic table) fails here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lanslab import _fft
from lanslab.dyadic import build_dyadic_family
from lanslab.dynamics import nonlinearity_V, reynolds_stress_divergence
from lanslab.fields import random_band_mixture, random_divergence_free, to_spectral
from lanslab.grid import Grid
from lanslab.operators import stokes_project
from lanslab.picard import picard_solve
from lanslab.quadrature import duhamel_apply
from lanslab.solver import InitialSpec, PicardParams, SolverConfig, Trajectory, solve_ivp

GRID = Grid(3, 32)
NPTS = GRID.npoints


@pytest.fixture
def counted(monkeypatch):
    """Points handed to each c2c transform, in call order."""
    points = []
    for name in ("fftn", "ifftn"):
        original = getattr(_fft, name)

        def wrapper(a, nax, _original=original, **kwargs):
            points.append(a.size)
            return _original(a, nax, **kwargs)

        monkeypatch.setattr(_fft, name, wrapper)
    return points


def test_block_samples_pairs_the_tables(counted):
    fam = build_dyadic_family(GRID)  # j_max = 3: four annular tables
    F = to_spectral(random_band_mixture(GRID, seed=1, ncomp=3))
    counted.clear()
    fam.block_samples(F)
    # the low-pass block is the mean: two paired inverses per component,
    # not three with the low-pass table paired in, nor five one by one
    assert sum(counted) <= 6 * NPTS
    assert len(counted) == 1


@pytest.mark.parametrize("N, inverses", [(16, 5), (32, 6), (64, 8)])
def test_block_samples_fills_every_slot(counted, N, inverses):
    # ceil((j_max + 1) ncomp / 2) for a velocity field: an odd last table
    # (N = 16 and 64) pairs its components instead of leaving half a slot
    grid = Grid(3, N)
    fam = build_dyadic_family(grid)
    F = to_spectral(random_band_mixture(grid, seed=1, ncomp=3))
    counted.clear()
    fam.block_samples(F)
    assert counted == [inverses * grid.npoints]


@pytest.mark.parametrize("alpha, budget", [(1.0, 19), (0.0, 11)])
def test_spectral_nonlinearity_budget(counted, alpha, budget):
    F = to_spectral(random_divergence_free(GRID, seed=2))
    counted.clear()
    stokes_project(nonlinearity_V(F, alpha), alpha)
    # two real fields per transform: u and at alpha > 0 the gradient (6,
    # or 2 for u alone), the dealias round trip and transform of the flux's
    # upper triangle (9) and at alpha > 0 the 8 stress products a trace-free
    # tensor needs (4, from 5 for all 9); one transform per real field took
    # 39 (21), the real-space route 96
    assert sum(counted) <= budget * NPTS


def test_stress_divergence_budget(counted):
    u = random_divergence_free(GRID, seed=3)
    counted.clear()
    reynolds_stress_divergence(u, 1.0)
    # u (3), the paired gradient (5) and trace-free stress product (4, from
    # 5) and the result (3); one transform per real field took 24, the
    # tensor route through physical samples 60
    assert sum(counted) <= 15 * NPTS


def test_nonlinearity_temporaries():
    F = to_spectral(random_divergence_free(GRID, seed=2))
    nonlinearity_V(F, 1.0)  # caches the grid tables outside the window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nonlinearity_V(F, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 16.5 MB with one complex transform per real field; the paired stacks
    # and kept-mode spectra need about 7.9 MB
    assert peak <= 9e6


@pytest.mark.parametrize("name", ["fftn", "ifftn"])
def test_overwrite_is_bitwise_equal(name):
    transform = getattr(_fft, name)
    re, im = np.random.default_rng(5).standard_normal((2, 3) + (16,) * 3)
    a = re + 1j * im
    kept = a.copy()
    want = transform(a, 3)
    assert np.array_equal(a, kept)  # the default leaves its input alone
    assert np.array_equal(transform(kept, 3, overwrite=True), want)


def test_duhamel_apply_transforms_each_sample_and_output_once(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        original = getattr(_fft, name)

        def wrapper(a, nax, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(a, nax, **kwargs)

        monkeypatch.setattr(_fft, name, wrapper)
    grid = Grid(3, 16)
    ts = np.linspace(0.0, 1.0, 9)
    f = random_band_mixture(grid, seed=4, ncomp=3)
    traj = Trajectory(times=ts, fields=[float(1.0 + t) * f for t in ts])
    calls.update(fftn=0, ifftn=0)
    duhamel_apply(traj, ts[1:6])
    # S = 9 forward and K = 5 inverse transforms; one call per output time
    # used to re-transform every sample
    assert calls == {"fftn": 9, "ifftn": 5}


@pytest.fixture
def c2c_calls(monkeypatch):
    """(name, transformed extents, points) of each c2c transform, in call order."""
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(_fft, name)

        def wrapper(a, nax, _original=original, _name=name, **kwargs):
            calls.append((_name, a.shape[a.ndim - nax :], a.size))
            return _original(a, nax, **kwargs)

        monkeypatch.setattr(_fft, name, wrapper)
    return calls


def test_solve_makes_no_lattice_c2c_transform(c2c_calls):
    # the stepper's projection is the one a solve makes: a full-spectrum
    # leray_project in front of it took 2 c2c transforms of a 3 x N^n
    # lattice stack.  The stepper's own c2c transforms are single-axis
    # passes over its buffer, which spans the lattice along all axes but
    # the last and the cube (N//3 + 1) along it: per kernel call 2 inverse
    # passes along x0 and 1 forward, and 2 forward along x1
    cfg = SolverConfig(n=3, N=16, T=0.01, dt=5e-3)
    u0 = cfg.initial_field()
    c2c_calls.clear()
    solve_ivp(u0, cfg, sample_stride=0, besov_stride=0)
    assert len(c2c_calls) == 5 * 4 * cfg.steps
    assert {shape for _, shape, _ in c2c_calls} == {(cfg.N,)}
    buffer = 12 * cfg.N ** 2 * (cfg.N // 3 + 1)
    assert max(points for _, _, points in c2c_calls) == buffer


def test_solve_besov_rows_take_no_real_transform_or_forward(c2c_calls, monkeypatch):
    # a row norms the state's spectrum completed from the cube: per step 4
    # stages of inverse real transforms of 12 fields (u and its gradient)
    # and forward ones of 12 (the flux), u0's forward and the final state's
    # inverse, in real-transform points (the kernel makes its real
    # transforms per x0-slab); per row one block evaluation (5 lattice
    # inverses at N = 16) and no forward lattice transform.  A row taken
    # from real samples added an inverse real transform and a c2c forward
    real = []
    rfftn, irfftn = _fft.rfftn, _fft.irfftn
    monkeypatch.setattr(_fft, "rfftn", lambda a, nax: real.append(a.size) or rfftn(a, nax))
    monkeypatch.setattr(
        _fft, "irfftn",
        lambda a, shape: real.append(a[(..., *(0,) * len(shape))].size * math.prod(shape))
        or irfftn(a, shape),
    )
    cfg = SolverConfig(n=3, N=16, T=0.04, dt=5e-3)
    npoints = cfg.grid.npoints
    c2c_calls.clear()
    traj = solve_ivp(cfg.initial_field(), cfg, sample_stride=0, besov_stride=3)
    rows = len(traj.series["besov_step"])
    assert (cfg.steps, rows) == (8, 4)
    assert sum(real) == (4 * (12 + 12) * cfg.steps + 3 + 3) * npoints
    lattice = [call for call in c2c_calls if call[1] == cfg.grid.shape]
    assert lattice == [("ifftn", cfg.grid.shape, 5 * npoints)] * rows


def test_picard_trajectory_norms_are_memoized(counted, monkeypatch):
    import lanslab.picard as picard

    marks = []
    original = picard.duhamel_on_nodes
    monkeypatch.setattr(
        picard, "duhamel_on_nodes", lambda *a: marks.append(len(counted)) or original(*a)
    )
    cfg = SolverConfig(
        n=3, N=16, T=0.1, initial=InitialSpec("taylor_green", 0.02),
        picard=PicardParams(max_iter=3, panels=2, nodes_per_panel=2),
    )
    assert cfg.besov.p == cfg.besov.p_tilde
    traj, _ = picard_solve(cfg.initial_field(), cfg)
    # u0's forward transform, then one block evaluation (5 inverses at
    # N = 16) for its base and auxiliary norms on the data as given
    # (`initial_spectrum`); every later norm, the trajectory's included, is
    # a Parseval sum on the cube, so the last quadrature is followed by no
    # transform at all
    outputs = 2 * 2 + 1
    assert counted[:2] == [3 * cfg.grid.npoints, 5 * cfg.grid.npoints]
    assert counted[marks[-1]:] == []
    assert len(traj.series["besov_base"]) == outputs + 1


@pytest.mark.filterwarnings("ignore:field has spectral content")
def test_picard_sweep_budget(counted, monkeypatch):
    import lanslab.picard as picard

    marks = []
    original = picard.duhamel_on_nodes
    monkeypatch.setattr(
        picard, "duhamel_on_nodes", lambda *a: marks.append(sum(counted)) or original(*a)
    )
    cfg = SolverConfig(
        n=3, N=32, T=0.5, initial=InitialSpec("random_divfree", 0.01),
        picard=PicardParams(tol=1e-300, max_iter=3, panels=2, nodes_per_panel=2),
    )
    picard_solve(cfg.initial_field(), cfg)
    # from one quadrature to the next: the next sweep's four nonlinearities
    # (19 each); every norm is a Parseval sum on the cube
    assert len(marks) == 3
    assert marks[2] - marks[1] <= 4 * 19 * NPTS
