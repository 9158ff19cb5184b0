import math

import numpy as np
import pytest

import quadrature_reference as ref
from lanslab.fields import fourier_mode, l2_norm, random_band_mixture, zero_field
from lanslab.grid import Grid, ksq
from lanslab.quadrature import _lagrange_matrix, duhamel_apply, duhamel_on_nodes, make_time_grid
from lanslab.solver import Trajectory


def constant_trajectory(grid, f, T, nsamples):
    ts = np.linspace(0.0, T, nsamples)
    return Trajectory(times=ts, fields=[f] * nsamples)


def test_time_grid_shapes_and_weights():
    tg = make_time_grid(2.0, panels=5, nodes_per_panel=4, grading=2.0)
    assert tg.edges[0] == 0.0 and tg.edges[-1] == pytest.approx(2.0)
    assert np.all(np.diff(tg.edges) > 0)
    # grading concentrates panels near zero
    assert tg.edges[1] < 2.0 / 5.0
    widths = np.diff(tg.edges)
    assert np.allclose(tg.weights.sum(axis=1), widths)
    assert np.all((tg.nodes > tg.edges[:-1, None]) & (tg.nodes < tg.edges[1:, None]))


def test_time_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        make_time_grid(0.0, 4, 4, 2.0)
    with pytest.raises(ValueError):
        make_time_grid(1.0, 4, 1, 2.0)


def test_duhamel_constant_forcing_oracle(grid3d):
    # g = const mode with |k|^2 = 4, nu = 1, t = 1: factor (1 - e^-4)/4
    mode = fourier_mode(grid3d, (2, 0, 0), ncomp=3)
    traj = constant_trajectory(grid3d, mode, T=1.0, nsamples=17)
    out = duhamel_apply(traj, [1.0]).final()
    factor = (1.0 - math.exp(-4.0)) / 4.0
    err = l2_norm(out - factor * mode) / (factor * l2_norm(mode))
    assert err < 1e-10


def test_duhamel_zero_forcing(grid3d):
    traj = constant_trajectory(grid3d, zero_field(grid3d), T=1.0, nsamples=5)
    assert l2_norm(duhamel_apply(traj, [0.7]).final()) == 0.0


def test_duhamel_out_of_support(grid3d):
    traj = constant_trajectory(grid3d, zero_field(grid3d), T=0.5, nsamples=5)
    with pytest.raises(ValueError):
        duhamel_apply(traj, [0.8])


def _sin_forcing_error(grid, nsamples, t=0.75, a=4.0):
    mode = fourier_mode(grid, (2, 0, 0), ncomp=3)
    ts = np.linspace(0.0, 1.0, nsamples)
    fields = [math.sin(s) * mode for s in ts]
    traj = Trajectory(times=ts, fields=fields)
    out = duhamel_apply(traj, [t]).final()
    exact = (a * math.sin(t) - math.cos(t) + math.exp(-a * t)) / (1.0 + a * a)
    return l2_norm(out - exact * mode) / abs(exact)


def test_duhamel_refinement_order(grid3d_small):
    e1 = _sin_forcing_error(grid3d_small, 9)
    e2 = _sin_forcing_error(grid3d_small, 17)
    assert e2 < e1 / 4.0  # at least second order; cubic stencils give ~4th


def test_duhamel_on_nodes_matches_closed_form(grid3d_small):
    from lanslab.fields import to_spectral
    from lanslab.grid import ksq

    grid = grid3d_small
    mode = fourier_mode(grid, (2, 0, 0), ncomp=3)
    tg = make_time_grid(1.0, panels=6, nodes_per_panel=4, grading=1.5)
    coeffs = to_spectral(mode).coeffs
    values = np.broadcast_to(
        coeffs, (tg.panels, tg.nodes_per_panel) + coeffs.shape
    ).copy()
    t_out = np.array([0.0, tg.nodes[2, 1], 1.0])
    out = duhamel_on_nodes(values, tg, 1.0, ksq(grid), t_out)
    for row, t in zip(out, t_out):
        exact = (1.0 - math.exp(-4.0 * t)) / 4.0 if t > 0 else 0.0
        err = np.max(np.abs(row - exact * coeffs))
        assert err < 1e-10


# ----------------------------------------------------------------------
# the linear-pass engine and its adapter against the slow reference

GRID = Grid(2, 8)


def _max_gap(new, old):
    """Largest deviation relative to the largest reference coefficient."""
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_engine_matches_reference(m, grading):
    tg = make_time_grid(0.8, 5, m, grading)
    rng = np.random.default_rng(10 * m + int(grading))
    shape = (tg.panels, m, GRID.n) + GRID.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mids = 0.5 * (tg.edges[:-1] + tg.edges[1:])
    # below and at edges[0], every node, every edge (T last), mid-panels
    t_out = np.sort(np.concatenate([[-0.1], tg.flat_nodes, tg.edges, mids]))
    k2 = ksq(GRID)
    new = duhamel_on_nodes(values, tg, 0.7, k2, t_out)
    old = ref.duhamel_on_nodes(values, tg, 0.7, k2, t_out)
    assert np.all(new[t_out <= 0.0] == 0.0)
    assert _max_gap(new, old) <= 1e-14


def test_engine_rejects_descending_outputs():
    tg = make_time_grid(1.0, 2, 2, 1.0)
    values = np.zeros((2, 2, GRID.n) + GRID.shape, dtype=complex)
    with pytest.raises(ValueError, match="ascending"):
        duhamel_on_nodes(values, tg, 1.0, ksq(GRID), [0.5, 0.25])


@pytest.mark.parametrize("nsamples, t0", [(2, 0.0), (3, 0.2), (17, 0.0)])
def test_adapter_matches_reference(nsamples, t0):
    rng = np.random.default_rng(nsamples)
    ts = t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.1, nsamples - 1))])
    f0, f1 = (random_band_mixture(GRID, seed=s) for s in (1, 2))
    fields = [math.cos(3 * t) * f0 + t**2 * f1 for t in ts]
    traj = Trajectory(times=ts, fields=fields)
    times = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])]))
    new = duhamel_apply(traj, times)
    old = np.stack([ref.duhamel_apply(traj, t).data for t in times])
    assert np.array_equal(new.times, times)
    assert np.all(new.fields[0].data == 0.0)
    assert _max_gap(np.stack([f.data for f in new.fields]), old) <= 1e-14


def _matmul_interpolate(nodes, points, values):
    """The Lagrange products as a matmul, the form that runs on threaded BLAS."""
    flat = values.reshape(len(nodes), -1)
    return (_lagrange_matrix(nodes, points) @ flat).reshape((len(points),) + values.shape[1:])


def _complex_einsum_interpolate(nodes, points, values):
    """The Lagrange products with the real matrix cast to complex."""
    return np.einsum("ij,j...->i...", _lagrange_matrix(nodes, points), values)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_interpolation_matches_its_matmul_form(monkeypatch, m):
    import lanslab.quadrature as quadrature

    tg = make_time_grid(0.8, 3, m, 2.0)
    rng = np.random.default_rng(m)
    shape = (tg.panels, m, GRID.n) + GRID.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t_out = np.sort(np.concatenate([tg.flat_nodes, 0.5 * (tg.edges[:-1] + tg.edges[1:])]))
    ts = np.linspace(0.0, 0.5, 2 * m + 1)
    f0, f1 = (random_band_mixture(GRID, seed=s) for s in (1, 2))
    traj = Trajectory(times=ts, fields=[math.cos(3 * t) * f0 + t**2 * f1 for t in ts])
    k2 = ksq(GRID)
    nodes, applied = duhamel_on_nodes(values, tg, 0.7, k2, t_out), duhamel_apply(traj, ts)
    # the float view computes the complex form's products and sums exactly
    monkeypatch.setattr(quadrature, "_interpolate", _complex_einsum_interpolate)
    assert np.array_equal(nodes, duhamel_on_nodes(values, tg, 0.7, k2, t_out))
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(applied.fields, duhamel_apply(traj, ts).fields))
    monkeypatch.setattr(quadrature, "_interpolate", _matmul_interpolate)
    assert _max_gap(nodes, duhamel_on_nodes(values, tg, 0.7, k2, t_out)) <= 1e-15
    matmul = duhamel_apply(traj, ts)
    gap = _max_gap(np.stack([f.data for f in applied.fields]),
                   np.stack([f.data for f in matmul.fields]))
    assert gap <= 1e-15
