"""Time grids and the heat-kernel convolution operator.

The Duhamel integral int_{t0}^t e^{(t-s) nu Lap} g(s) ds has one engine,
`duhamel_on_nodes`, for forcings stored at the Gauss nodes of a `TimeGrid`
of composite Gauss-Legendre panels (`make_time_grid` grades them toward
s = 0, where weighted-norm forcings carry a t^{-a} profile).  It makes one
pass over the ascending output times: by the semigroup property the sum S
over completed panels is carried from edge to edge, S(e_{p+1}) =
e^{-nu h_p |k|^2} S(e_p) + (panel p at e_{p+1}), and an output at t is
e^{-nu (t - e_p) |k|^2} S(e_p) plus the partial panel [e_p, t], whose Gauss
nodes are fed by Lagrange interpolation of the panel's stored nodes.

`duhamel_apply` adapts a sampled trajectory to it: each inter-sample
interval is a 4-node panel whose values interpolate the nearest samples
by cubic stencils, so sample refinement converges at fourth order.
"""

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, to_real, to_spectral
from .grid import ksq
from .solver import Trajectory


@dataclass(frozen=True)
class TimeGrid:
    T: float
    edges: np.ndarray  # (panels + 1,)
    nodes: np.ndarray  # (panels, m) ascending within each panel
    weights: np.ndarray  # (panels, m)

    @property
    def panels(self):
        return self.nodes.shape[0]

    @property
    def nodes_per_panel(self):
        return self.nodes.shape[1]

    @property
    def flat_nodes(self):
        return self.nodes.reshape(-1)


def _gauss_panels(edges, m):
    """Nodes and weights, each (panels, m), of the m-point Gauss-Legendre
    rule on every panel [edges[p], edges[p + 1]]."""
    xg, wg = np.polynomial.legendre.leggauss(m)
    a, b = edges[:-1, None], edges[1:, None]
    return 0.5 * (b - a) * (xg[None, :] + 1.0) + a, 0.5 * (b - a) * wg[None, :]


def make_time_grid(T, panels, nodes_per_panel, grading):
    """Graded composite Gauss-Legendre grid on [0, T].

    grading = 1 gives uniform panels; larger values shrink panels toward 0.
    """
    if T <= 0 or panels < 1 or nodes_per_panel < 2:
        raise ValueError("need T > 0, panels >= 1 and at least 2 nodes per panel")
    frac = (np.arange(panels + 1) / panels) ** float(grading)
    edges = T * frac
    nodes, weights = _gauss_panels(edges, nodes_per_panel)
    return TimeGrid(T=float(T), edges=edges, nodes=nodes, weights=weights)


def _lagrange_matrix(nodes, points):
    """(len(points), len(nodes)): row j holds every Lagrange basis
    polynomial of `nodes` evaluated at points[j]."""
    off = ~np.eye(len(nodes), dtype=bool)
    ratio = (points[:, None, None] - nodes) / np.where(off, nodes[:, None] - nodes, 1.0)
    return np.where(off, ratio, 1.0).prod(axis=2)


def duhamel_on_nodes(values, tg, nu, k2, t_out):
    """Integrate node-stored spectral forcings from tg.edges[0] up to each
    output time.

    values : complex array (panels, m, ...) of spectral coefficients at the
             Gauss nodes of `tg`
    t_out  : ascending 1-D array of evaluation times; at or below
             tg.edges[0] the result is zero
    """
    t_out = np.asarray(t_out, float)
    if np.any(np.diff(t_out) < 0):
        raise ValueError("output times must be ascending")
    edges, m = tg.edges, tg.nodes_per_panel
    xg, wg = np.polynomial.legendre.leggauss(m)
    tol = 1e-14 * max(1.0, tg.T)
    out = np.zeros((len(t_out),) + values.shape[2:], dtype=complex)
    # the sum over the completed panels [0, done), taken at edges[done]
    carry, done = np.zeros(values.shape[2:], dtype=complex), 0
    for acc, t in zip(out, t_out):
        if t <= edges[0]:
            continue
        while done < tg.panels and t >= edges[done + 1] - tol:
            e = edges[done + 1]
            if done:  # the carry of the first panel is zero
                carry *= np.exp(-nu * (e - edges[done]) * k2)
            for w, s, g in zip(tg.weights[done], tg.nodes[done], values[done]):
                carry += (w * np.exp(-nu * (e - s) * k2)) * g
            done += 1
        if done:
            lag = t - edges[done]
            np.multiply(carry, 1.0 if lag == 0 else np.exp(-nu * lag * k2), out=acc)
        if done < tg.panels and t > edges[done]:
            a = edges[done]
            s = 0.5 * (t - a) * (xg + 1.0) + a
            g = _lagrange_matrix(tg.nodes[done], s) @ values[done].reshape(m, -1)
            for gj, w, sj in zip(g.reshape(values[done].shape), 0.5 * (t - a) * wg, s):
                gj *= w * np.exp(-nu * (t - sj) * k2)  # g is a temporary: scale in place
                acc += gj
            del g, gj  # freed before the next panel's temporaries exist
    return out


def duhamel_apply(traj, times):
    """Heat-kernel time convolution (nu = 1) of a sampled forcing at each
    of the ascending `times`, as a Trajectory of real fields.

    `traj` is any object with `times` (increasing) and `fields`.  Between
    consecutive samples the forcing is interpolated by a cubic Lagrange
    stencil of the nearest samples; each interval is a 4-node Gauss panel.
    """
    edges = np.asarray(traj.times, float)
    times = np.asarray(times, float)
    outside = times[(times < edges[0] - 1e-12) | (times > edges[-1] + 1e-12)]
    if outside.size:
        raise ValueError(f"t={outside[0]} outside trajectory support [{edges[0]}, {edges[-1]}]")
    grid = traj.fields[0].grid
    coeffs = np.stack([to_spectral(f).coeffs for f in traj.fields])
    nodes, weights = _gauss_panels(edges, 4)
    tg = TimeGrid(T=float(edges[-1]), edges=edges, nodes=nodes, weights=weights)
    last, flat = len(edges) - 1, coeffs.reshape(len(edges), -1)
    values = np.empty((last, 4, flat.shape[1]), dtype=complex)
    for p in range(last):
        lo, hi = max(p - 1, 0), min(p + 2, last) + 1  # the samples of p's stencil
        values[p] = _lagrange_matrix(edges[lo:hi], nodes[p]) @ flat[lo:hi]
    values = values.reshape(nodes.shape + coeffs.shape[1:])
    out = duhamel_on_nodes(values, tg, 1.0, ksq(grid), times)
    return Trajectory(times, [to_real(SpectralField(grid, c)) for c in out])
