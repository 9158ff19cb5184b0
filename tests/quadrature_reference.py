"""Slow reference for the Duhamel quadrature: the two engines lanslab had
before `duhamel_on_nodes` ran in linear passes, kept verbatim.  Every
full panel below an output time is re-summed with a fresh heat factor, and
each partial-panel node is interpolated by a double Python loop.
`tests/test_quadrature.py` cross-checks the engine and its sampled-
trajectory adapter against them.
"""

import numpy as np

from lanslab.fields import VectorField, to_spectral
from lanslab.grid import ksq


def _lagrange_row(ts, t):
    """Lagrange basis values at t for nodes ts (small stencils only)."""
    row = np.ones(len(ts))
    for i, ti in enumerate(ts):
        for j, tj in enumerate(ts):
            if i != j:
                row[i] *= (t - tj) / (ti - tj)
    return row


def duhamel_apply(traj, t, nu=1.0):
    """Heat-kernel time convolution of a sampled forcing, evaluated at t.

    `traj` is any object with `times` (increasing) and `fields`.  Between
    consecutive samples the forcing is interpolated by a cubic Lagrange
    stencil; each interval is integrated with a 4-node Gauss rule.
    """
    times = np.asarray(traj.times, float)
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"t={t} outside trajectory support [{times[0]}, {times[-1]}]")
    if t <= times[0]:
        g0 = traj.fields[0]
        return VectorField(g0.grid, np.zeros_like(g0.data))
    grid = traj.fields[0].grid
    k2 = ksq(grid)
    coeffs = np.stack([to_spectral(f).coeffs for f in traj.fields])
    xg, wg = np.polynomial.legendre.leggauss(4)
    acc = np.zeros_like(coeffs[0])
    nseg = len(times) - 1
    for seg in range(nseg):
        a, b = times[seg], min(times[seg + 1], t)
        if b <= a:
            break
        lo = max(seg - 1, 0)
        hi = min(seg + 2, nseg)
        stencil = np.arange(lo, hi + 1)
        s_nodes = 0.5 * (b - a) * (xg + 1.0) + a
        s_weights = 0.5 * (b - a) * wg
        for s, w in zip(s_nodes, s_weights):
            lag = _lagrange_row(times[stencil], s)
            g_hat = np.tensordot(lag, coeffs[stencil], axes=(0, 0))
            acc += w * np.exp(-nu * (t - s) * k2) * g_hat
        if times[seg + 1] >= t:
            break
    from lanslab.fields import SpectralField, to_real

    return to_real(SpectralField(grid, acc))


def duhamel_on_nodes(values, tg, nu, k2, t_out):
    """Integrate node-stored spectral forcings up to each output time.

    values : complex array (panels, m, ...) of spectral coefficients at the
             Gauss nodes of `tg`
    t_out  : 1-D array of evaluation times (panel nodes and/or edges)

    Full panels below t use their native Gauss rule; the panel containing t
    is re-integrated on [edge, t] with Gauss nodes fed by Lagrange
    interpolation from that panel's stored nodes.
    """
    t_out = np.asarray(t_out, float)
    m = tg.nodes_per_panel
    xg, wg = np.polynomial.legendre.leggauss(m)
    out = np.zeros((len(t_out),) + values.shape[2:], dtype=complex)
    for it, t in enumerate(t_out):
        if t <= 0:
            continue
        acc = np.zeros(values.shape[2:], dtype=complex)
        for p in range(tg.panels):
            a, b = tg.edges[p], tg.edges[p + 1]
            if t >= b - 1e-14 * max(1.0, tg.T):
                for i in range(m):
                    acc += (
                        tg.weights[p, i]
                        * np.exp(-nu * (t - tg.nodes[p, i]) * k2)
                        * values[p, i]
                    )
            elif t > a:
                s_nodes = 0.5 * (t - a) * (xg + 1.0) + a
                s_weights = 0.5 * (t - a) * wg
                for s, w in zip(s_nodes, s_weights):
                    lag = _lagrange_row(tg.nodes[p], s)
                    g_hat = np.tensordot(lag, values[p], axes=(0, 0))
                    acc += w * np.exp(-nu * (t - s) * k2) * g_hat
                break
            else:
                break
        out[it] = acc
    return out
