"""Slow reference for the Picard sweep: the loop `picard_solve` ran before
it held one list of iterate spectra, kept verbatim.  Each sweep stacks the
full-spectrum node forcing, integrates it on every mode and forms
`gamma - correction` for all output times at once, so gamma, the old and
the new iterates, the forcing and the correction are alive together.
`tests/test_picard.py` cross-checks `lanslab.picard.picard_solve` against it.
"""

import math

import numpy as np

from lanslab.dyadic import BesovIndex, build_dyadic_family
from lanslab.dynamics import nonlinearity_V
from lanslab.fields import SpectralField, to_spectral
from lanslab.grid import ksq
from lanslab.operators import stokes_project
from lanslab.picard import _RESIDUAL_BAIL, PicardReport, check_admissibility
from lanslab.quadrature import duhamel_on_nodes, make_time_grid
from lanslab.solver import Trajectory


def picard_solve(u0, cfg):
    """Iterate the mild-formulation map to a fixed point on [0, cfg.T].

    Returns (Trajectory, PicardReport); `converged` is False when the
    residual fails to fall below cfg.picard.tol within cfg.picard.max_iter
    sweeps (the usual signal that the horizon is too long for this data).
    The trajectory holds spectra (SpectralField): u0 at t = 0, then the
    last iterate at the Gauss nodes and at T, whose auxiliary-index block
    norms are memoized on them.
    """
    grid = cfg.grid
    bz = cfg.besov
    a = check_admissibility(grid.n, bz.r, bz.s, bz.p, bz.p_tilde, bz.q)
    family = build_dyadic_family(grid)
    idx_base = BesovIndex(bz.r, bz.p, bz.q)
    idx_aux = BesovIndex(bz.s, bz.p_tilde, bz.q)

    pp = cfg.picard
    tg = make_time_grid(cfg.T, pp.panels, pp.nodes_per_panel, pp.grading)
    node_times = tg.flat_nodes
    out_times = np.append(node_times, cfg.T)
    k2 = ksq(grid)
    nu = cfg.nu

    u0 = to_spectral(u0)
    t_bcast = out_times.reshape((-1,) + (1,) * (grid.n + 1))
    gamma = np.exp(-nu * t_bcast * k2[None, None]) * u0.coeffs[None]
    weights = out_times**a

    def spectra_of(states):
        return [SpectralField(grid, c) for c in states]

    def differences(states, others):
        return (SpectralField(grid, u - v) for u, v in zip(states, others))

    # norms are taken on the spectra held here, never on a physical round
    # trip, one state at a time; norms of one SpectralField at equal p share
    # its memoized block norms
    def norms(states, *indices):
        """One row of norms over the states per index."""
        rows = [[family.besov_norm(F, i) for i in indices] for F in states]
        return np.array(rows).T

    current, current_fields = gamma, spectra_of(gamma)
    (gamma_aux,) = norms(current_fields, idx_aux)
    weighted_gamma = float(np.max(weights * gamma_aux))
    ball = pp.ball_radius if pp.ball_radius is not None else 2.0 * weighted_gamma

    residuals, ratios, membership, membership_ok = [], [], [], []
    converged = False
    sweeps = 0
    for sweeps in range(1, pp.max_iter + 1):
        # forcing at the quadrature nodes (the last output time is T itself,
        # excluded from the node set), from the held spectra
        forc = np.stack(
            [
                stokes_project(nonlinearity_V(F, cfg.alpha), cfg.alpha).coeffs
                for F in current_fields[:-1]
            ]
        ).reshape((tg.panels, tg.nodes_per_panel) + u0.coeffs.shape)
        correction = duhamel_on_nodes(forc, tg, nu, k2, out_times)
        updated = gamma - correction

        diff_base, diff_aux = norms(differences(updated, current), idx_base, idx_aux)
        residual = float(np.max(diff_base) + np.max(weights * diff_aux))
        residuals.append(residual)
        if len(residuals) >= 2 and residuals[-2] > 0:
            ratios.append(residual / residuals[-2])

        # in the first sweep current is gamma, so updated - gamma is the
        # difference just measured
        if current is gamma:
            up_base = diff_base
        else:
            (up_base,) = norms(differences(updated, gamma), idx_base)
        updated_fields = spectra_of(updated)
        (up_aux,) = norms(updated_fields, idx_aux)
        mixed = float(np.max(up_base) + np.max(weights * up_aux))
        membership.append(mixed)
        membership_ok.append(mixed <= ball * (1.0 + 1e-9) + 1e-30)

        current, current_fields = updated, updated_fields
        if residual <= pp.tol:
            converged = True
            break
        if not math.isfinite(residual) or residual > _RESIDUAL_BAIL:
            break

    report = PicardReport(
        converged=converged,
        iterates=sweeps,
        residuals=residuals,
        contraction_ratios=ratios,
        ball_radius=ball,
        horizon=cfg.T,
        weight_a=a,
        indices={"r": bz.r, "s": bz.s, "p": bz.p, "p_tilde": bz.p_tilde, "q": bz.q},
        membership=membership,
        membership_ok=membership_ok,
    )
    traj = Trajectory(times=np.concatenate([[0.0], out_times]), fields=[u0, *current_fields])
    return traj, report
