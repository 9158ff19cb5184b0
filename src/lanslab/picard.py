"""Fixed-point machinery for the mild formulation of the filtered dynamics.

The map iterated is

    Phi(u)(t) = e^{t nu Lap} u0 - int_0^t e^{(t-s) nu Lap} P[V(u(s))] ds,

with P the filtered (Stokes) projection and V the momentum-flux plus
stress nonlinearity.  Iterates live on a graded Gauss node grid; the
residual is measured in the mixed norm

    sup_t ||.||_{B^r_{p,q}}  +  sup_t t^a ||.||_{B^s_{p~,q}},

and membership in the contraction ball ||u - Gamma u0||_{0;r,p,q} +
||u||_{a;s,p~,q} <= M is recorded each sweep.  The index tuple must pass
the admissibility conditions below (the b-bar = 1 reduction); the checker
rejects violations with a structured error.

Every iterate is e^{t nu Lap} u0 minus a Duhamel correction, and P[V(u)]
vanishes off the modes the 2/3 rule keeps, so the iterate is held as one
correction stack on those modes (`grid.kept_modes`); so are the residual's
difference and u - e^{t nu Lap} u0, normed there by
`DyadicFamily.kept_besov_norms`.  One pass over the output times then forms
each state once for its auxiliary norm and for the next sweep's forcing,
or, in the last sweep (known by then), for its base norm, and drops it.
Gamma u0 gets the same pass before the first sweep.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dyadic import BesovIndex, build_dyadic_family
from .dynamics import nonlinearity_V
from .errors import AdmissibilityError
from .fields import SpectralField, to_spectral
from .grid import kept_modes, ksq
from .operators import stokes_project
from .quadrature import duhamel_on_nodes, make_time_grid
from .solver import Trajectory


def check_admissibility(n, r, s, p, p_tilde, q):
    """Validate the index tuple for the contraction argument; returns the
    weight exponent a.

    The reduced condition list (auxiliary exponent fixed at its minimal
    value 1) with s_bar = s - 1 - r + n/p:
      1 < p <= p~ < inf, 1 <= q <= inf, s > 1, r > n/p,
      0 <= s_bar < s - 1, s_bar p~ < n, 0 < 2a = s - r + n/p - n/p~ < 1,
      1 < n p~ / (2n - s_bar p~) < inf, 0 <= n/p~ - s_bar < 1,
      s_bar <= n/p <= 1 + s_bar.
    """
    violations = []
    if not (1 < p <= p_tilde):
        violations.append(f"need 1 < p <= p_tilde (p={p}, p_tilde={p_tilde})")
    if math.isinf(p_tilde):
        violations.append("p_tilde must be finite")
    if not 1 <= q:
        violations.append(f"need q >= 1 (q={q})")
    if not s > 1:
        violations.append(f"need s > 1 (s={s})")
    if not r > n / p:
        violations.append(f"need r > n/p = {n / p} (r={r})")
    s_bar = s - 1.0 - r + n / p
    if not 0 <= s_bar:
        violations.append(f"need s_bar = s-1-r+n/p >= 0 (s_bar={s_bar:.4g})")
    if not s_bar < s - 1:
        violations.append(f"need s_bar < s-1 (s_bar={s_bar:.4g}, s-1={s - 1})")
    if not s_bar * p_tilde < n:
        violations.append(f"need s_bar*p_tilde < n (got {s_bar * p_tilde:.4g})")
    two_a = s - r + n / p - n / p_tilde
    if not 0 < two_a < 1:
        violations.append(f"need 0 < s - r + n/p - n/p_tilde < 1 (got {two_a:.4g})")
    denom = 2 * n - s_bar * p_tilde
    if not (denom > 0 and n * p_tilde / denom > 1):
        violations.append("need 1 < n*p_tilde/(2n - s_bar*p_tilde) < inf")
    if not 0 <= n / p_tilde - s_bar < 1:
        violations.append(f"need 0 <= n/p_tilde - s_bar < 1 (got {n / p_tilde - s_bar:.4g})")
    if not s_bar <= n / p <= 1 + s_bar:
        violations.append(f"need s_bar <= n/p <= 1 + s_bar (s_bar={s_bar:.4g}, n/p={n / p})")
    if violations:
        raise AdmissibilityError(violations)
    return two_a / 2.0


@dataclass
class PicardReport:
    converged: bool
    iterates: int
    residuals: list
    contraction_ratios: list
    ball_radius: float
    horizon: float
    weight_a: float
    indices: dict
    membership: list = field(default_factory=list)  # mixed-ball norm per sweep
    membership_ok: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


_RESIDUAL_BAIL = 1e8


def picard_solve(u0, cfg):
    """Iterate the mild-formulation map to a fixed point on [0, cfg.T].

    u0 is taken as given, divergence-free as every `InitialSpec` kind is;
    unlike `solve_ivp`, this does not project it.

    Returns (Trajectory, PicardReport); `converged` is False when the
    residual fails to fall below cfg.picard.tol within cfg.picard.max_iter
    sweeps (the usual signal that the horizon is too long for this data).
    The trajectory holds the last iterate at T (a SpectralField) and, in
    `series`, the base Besov norm of u0 and of the last iterate at every
    output time ("besov_t", "besov_base"), the shape `solve_ivp` returns
    with sample_stride = 0.  Between sweeps the correction stack and the
    next sweep's forcing are held; a pass holds one state at a time.
    """
    grid = cfg.grid
    bz = cfg.besov
    a = check_admissibility(grid.n, bz.r, bz.s, bz.p, bz.p_tilde, bz.q)
    family = build_dyadic_family(grid)
    idx_base = BesovIndex(bz.r, bz.p, bz.q)
    idx_aux = BesovIndex(bz.s, bz.p_tilde, bz.q)

    pp = cfg.picard
    tg = make_time_grid(cfg.T, pp.panels, pp.nodes_per_panel, pp.grading)
    out_times = np.append(tg.flat_nodes, cfg.T)
    weights = out_times**a
    k2 = ksq(grid)
    nu = cfg.nu
    # the correction and the forcing are held on the modes the 2/3 rule keeps
    kept, _ = kept_modes(grid)
    u0 = to_spectral(u0)

    def state_pass(corr, last):
        """Form each iterate state e^{t nu Lap} u0 - corr once and take its
        auxiliary norm; then write the node's forcing P V(u) on the kept
        modes (T itself is not a node) or, in the last sweep, take its base
        norm (at p = p~ from the same block norms) and drop it.  Returns
        (auxiliary norms, forcing, base norms, state at T): the last sweep
        has no forcing, an earlier one neither base norms nor a state."""
        aux, base = [], []
        forc = None if last else np.empty((tg.flat_nodes.size, grid.n, kept.size), dtype=complex)
        for i, t in enumerate(out_times):
            coeffs = np.exp((-nu * t) * k2) * u0.coeffs
            coeffs.reshape(grid.n, -1)[:, kept] -= corr[i]
            u = SpectralField(grid, coeffs)
            aux.append(family.besov_norm(u, idx_aux))
            if last:
                base.append(family.besov_norm(u, idx_base))
            elif i < len(forc):
                V = stokes_project(nonlinearity_V(u, cfg.alpha), cfg.alpha).coeffs
                np.take(V.reshape(grid.n, -1), kept, axis=1, out=forc[i])
                del V  # freed before the next node's nonlinearity runs
        return np.array(aux), forc, base, u if last else None

    # the iterate is gamma = e^{t nu Lap} u0 minus this correction
    corr = np.zeros((len(out_times), grid.n, kept.size), dtype=complex)
    gamma_aux, forc, _, _ = state_pass(corr, last=False)
    weighted_gamma = float(np.max(weights * gamma_aux))
    ball = pp.ball_radius if pp.ball_radius is not None else 2.0 * weighted_gamma

    residuals, ratios, membership, membership_ok = [], [], [], []
    for sweeps in range(1, pp.max_iter + 1):
        new = duhamel_on_nodes(forc.reshape(tg.nodes.shape + forc.shape[1:]), tg, nu,
                               k2.reshape(-1)[kept], out_times)
        del forc
        # the residual's difference is corr - new and u - gamma is -new, both
        # on the kept modes
        rows = [family.kept_besov_norms(c - n, idx_base, idx_aux)
                + family.kept_besov_norms(n, idx_base) for c, n in zip(corr, new)]
        corr = new  # the old correction is freed: one stack is held
        diff_base, diff_aux, up_base = np.array(rows).T

        residual = float(np.max(diff_base) + np.max(weights * diff_aux))
        residuals.append(residual)
        if len(residuals) >= 2 and residuals[-2] > 0:
            ratios.append(residual / residuals[-2])
        converged = residual <= pp.tol
        # the last sweep is known before its pass: it takes the base norms
        last = (converged or not math.isfinite(residual) or residual > _RESIDUAL_BAIL
                or sweeps == pp.max_iter)
        up_aux, forc, base, final = state_pass(corr, last)
        mixed = float(np.max(up_base) + np.max(weights * up_aux))
        membership.append(mixed)
        membership_ok.append(mixed <= ball * (1.0 + 1e-9) + 1e-30)
        if last:
            break

    report = PicardReport(
        converged=converged,
        iterates=sweeps,
        residuals=residuals,
        contraction_ratios=ratios,
        ball_radius=float(ball),
        horizon=float(cfg.T),
        weight_a=a,
        indices={"r": bz.r, "s": bz.s, "p": bz.p, "p_tilde": bz.p_tilde, "q": bz.q},
        membership=membership,
        membership_ok=membership_ok,
    )
    series = {"besov_t": np.concatenate([[0.0], out_times]),
              "besov_base": np.array([family.besov_norm(u0, idx_base), *base])}
    return Trajectory(times=[cfg.T], fields=[final], series=series), report


def estimate_existence_time(amplitudes, cfg, t_max=2.0, bisect_steps=6):
    """Largest horizon with a converging fixed-point iteration, per amplitude.

    For each amplitude the initial data is cfg.initial scaled to that
    amplitude; certification is a converged picard_solve at horizon T.  A
    converging horizon is bracketed by at most 8 halvings of t_max, then
    refined by bisection.  Zero amplitude certifies the harness cap t_max
    directly.  Deterministic given (cfg, amplitudes).
    """
    family = build_dyadic_family(cfg.grid)
    idx_base = BesovIndex(cfg.besov.r, cfg.besov.p, cfg.besov.q)

    def certify(u0, horizon):
        _, rep = picard_solve(u0, cfg.with_updates(T=horizon))
        return rep.converged

    def existence_time(u0):
        if certify(u0, t_max):
            return t_max
        hi = probe = t_max
        for _ in range(8):
            probe /= 2.0
            if certify(u0, probe):
                break
            hi = probe
        else:
            return 0.0
        lo = probe
        for _ in range(bisect_steps):
            mid = 0.5 * (lo + hi)
            if certify(u0, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def row(amp):
        # one spectrum per amplitude: every certify's base norm of it is memoized
        u0 = to_spectral(replace(cfg.initial, amplitude=amp).build(cfg.grid, seed=cfg.seed))
        u0_norm = family.besov_norm(u0, idx_base)
        certified = t_max if u0_norm == 0.0 else existence_time(u0)
        return {"amplitude": float(amp), "u0_norm": u0_norm, "certified_T": float(certified)}

    return [row(amp) for amp in amplitudes]
