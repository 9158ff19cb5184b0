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

A sweep holds one list of iterate spectra and two stacks on the modes the
2/3 rule keeps, off which P[V(u)] vanishes: the node forcing, freed once
the quadrature returns, and the correction.  Each state's update is
measured against the iterate it replaces and against e^{t nu Lap} u0
(formed when needed; the update differs from it by the correction alone),
then replaces it.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import BesovIndex, build_dyadic_family
from .dynamics import nonlinearity_V
from .errors import AdmissibilityError
from .fields import SpectralField, to_spectral
from .grid import kept_modes, ksq, on_kept
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
        return {
            "converged": self.converged,
            "iterates": self.iterates,
            "residuals": list(map(float, self.residuals)),
            "contraction_ratios": list(map(float, self.contraction_ratios)),
            "ball_radius": float(self.ball_radius),
            "horizon": float(self.horizon),
            "weight_a": float(self.weight_a),
            "indices": self.indices,
            "membership": list(map(float, self.membership)),
            "membership_ok": list(map(bool, self.membership_ok)),
        }


_RESIDUAL_BAIL = 1e8


def picard_solve(u0, cfg):
    """Iterate the mild-formulation map to a fixed point on [0, cfg.T].

    Returns (Trajectory, PicardReport); `converged` is False when the
    residual fails to fall below cfg.picard.tol within cfg.picard.max_iter
    sweeps (the usual signal that the horizon is too long for this data).
    The trajectory holds spectra (SpectralField): u0 at t = 0, then the
    last iterate at the Gauss nodes and at T, whose auxiliary-index block
    norms are memoized on them.  A sweep holds those spectra, the masked
    forcing and correction stacks and a few single states.
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
    # forcing and correction are held on the modes the 2/3 rule keeps
    kept, _ = kept_modes(grid)
    u0 = to_spectral(u0)

    def gamma(t):
        """e^{t nu Lap} u0, formed when needed rather than held."""
        return np.exp((-nu * t) * k2) * u0.coeffs

    def norms(coeffs, *indices):
        """Besov norms of one spectrum, sharing its memoized block norms."""
        F = SpectralField(grid, coeffs)
        return [family.besov_norm(F, idx) for idx in indices]

    # the one list of iterate spectra
    current = [SpectralField(grid, gamma(t)) for t in out_times]
    gamma_aux = np.array([family.besov_norm(F, idx_aux) for F in current])
    weighted_gamma = float(np.max(weights * gamma_aux))
    ball = pp.ball_radius if pp.ball_radius is not None else 2.0 * weighted_gamma

    residuals, ratios, membership, membership_ok = [], [], [], []
    converged = False
    sweeps = 0
    for sweeps in range(1, pp.max_iter + 1):
        # forcing at the quadrature nodes (T itself is not a node), all of it
        # formed before any iterate is replaced
        forc = np.empty((tg.panels, tg.nodes_per_panel, grid.n, kept.size), dtype=complex)
        for F, row in zip(current, forc.reshape(-1, grid.n, kept.size)):
            V = stokes_project(nonlinearity_V(F, cfg.alpha), cfg.alpha).coeffs
            np.take(V.reshape(grid.n, -1), kept, axis=1, out=row)
            del V  # freed before the next node's nonlinearity runs
        correction = duhamel_on_nodes(forc, tg, nu, k2.reshape(-1)[kept], out_times)
        del forc, row  # row is a view of forc

        # one state at a time: measure the update against the iterate it
        # replaces and against gamma, then replace it
        rows = []
        for i, (t, corr) in enumerate(zip(out_times, correction)):
            updated = gamma(t)
            updated.reshape(grid.n, -1)[:, kept] -= corr
            d_base, d_aux = norms(updated - current[i].coeffs, idx_base, idx_aux)
            # in the first sweep the iterate is gamma: the same difference;
            # later, updated - gamma is -corr on the kept modes, 0 elsewhere
            up_base = d_base if sweeps == 1 else norms(on_kept(grid, -corr), idx_base)[0]
            current[i] = SpectralField(grid, updated)
            rows.append((d_base, d_aux, up_base, family.besov_norm(current[i], idx_aux)))
        del correction
        diff_base, diff_aux, up_base, up_aux = np.array(rows).T

        residual = float(np.max(diff_base) + np.max(weights * diff_aux))
        residuals.append(residual)
        if len(residuals) >= 2 and residuals[-2] > 0:
            ratios.append(residual / residuals[-2])
        mixed = float(np.max(up_base) + np.max(weights * up_aux))
        membership.append(mixed)
        membership_ok.append(mixed <= ball * (1.0 + 1e-9) + 1e-30)

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
    traj = Trajectory(times=np.concatenate([[0.0], out_times]), fields=[u0, *current])
    return traj, report


def estimate_existence_time(amplitudes, cfg, t_max=2.0, bisect_steps=6):
    """Largest horizon with a converging fixed-point iteration, per amplitude.

    For each amplitude the initial data is cfg.initial scaled to that
    amplitude; certification is a converged picard_solve at horizon T.  A
    converging horizon is bracketed by at most 8 halvings of t_max, then
    refined by bisection.  Zero amplitude certifies the harness cap t_max
    directly.  Deterministic given (cfg, amplitudes).
    """
    rows = []
    family = build_dyadic_family(cfg.grid)
    idx_base = BesovIndex(cfg.besov.r, cfg.besov.p, cfg.besov.q)

    def certify(initial, horizon):
        trial = cfg.with_updates(T=horizon, initial=initial)
        _, rep = picard_solve(trial.initial_field(), trial)
        return rep.converged

    for amp in amplitudes:
        initial = replace(cfg.initial, amplitude=amp)
        u0_norm = family.besov_norm(initial.build(cfg.grid, seed=cfg.seed), idx_base)
        if u0_norm == 0.0:
            rows.append({"amplitude": float(amp), "u0_norm": 0.0, "certified_T": float(t_max)})
            continue
        if certify(initial, t_max):
            rows.append(
                {"amplitude": float(amp), "u0_norm": u0_norm, "certified_T": float(t_max)}
            )
            continue
        hi = t_max
        lo = None
        probe = t_max
        for _ in range(8):
            probe /= 2.0
            if certify(initial, probe):
                lo = probe
                break
            hi = probe
        if lo is None:
            rows.append({"amplitude": float(amp), "u0_norm": u0_norm, "certified_T": 0.0})
            continue
        for _ in range(bisect_steps):
            mid = 0.5 * (lo + hi)
            if certify(initial, mid):
                lo = mid
            else:
                hi = mid
        rows.append({"amplitude": float(amp), "u0_norm": u0_norm, "certified_T": float(lo)})
    return rows
