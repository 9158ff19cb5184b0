"""Empirical verification checks for the analysis estimates.

Every check draws a seeded ensemble, evaluates the ratio of the two sides
of one estimate, and reports the empirical constant (the ensemble maximum)
together with a pass flag.  Constants are never asserted against fixed
numbers: passing means the ratio is finite, respects any exactness the
torus provides (support identities, partition of unity), and is stable
across dyadic scales or grid refinement where the check claims scale
independence.  Checks reject parameter tuples outside the validity region
of their estimate with a structured ParameterGateError; a rejection is
never a silent pass.

Each public check has a string id in CHECKS, and its signature is its
parameter spec: a check on a grid takes the grid first (built from `n`
and `N`), then keyword-only parameters typed by their defaults.  run_check
reads a params dict (the CLI suite format) against that spec and rejects
unknown keys, missing required keys and mistyped values with a
ConfigError.  Dynamic checks take `run`, built from the run table of
`_run_config`, and make their own solver runs, so suites are
self-contained.  Values a well-typed parameter may still not take (a
dyadic index the grid does not resolve, a trial count or an exponent
below 1, a horizon T <= 0, an empty time grid, a run the solver refuses)
are ConfigErrors too, raised before any check runs.  The ranges are
`solver.RANGES`, by parameter name; this module defines none.
"""

import inspect
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .dyadic import BesovIndex, build_dyadic_family
from .dynamics import nonlinearity_V, reynolds_stress_divergence, semigroup_apply
from .errors import ConfigError, ParameterGateError
from .fields import (
    SpectralField,
    embed_to,
    fourier_mode,
    l2_norm,
    lp_norm,
    pointwise_product,
    random_band_limited,
    random_band_mixture,
    random_divergence_free,
    to_real,
    to_spectral,
)
from .grid import Grid, kmag, ksq
from .operators import lambda_power
from .paraproduct import block_bound_rhs, decompose_product_block, product_terms
from .quadrature import duhamel_apply, duhamel_on_nodes, make_time_grid
from .solver import InitialSpec, SolverConfig, Trajectory, check_range, expect_type, solve_ivp
from .timenorms import _simpson, ct_norm, lsigma_norm


@dataclass
class CheckReport:
    ensemble: int
    ratios: list
    max_ratio: float
    passed: bool
    details: dict = dc_field(default_factory=dict)
    check_id: str = ""  # check_id and params are filled in by run_check
    params: dict = dc_field(default_factory=dict)

    def to_dict(self):
        """The report in JSON values, `passed` as "pass"."""

        def clean(x):
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            if isinstance(x, np.ndarray):
                return [clean(v) for v in x]
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            return x

        record = clean(asdict(self))
        record["pass"] = bool(record.pop("passed"))
        return record


def _worst(ratios):
    """The largest ratio, 0 for none and NaN if any is NaN (Python's max
    skips a NaN unless it comes first)."""
    return math.nan if any(math.isnan(r) for r in ratios) else max(ratios, default=0.0)


def _ratio_report(ensemble, ratios, ok=True, **details):
    """The report of an ensemble of ratios: its empirical constant is the
    largest ratio (`_worst`), and it passes when that is finite and `ok`."""
    worst = _worst(ratios)
    return CheckReport(ensemble, ratios, worst, math.isfinite(worst) and bool(ok), details)


def _refined_report(fam, trials, draw, ratio, refine, **details):
    """`_ratio_report` of `ratio(draw(t), fam)` over the trials.  With
    `refine`, the first 20 draws are embedded at 2N as well, and the report
    passes only if the refinement factor, the largest ratio there over the
    largest on the same draws at N, lies in [0.5, 2]."""
    ratios = [ratio(draw(t), fam) for t in range(trials)]
    stable = True
    if refine:
        fine = Grid(fam.grid.n, fam.grid.N * 2)
        fam_fine = build_dyadic_family(fine, fam.j_max)
        sub = range(min(trials, 20))
        factor = max(ratio(embed_to(draw(t), fine), fam_fine) for t in sub) / max(
            ratios[: len(sub)]
        )
        details["refinement_factor"] = factor
        stable = 0.5 <= factor <= 2.0
    return _ratio_report(trials, ratios, stable, **details)


def _scale_stable(per_scale):
    """Whether the positive per-scale constants lie within a factor 10."""
    vals = [v for v in per_scale if v > 0]
    return len(vals) < 2 or max(vals) / min(vals) <= 10.0


# ----------------------------------------------------------------------
# static identities (dyadic calculus)


def check_partition_of_unity(grid, *, j_max: int | None = None):
    fam = build_dyadic_family(grid, j_max)
    km = kmag(grid)
    total = fam.low_hat + fam.psi_hat.sum(axis=0)
    covered = km <= 2.0**fam.j_max
    defect = float(np.max(np.abs(total[covered] - 1.0)))
    return _ratio_report(int(covered.sum()), [defect], defect <= 1e-12, j_max=fam.j_max)


def check_support_orthogonality(grid, *, trials=20, seed=0):
    fam = build_dyadic_family(grid)
    worst = 0.0
    for t in range(trials):
        f = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        nf = l2_norm(f)
        for j in range(fam.j_max + 1):
            for m in range(fam.j_max + 1):
                if abs(j - m) >= 2:
                    worst = max(worst, l2_norm(fam.delta_j(fam.delta_j(f, m), j)) / nf)
    return _ratio_report(trials, [worst], worst <= 1e-12)


def check_support_product_low(grid, *, trials=10, seed=0):
    """Block image of S_{k-3} f Delta_k g vanishes for |j-k| >= 3."""
    fam = build_dyadic_family(grid)
    worst = 0.0
    for t in range(trials):
        f = random_band_mixture(grid, seed=seed + 2 * t, j_hi=fam.j_max - 1)
        g = random_band_mixture(grid, seed=seed + 2 * t + 1, j_hi=fam.j_max - 1)
        scale = l2_norm(f) * l2_norm(g)
        for k in range(fam.j_max + 1):
            prod = pointwise_product(fam.s_j(f, k - 3), fam.delta_j(g, k))
            for j in range(fam.j_max + 1):
                if abs(j - k) >= 3:
                    worst = max(worst, l2_norm(fam.delta_j(prod, j)) / scale)
    return _ratio_report(trials, [worst], worst <= 1e-10)


def check_support_product_high(grid, *, trials=10, seed=0):
    """Delta_j(Delta_m f Delta_i g) vanishes for |i-m| <= 1, j > m + 3."""
    fam = build_dyadic_family(grid)
    worst = 0.0
    tested = 0
    for t in range(trials):
        f = random_band_mixture(grid, seed=seed + 2 * t, j_hi=fam.j_max - 1)
        g = random_band_mixture(grid, seed=seed + 2 * t + 1, j_hi=fam.j_max - 1)
        scale = l2_norm(f) * l2_norm(g)
        for m in range(fam.j_max + 1):
            for i in range(max(m - 1, 0), min(m + 1, fam.j_max) + 1):
                prod = pointwise_product(fam.delta_j(f, m), fam.delta_j(g, i))
                for j in range(m + 4, fam.j_max + 1):
                    tested += 1
                    worst = max(worst, l2_norm(fam.delta_j(prod, j)) / scale)
    return _ratio_report(trials, [worst], worst <= 1e-10, pairs_tested=tested)


def check_paraproduct_reconstruction(grid, *, pairs=20, seed=0):
    fam = build_dyadic_family(grid)
    defects = []
    for t in range(pairs):
        f = random_band_mixture(grid, seed=seed + 2 * t, j_hi=fam.j_max - 1)
        g = random_band_mixture(grid, seed=seed + 2 * t + 1, j_hi=fam.j_max - 1)
        fg = pointwise_product(f, g)
        ti, tii, tiii = product_terms(fam, f, g)
        defects.append(l2_norm(fg - (ti + tii + tiii)) / l2_norm(fg))
    return _ratio_report(pairs, defects, all(d <= 1e-8 for d in defects))


def check_block_decomposition(grid, *, pairs=10, seed=0):
    fam = build_dyadic_family(grid)
    defects = []
    for t in range(pairs):
        f = random_band_mixture(grid, seed=seed + 2 * t, j_hi=fam.j_max - 1)
        g = random_band_mixture(grid, seed=seed + 2 * t + 1, j_hi=fam.j_max - 1)
        fg = pointwise_product(f, g)
        terms = product_terms(fam, f, g)
        for j in range(fam.j_max + 1):
            target = fam.delta_j(fg, j)
            ref = l2_norm(target)
            if ref < 1e-14:
                continue
            ti, tii, tiii = (fam.delta_j(term, j) for term in terms)
            defects.append(l2_norm(target - (ti + tii + tiii)) / ref)
    return _ratio_report(pairs, defects, all(d <= 1e-8 for d in defects))


def check_bony_bounds(grid, *, pairs=10, seed=0, p=2.0):
    """Empirical constants for the three block-product bounds, per scale.

    Each dyadic scale is probed with the same local structure (a broadband
    field against one concentrated near the probed annulus), so a scale-
    independent constant shows up as ratios within a factor 10 across j.
    """
    fam = build_dyadic_family(grid)
    ratios = []
    per_scale = {}
    for j in range(fam.j_max + 1):
        g_band = min(j, fam.j_max - 1)  # top annulus is probed via neighbors
        best = 0.0
        for t in range(pairs):
            f = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
            g = random_band_limited(grid, j=g_band, seed=seed + 1000 + 17 * j + t)
            ti, tii, tiii = decompose_product_block(fam, f, g, j)
            rhs = block_bound_rhs(fam, f, g, j, p)
            for lhs_field, rhs_val in zip((ti, tii, tiii), rhs):
                lhs = lp_norm(lhs_field.data, p)
                if rhs_val > 1e-14:
                    ratio = lhs / rhs_val
                    ratios.append(ratio)
                    best = max(best, ratio)
        per_scale[j] = best
    stable = _scale_stable(per_scale.values())
    return _ratio_report(pairs, ratios, stable, per_scale_max=per_scale, scale_stable=stable)


def check_k2_tail(*, r: float, k_max=60):
    """Convergence proxy for the high-frequency tail sum of 2^{k(2-r)}.

    Predicts convergence for r > 2 and divergence for r <= 2; the check
    passes when the partial sums behave as predicted for the given r.
    """
    ks = np.arange(-2, k_max + 1)
    terms = 2.0 ** (ks * (2.0 - r))
    partial = np.cumsum(terms)
    tail_increment = float(partial[-1] - partial[-6])
    growth = float(partial[-1] / partial[4])
    if r > 2:
        ok = tail_increment < 1e-6 * partial[-1]
    else:
        ok = growth > 100.0
    return CheckReport(
        len(ks),
        [float(partial[-1])],
        float(partial[-1]),
        bool(ok),
        details={
            "predicts": "convergent" if r > 2 else "divergent",
            "tail_increment": tail_increment,
            "growth_factor": growth,
        },
    )


# ----------------------------------------------------------------------
# norm inequalities


def check_embedding(
    grid, *, trials=20, seed=0, p=2.0, beta1=0.5, beta2=1.5, q1=1.0, q2=2.0, s=1.0,
    emb_p1=2.0, emb_p2=4.0, gamma2=0.5,
):
    """Monotonicity embeddings: lower smoothness / higher summability are
    weaker norms, Bernstein trades integrability for regularity, and the
    L^p norm sits below every positive-smoothness Besov norm."""
    fam = build_dyadic_family(grid)
    p1, p2 = emb_p1, emb_p2
    if not (q1 <= q2 and beta1 <= beta2 and p1 <= p2):
        raise ParameterGateError(
            "embedding", "q1 <= q2, beta1 <= beta2, p1 <= p2",
            {"q1": q1, "q2": q2, "beta1": beta1, "beta2": beta2, "emb_p1": p1, "emb_p2": p2},
        )
    gamma1 = gamma2 + grid.n * (1.0 / p1 - 1.0 / p2)
    ratios_smooth, ratios_lp, ratios_integrability = [], [], []
    for t in range(trials):
        f = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        weak = fam.besov_norm(f, BesovIndex(beta1, p, q2))
        strong = fam.besov_norm(f, BesovIndex(beta2, p, q1))
        ratios_smooth.append(weak / strong)
        ratios_lp.append(lp_norm(f, p) / fam.besov_norm(f, BesovIndex(s, p, q1)))
        ratios_integrability.append(
            fam.besov_norm(f, BesovIndex(gamma2, p2, q1))
            / fam.besov_norm(f, BesovIndex(gamma1, p1, q1))
        )
    lp_max, integrability_max = _worst(ratios_lp), _worst(ratios_integrability)
    worst = _worst(ratios_smooth + ratios_lp + ratios_integrability)
    return CheckReport(
        trials,
        ratios_smooth,
        worst,
        math.isfinite(worst) and worst <= 10.0,
        details={"lp_vs_besov_max": lp_max, "integrability_max": integrability_max, "gamma1": gamma1},
    )


def check_bernstein(
    grid, *, trials=10, seed=0, p=2.0, q=2.0, order=1.0, j_lo=1, j_hi: int | None = None
):
    """Two-sided Bernstein equivalence on dyadic annuli."""
    fam = build_dyadic_family(grid)
    j_hi = fam.j_max if j_hi is None else j_hi
    if p > q:
        raise ParameterGateError("bernstein", "p <= q", {"p": p, "q": q})
    n = grid.n
    if not (order + n) * math.log2(grid.N) < 1024:  # |k|^order and 2^{j order} are finite
        raise ParameterGateError("bernstein", "(order + n) log2(N) < 1024", {"order": order})
    ratios = []
    per_scale = {}
    for j in range(j_lo, j_hi + 1):
        scale = 2.0 ** (j * order + j * n * (1.0 / p - 1.0 / q))
        best = 0.0
        for t in range(trials):
            f = random_band_limited(grid, j, seed=seed + 101 * j + t)
            ratio = lp_norm(lambda_power(f, order).data, q) / (scale * lp_norm(f, p))
            ratios.append(ratio)
            best = max(best, ratio)
        per_scale[j] = best
    spread = max(ratios) / min(ratios) if ratios else 1.0
    # single mode |k| = 2^j at p = q = 2, first-order: ratio is exactly 1
    kvec = [0] * n
    kvec[0] = 2 ** j_lo
    mode = fourier_mode(grid, kvec)
    exact = lp_norm(lambda_power(mode, 1.0).data, 2) / (2.0**j_lo * lp_norm(mode, 2))
    return _ratio_report(
        trials * (j_hi - j_lo + 1),
        ratios,
        spread <= 4.0 and abs(exact - 1.0) <= 1e-12,
        per_scale_max=per_scale,
        spread=spread,
        single_mode_ratio=exact,
    )


def _heat_weight_profile(fam, u, s0, p0, s1, p1, q, t_grid):
    n = fam.grid.n
    sigma = (s1 - s0) + n * (1.0 / p0 - 1.0 / p1)
    denom = fam.besov_norm(u, BesovIndex(s0, p0, q))
    prof = []
    for t in t_grid:
        val = fam.besov_norm(semigroup_apply(u, t), BesovIndex(s1, p1, q))
        prof.append(t ** (sigma / 2.0) * val / denom)
    return sigma, np.array(prof)


def check_heat_smoothing(
    grid, *, s0=1.0, s1=2.0, p0=2.0, p1=2.0, q=2.0, trials=10, seed=0,
    t_grid: list[float] | None = None,
):
    """Weighted smoothing bound t^{sigma/2}||e^{t Lap}u||_{s1,p1,q} <= C||u||_{s0,p0,q}
    plus the vanishing of the weighted norm as t -> 0 when sigma > 0."""
    fam = build_dyadic_family(grid)
    if not (p0 <= p1):
        raise ParameterGateError("heat_smoothing", "p0 <= p1", {"p0": p0, "p1": p1})
    if not (s0 <= s1):
        raise ParameterGateError("heat_smoothing", "s0 <= s1", {"s0": s0, "s1": s1})
    if math.isinf(p1) or math.isinf(q):
        raise ParameterGateError("heat_smoothing", "p1, q finite", {"p1": p1, "q": q})
    t_grid = np.asarray(np.logspace(-4, 0, 25) if t_grid is None else t_grid, dtype=float)
    ratios, decay_ok = [], True
    sigma = None
    for t in range(trials):
        u = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        sigma, prof = _heat_weight_profile(fam, u, s0, p0, s1, p1, q, t_grid)
        ratios.append(float(np.max(prof)))
        if sigma > 0:
            imax = int(np.argmax(prof))
            rising = np.all(np.diff(prof[: imax + 1]) >= -1e-9 * np.max(prof))
            small_at_zero = prof[0] <= 0.25 * np.max(prof)
            decay_ok = decay_ok and rising and small_at_zero
    # with no smoothing gap the semigroup contracts every block: C <= 1
    ok = max(ratios) <= 1.0 + 1e-10 if sigma == 0 else decay_ok
    return _ratio_report(trials, ratios, ok, sigma=sigma, decay_to_zero=bool(decay_ok))


def check_product(grid, *, s=1.6, p=2.0, p1=3.0, q=2.0, trials=100, seed=0, refine=False):
    """Squared-field product estimate ||u^2||_{s,p,q} <= C ||u||^2_{s,p1,q}."""
    fam = build_dyadic_family(grid)
    n = grid.n
    if not (p < p1 <= 2 * p):
        raise ParameterGateError("product", "p < p1 <= 2p", {"p": p, "p1": p1})
    if not s > n * (2.0 / p1 - 1.0 / p):
        raise ParameterGateError(
            "product", "s > n(2/p1 - 1/p)", {"s": s, "bound": n * (2.0 / p1 - 1.0 / p)}
        )
    idx_out, idx_in = BesovIndex(s, p, q), BesovIndex(s, p1, q)
    return _refined_report(
        fam,
        trials,
        # two octaves of headroom: the squared field stays resolved
        lambda t: random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 2),
        lambda u, fa: fa.besov_norm(pointwise_product(u, u), idx_out)
        / fa.besov_norm(u, idx_in) ** 2,
        refine,
    )


def check_moser(grid, *, s=1.5, p=1.0, p1=2.0, p2=2.0, r1=2.0, r2=2.0, q=2.0, trials=50, seed=0):
    """Fractional Leibniz bound for a product of two fields."""
    fam = build_dyadic_family(grid)
    if s <= 0:
        raise ParameterGateError("moser", "s > 0", {"s": s})
    if abs(1.0 / p - (1.0 / p1 + 1.0 / p2)) > 1e-12 or abs(
        1.0 / p - (1.0 / r1 + 1.0 / r2)
    ) > 1e-12:
        raise ParameterGateError(
            "moser", "1/p = 1/p1 + 1/p2 = 1/r1 + 1/r2",
            {"p": p, "p1": p1, "p2": p2, "r1": r1, "r2": r2},
        )
    ratios = []
    for t in range(trials):
        f = random_band_mixture(grid, seed=seed + 2 * t, j_hi=fam.j_max - 2)
        g = random_band_mixture(grid, seed=seed + 2 * t + 1, j_hi=fam.j_max - 2)
        lhs = fam.besov_norm(pointwise_product(f, g), BesovIndex(s, p, q))
        rhs = lp_norm(f, p1) * fam.besov_norm(g, BesovIndex(s, p2, q)) + lp_norm(
            g, r1
        ) * fam.besov_norm(f, BesovIndex(s, r2, q))
        ratios.append(lhs / rhs)
    return _ratio_report(trials, ratios)


def _tau_gate(check_id, n, r, p, p_bar, q):
    if not r > 1:
        raise ParameterGateError(check_id, "r > 1", {"r": r})
    if not (1 < p < math.inf and 1 < p_bar < math.inf and p <= 2 * p_bar):
        raise ParameterGateError(check_id, "1 < p, p_bar < inf with p <= 2 p_bar", {"p": p, "p_bar": p_bar})
    if not (1 <= q < math.inf):
        raise ParameterGateError(check_id, "1 <= q < inf", {"q": q})
    s_bar = n * (2.0 / p - 1.0 / p_bar)
    if not (0 <= s_bar < r - 1):
        raise ParameterGateError(
            check_id, "0 <= n(2/p - 1/p_bar) < r - 1", {"s_bar": s_bar, "r": r}
        )
    return s_bar


def check_tau(
    grid, *, r=2.6, p=2.0, p_bar=2.0, q=2.0, alpha=1.0, trials=100, seed=0, refine=False
):
    """Quadratic stress bound ||div tau(u)||_{r,p_bar,q} <= C ||u||^2_{r,p,q}."""
    fam = build_dyadic_family(grid)
    s_bar = _tau_gate("tau", grid.n, r, p, p_bar, q)
    idx_out, idx_in = BesovIndex(r, p_bar, q), BesovIndex(r, p, q)
    return _refined_report(
        fam,
        trials,
        lambda t: random_divergence_free(grid, seed=seed + t, j_hi=fam.j_max - 2),
        lambda u, fa: fa.besov_norm(reynolds_stress_divergence(u, alpha), idx_out)
        / fa.besov_norm(u, idx_in) ** 2,
        refine,
        s_bar=s_bar,
    )


# ----------------------------------------------------------------------
# dynamic checks (run on trajectories)


def _run_config(
    grid, *, alpha=1.0, nu=1.0, T=0.5, dt=2e-3, seed=0, initial_kind="taylor_green",
    amplitude=0.1, band_j=1, sample_stride: int | None = None,
):
    """(SolverConfig, sample stride) of the solver run a dynamic check is
    made on; its keyword-only arguments are the run parameters every
    dynamic check takes.  Raises ConfigError for values the solver refuses."""
    cfg = SolverConfig(
        n=grid.n, N=grid.N, alpha=alpha, nu=nu, T=T, dt=dt, seed=seed,
        initial=InitialSpec(initial_kind, amplitude, band_j),
    )
    if sample_stride is None:
        sample_stride = max(1, cfg.steps // 50)
    return cfg, sample_stride


def _trajectory(run):
    cfg, sample_stride = run
    return solve_ivp(cfg.initial_field(), cfg, sample_stride=sample_stride)


def energy_monotone_report(traj, dt, c_tol):
    """Discrete energy decay plus the low-pass vs H^{1,2} domination."""
    energy = traj.series["energy"]
    tol = c_tol * dt**4 * energy[:-1]
    increments = np.diff(energy)
    monotone = bool(np.all(increments <= tol + 1e-300))
    worst_violation = float(np.max(increments - tol)) if len(increments) else 0.0
    fam = build_dyadic_family(traj.grid)
    psi_ok = True
    margin = math.inf
    for f in traj.fields:
        low = l2_norm(fam.low_pass(f))
        h12 = math.sqrt(l2_norm(f) ** 2 + l2_norm(lambda_power(f, 1.0)) ** 2)
        if low > h12 * (1.0 + 1e-12):
            psi_ok = False
        if l2_norm(f) > 0:
            margin = min(margin, h12 - low)
    passed = monotone and psi_ok
    return CheckReport(
        len(energy),
        [worst_violation],
        worst_violation,
        passed,
        details={
            "monotone": monotone,
            "low_pass_below_h12": psi_ok,
            "min_h12_margin": None if math.isinf(margin) else margin,
        },
    )


def check_energy_monotone(grid, *, c_tol=10.0, run):
    cfg, traj = run[0], _trajectory(run)
    return energy_monotone_report(traj, cfg.T / cfg.steps, c_tol)


def _rate_profiles(check_id, traj, r, q, n, norm):
    """(times, B^r_{2,q} series, critical B^{1+n/2}_{2,q} series) of `traj`
    under the family method `norm`, once r passes the r > 2 gate."""
    if not r > 2:
        raise ParameterGateError(check_id, "r > 2", {"r": r})
    measure = getattr(build_dyadic_family(traj.grid), norm)
    return (np.asarray(traj.times),) + tuple(
        np.array([measure(f, BesovIndex(s, 2, q)) for f in traj.fields])
        for s in (r, 1.0 + n / 2.0)
    )


def gronwall_report(traj, r, q, n):
    """Implied constant in the differential inequality for the dyadic norm."""
    times, norm_r, norm_crit = _rate_profiles(
        "gronwall_differential", traj, r, q, n, "dyadic_norm"
    )
    powq = norm_r**q
    implied = []
    for i in range(1, len(times) - 1):
        lhs = (powq[i + 1] - powq[i - 1]) / (times[i + 1] - times[i - 1])
        rhs = norm_crit[i] * powq[i]
        if rhs > 1e-300:
            implied.append(max(lhs, 0.0) / rhs)
    return _ratio_report(len(implied), implied, profile_times=list(times[1:-1]))


def check_gronwall_differential(grid, *, r=2.5, q=2.0, run):
    return gronwall_report(_trajectory(run), r, q, grid.n)


def apriori_report(traj, r, q, n):
    """Implied Gronwall constant in the exponential a priori bound."""
    times, norm_r, norm_crit = _rate_profiles("apriori_bound", traj, r, q, n, "besov_norm")
    if norm_r[0] < 1e-300:
        raise ParameterGateError("apriori_bound", "nonzero initial data", {})
    c_profile = []
    for i in range(1, len(times)):
        integral = _simpson(norm_crit[: i + 1], times[: i + 1])
        if integral > 1e-300:
            c_profile.append(math.log(norm_r[i] / norm_r[0]) / integral)
    return _ratio_report(
        len(c_profile), c_profile, final_over_initial=float(norm_r[-1] / norm_r[0])
    )


def check_apriori_bound(grid, *, r=2.5, q=2.0, run):
    return apriori_report(_trajectory(run), r, q, grid.n)


# ----------------------------------------------------------------------
# operator mapping checks (semigroup / Duhamel / nonlinearity compositions)


def _semigroup_trajectory(u0, ts):
    """e^{t Lap} u0 sampled at the times ts."""
    return Trajectory(times=ts, fields=[semigroup_apply(u0, t) for t in ts])


def check_gamma_ct(grid, *, s0=1.0, s1=2.0, p0=2.0, p1=2.0, q=2.0, T=1.0, trials=5, seed=0):
    """Weighted-sup mapping bound for the semigroup trajectory."""
    fam = build_dyadic_family(grid)
    if not (p0 <= p1 and s0 <= s1):
        raise ParameterGateError(
            "gamma_ct", "s0 <= s1 and p0 <= p1", {"s0": s0, "s1": s1, "p0": p0, "p1": p1}
        )
    sigma = (s1 - s0) + grid.n * (1.0 / p0 - 1.0 / p1)
    ts = np.linspace(0.0, T, 33)
    ratios = []
    for t in range(trials):
        u0 = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        ratios.append(
            ct_norm(_semigroup_trajectory(u0, ts), sigma / 2.0, BesovIndex(s1, p1, q))
            / fam.besov_norm(u0, BesovIndex(s0, p0, q))
        )
    return _ratio_report(trials, ratios, sigma=sigma)


def check_gamma_lsigma(
    grid, *, s0=1.0, s1=2.0, p0=2.0, p1=2.0, q=2.0, T=4.0, trials=5, seed=0
):
    """Integral-in-time mapping bound for the semigroup trajectory."""
    fam = build_dyadic_family(grid)
    if not (1 < p0 <= p1 < math.inf):
        raise ParameterGateError("gamma_lsigma", "1 < p0 <= p1 < inf", {"p0": p0, "p1": p1})
    inv_sigma = ((s1 - s0) + grid.n * (1.0 / p0 - 1.0 / p1)) / 2.0
    if not 0 < inv_sigma:
        raise ParameterGateError(
            "gamma_lsigma", "(s1 - s0 + n/p0 - n/p1)/2 > 0",
            {"s0": s0, "s1": s1, "p0": p0, "p1": p1},
        )
    sigma = 1.0 / inv_sigma
    if sigma < 1:
        raise ParameterGateError("gamma_lsigma", "sigma >= 1", {"sigma": sigma})
    ts = np.linspace(0.0, T, 65)
    ratios = []
    for t in range(trials):
        u0 = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        ratios.append(
            lsigma_norm(_semigroup_trajectory(u0, ts), sigma, BesovIndex(s1, p1, q))
            / fam.besov_norm(u0, BesovIndex(s0, p0, q))
        )
    return _ratio_report(trials, ratios, sigma=sigma)


def _duhamel_of_weighted_forcing(grid, w, k0, tg):
    """G applied to g(t) = t^{-k0} w on the graded node grid."""
    coeffs = to_spectral(w).coeffs
    tvals = tg.nodes.reshape(-1)
    wts = (tvals ** (-k0)).reshape((-1,) + (1,) * (grid.n + 1))
    values = (wts * coeffs[None]).reshape(
        (tg.panels, tg.nodes_per_panel) + coeffs.shape
    )
    out_times = np.append(tg.flat_nodes, tg.T)
    out = duhamel_on_nodes(values, tg, 1.0, ksq(grid), out_times)
    fields = [to_real(SpectralField(grid, c)) for c in out]
    return Trajectory(times=out_times, fields=fields)


def check_duhamel_ct(
    grid, *, s0=1.0, s1=1.5, p0=2.0, p1=2.0, q=2.0, k0=0.75, T=1.0, trials=5, seed=0
):
    """Weighted-sup mapping bound for the heat convolution under a
    singular-in-time forcing t^{-k0} w."""
    fam = build_dyadic_family(grid)
    sigma = (s1 - s0) + grid.n * (1.0 / p0 - 1.0 / p1)
    if not (0 < sigma / 2.0 < 1):
        raise ParameterGateError("duhamel_ct", "0 < sigma/2 < 1", {"sigma": sigma})
    if not (0 <= k0 < 1):
        raise ParameterGateError("duhamel_ct", "0 <= k0 < 1", {"k0": k0})
    k1 = k0 + sigma / 2.0 - 1.0
    if k1 < 0:
        raise ParameterGateError(
            "duhamel_ct", "k0 + sigma/2 - 1 >= 0 (weighted sup needs a >= 0)",
            {"k1": k1},
        )
    tg = make_time_grid(T, 12, 4, grading=3.0)
    ratios = []
    for t in range(trials):
        w = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        traj = _duhamel_of_weighted_forcing(grid, w, k0, tg)
        # ||g||_{k0; s0,p0,q} = sup_t t^{k0} t^{-k0} ||w|| = ||w||_{s0,p0,q}
        ratios.append(
            ct_norm(traj, k1, BesovIndex(s1, p1, q)) / fam.besov_norm(w, BesovIndex(s0, p0, q))
        )
    return _ratio_report(trials, ratios, sigma=sigma, k1=k1)


def check_duhamel_lsigma(
    grid, *, s0=1.0, s1=2.5, p0=2.0, p1=2.0, q=2.0, sigma0=2.0, T=1.0, trials=5, seed=0
):
    """L^{sigma0} -> L^{sigma1} mapping bound for the heat convolution."""
    fam = build_dyadic_family(grid)
    heat = (s1 - s0 + grid.n * (1.0 / p0 - 1.0 / p1)) / 2.0
    if not (sigma0 > 1 and 1.0 / sigma0 - (1.0 - heat) > 0):
        raise ParameterGateError(
            "duhamel_lsigma",
            "1/sigma0 - 1 + (s1-s0+n/p0-n/p1)/2 > 0 with sigma0 > 1",
            {"sigma0": sigma0, "heat": heat},
        )
    sigma1 = 1.0 / (1.0 / sigma0 - (1.0 - heat))
    if not sigma1 > sigma0:
        raise ParameterGateError(
            "duhamel_lsigma", "sigma1 > sigma0", {"sigma0": sigma0, "sigma1": sigma1}
        )
    ratios = []
    ts = np.linspace(0.0, T, 33)
    for t in range(trials):
        w = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        forcing = _semigroup_trajectory(w, ts)
        ratios.append(
            lsigma_norm(duhamel_apply(forcing, ts[1:]), sigma1, BesovIndex(s1, p1, q))
            / lsigma_norm(forcing, sigma0, BesovIndex(s0, p0, q))
        )
    return _ratio_report(trials, ratios, sigma1=sigma1)


def check_duhamel_bc(grid, *, s0=1.0, s1=1.5, p0=2.0, p1=2.0, q=2.0, T=1.0, trials=5, seed=0):
    """Sup-in-time bound for the heat convolution of an L^sigma forcing."""
    fam = build_dyadic_family(grid)
    heat = (s1 - s0 + grid.n * (1.0 / p0 - 1.0 / p1)) / 2.0
    inv_sigma = 1.0 - heat
    if not inv_sigma > 0:
        raise ParameterGateError(
            "duhamel_bc", "1 - (s1-s0+n/p0-n/p1)/2 > 0", {"heat": heat}
        )
    sigma = 1.0 / inv_sigma
    if sigma < 1:
        raise ParameterGateError("duhamel_bc", "sigma >= 1", {"sigma": sigma})
    if not 1.0 / p1 <= inv_sigma:
        raise ParameterGateError("duhamel_bc", "1/p1 <= 1/sigma", {"sigma": sigma})
    ts = np.linspace(0.0, T, 33)
    ratios = []
    for t in range(trials):
        w = random_band_mixture(grid, seed=seed + t, j_hi=fam.j_max - 1)
        forcing = _semigroup_trajectory(w, ts)
        g_out = duhamel_apply(forcing, ts[1:])
        sup_val = max(fam.besov_norm(f, BesovIndex(s1, p1, q)) for f in g_out.fields)
        ratios.append(sup_val / lsigma_norm(forcing, sigma, BesovIndex(s0, p0, q)))
    return _ratio_report(trials, ratios, sigma=sigma)


def check_v_alpha_ct(
    grid, *, s=2.6, p=2.0, p_bar=2.0, q=2.0, a=0.25, alpha=1.0, T=0.5, trials=5, seed=0
):
    """Quadratic weighted-sup bound for the nonlinearity along semigroup
    trajectories: ||V(u)||_{2a; s-1, p_bar, q} <= C ||u||^2_{a; s, p, q}."""
    fam = build_dyadic_family(grid)
    _tau_gate("v_alpha_ct", grid.n, s, p, p_bar, q)
    if not 2 * a < 1:  # the contraction space's weight; t^{2a} of a larger a underflows
        raise ParameterGateError("v_alpha_ct", "2a < 1", {"a": a})
    ratios = []
    ts = np.linspace(0.0, T, 17)
    for t in range(trials):
        u0 = 0.1 * random_divergence_free(grid, seed=seed + t, j_hi=fam.j_max - 2)
        u_traj = _semigroup_trajectory(u0, ts)
        v_traj = Trajectory(times=ts, fields=[nonlinearity_V(f, alpha) for f in u_traj.fields])
        ratios.append(
            ct_norm(v_traj, 2 * a, BesovIndex(s - 1.0, p_bar, q))
            / ct_norm(u_traj, a, BesovIndex(s, p, q)) ** 2
        )
    return _ratio_report(trials, ratios)


CHECKS = {
    "partition_of_unity": check_partition_of_unity,
    "support_orthogonality": check_support_orthogonality,
    "support_product_low": check_support_product_low,
    "support_product_high": check_support_product_high,
    "paraproduct_reconstruction": check_paraproduct_reconstruction,
    "block_decomposition": check_block_decomposition,
    "bony_bounds": check_bony_bounds,
    "k2_tail": check_k2_tail,
    "embedding": check_embedding,
    "bernstein": check_bernstein,
    "heat_smoothing": check_heat_smoothing,
    "product": check_product,
    "moser": check_moser,
    "tau": check_tau,
    "energy_monotone": check_energy_monotone,
    "gronwall_differential": check_gronwall_differential,
    "apriori_bound": check_apriori_bound,
    "gamma_ct": check_gamma_ct,
    "gamma_lsigma": check_gamma_lsigma,
    "duhamel_ct": check_duhamel_ct,
    "duhamel_lsigma": check_duhamel_lsigma,
    "duhamel_bc": check_duhamel_bc,
    "v_alpha_ct": check_v_alpha_ct,
}


def _parameters(fn):
    """(type, default) by name of each parameter `fn` reads from a params
    dict: `n` and `N` for the grid, the keyword-only arguments (typed by
    their default unless annotated) and the run table for `run`."""
    spec = {}
    for arg in inspect.signature(fn).parameters.values():
        if arg.name == "grid":
            spec.update(n=(int, 3), N=(int, 32))
        elif arg.name == "run":
            spec.update(_parameters(_run_config))
        else:
            kind = type(arg.default) if arg.annotation is arg.empty else arg.annotation
            spec[arg.name] = (kind, arg.default)
    return spec


def check_parameters(check_id):
    """The parameter spec of a check; raises KeyError for unknown ids."""
    return _parameters(CHECKS[check_id])


def parse_params(check_id, params):
    """Positional and keyword arguments of a check from a params dict.

    Raises ConfigError, naming the check and the key, for an unknown key, a
    missing required key, a value of the wrong type or out of its range
    (`solver.RANGES`), an empty j_lo..j_hi range, an invalid grid or a run the
    solver refuses.  Floats are converted with float(); other values pass
    through.
    """
    spec = check_parameters(check_id)
    where = f"check '{check_id}'"
    kwargs = {}
    for key, value in params.items():
        if key not in spec:
            raise ConfigError(f"{where}: unknown parameter {key!r} (takes {', '.join(spec)})")
        kind = spec[key][0]
        expect_type(f"{where}: parameter {key!r}", value, kind)
        kwargs[key] = float(value) if kind is float else value
    for name, (_, default) in spec.items():
        if name not in kwargs:
            if default is inspect.Parameter.empty:
                raise ConfigError(f"{where}: missing required parameter {name!r}")
            kwargs[name] = default
    grid = None
    if "n" in kwargs:
        n, N = kwargs.pop("n"), kwargs.pop("N")
        try:
            grid = Grid(n, N)
        except ValueError as exc:
            raise ConfigError(f"{where}: parameters n={n}, N={N}: {exc}") from exc
    for key, value in kwargs.items():
        check_range(f"{where}: parameter {key!r}", key, value, grid)
    j_lo, j_hi = kwargs.get("j_lo"), kwargs.get("j_hi")
    if j_lo is not None and j_hi is not None and j_lo > j_hi:
        # an empty block range would pass vacuously
        raise ConfigError(
            f"{where}: parameter 'j_lo' must be <= 'j_hi', got j_lo={j_lo}, j_hi={j_hi}"
        )
    if "run" in inspect.signature(CHECKS[check_id]).parameters:
        run = {key: kwargs.pop(key) for key in _parameters(_run_config) if key in kwargs}
        try:
            kwargs["run"] = _run_config(grid, **run)
        except ConfigError as exc:
            raise ConfigError(f"{where}: run parameters: {exc}") from exc
    return () if grid is None else (grid,), kwargs


def run_check(check_id, params):
    """Run a check on a params dict; raises KeyError for unknown ids and
    ConfigError for malformed params (see parse_params)."""
    args, kwargs = parse_params(check_id, params)
    report = CHECKS[check_id](*args, **kwargs)
    report.check_id, report.params = check_id, dict(params)
    return report
