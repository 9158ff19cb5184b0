"""Time-weighted and integral-in-time Besov functionals on trajectories.

ct_norm is the weighted sup functional sup_t t^a ||u(t)||_{s,p,q}; for
a > 0 the t = 0 sample is skipped (the weight vanishes there and the
functional is controlled by the first positive sample).  lsigma_norm is
the L^sigma-in-time Besov norm, integrated with composite Simpson on the
trajectory's native sample grid.

The per-field block norms are memoized on each field (`DyadicFamily.
block_lp_norms`), so a second functional at the same p transforms nothing.
"""

import numpy as np
from scipy.integrate import simpson

from .dyadic import build_dyadic_family


def _norm_series(traj, idx):
    family = build_dyadic_family(traj.grid)
    return np.array([family.besov_norm(f, idx) for f in traj.fields])


def ct_norm(traj, a, idx):
    """sup over samples of t^a ||u(t)||_{B^s_{p,q}}."""
    if a < 0:
        raise ValueError("weight exponent a must be >= 0")
    norms = _norm_series(traj, idx)
    times = np.asarray(traj.times, float)
    if a == 0:
        return float(np.max(norms)) if norms.size else 0.0
    mask = times > 0
    if not mask.any():
        return 0.0
    return float(np.max(times[mask] ** a * norms[mask]))


def lsigma_norm(traj, sigma, idx):
    """(int ||u(t)||^sigma dt)^{1/sigma} over the trajectory support."""
    if sigma < 1:
        raise ValueError("integral exponent sigma must be >= 1")
    norms = _norm_series(traj, idx)
    times = np.asarray(traj.times, float)
    if len(times) < 2:
        return 0.0
    val = simpson(norms**sigma, x=times)
    return float(max(val, 0.0) ** (1.0 / sigma))
