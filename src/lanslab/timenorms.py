"""Time-weighted and integral-in-time Besov functionals on trajectories.

ct_norm is the weighted sup functional sup_t t^a ||u(t)||_{s,p,q}; for
a > 0 the t = 0 sample is skipped (the weight vanishes there and the
functional is controlled by the first positive sample).  lsigma_norm is
the L^sigma-in-time Besov norm, integrated on the trajectory's native
sample grid by `_simpson`: the composite Simpson rule for irregular
spacing, with Cartwright's correction on the last interval when the
sample count is even and the trapezoid at two samples.  That is the rule
of scipy's `simpson` since SciPy 1.11, bitwise, kept here so results do
not depend on the installed scipy and lanslab loads no scipy module but
its pocketfft extension (`lanslab._fft`).

The per-field block norms are memoized on each field (`DyadicFamily.
block_lp_norms`), so a second functional at the same p transforms nothing.
"""

import numpy as np

from .dyadic import build_dyadic_family


def _simpson(y, x):
    """Integral of the samples y at the increasing abscissae x (1-D, at
    least two).  The operations and their order are scipy's, so the
    result is bitwise that of scipy's simpson(y, x=x) (SciPy >= 1.11)."""
    y, h = np.asarray(y), np.diff(x)
    if len(y) == 2:
        return 0.5 * h[0] * (y[1] + y[0])
    # composite rule on the pairs of intervals that start at even samples
    stop = len(y) - 2 if len(y) % 2 else len(y) - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    ratio = h0 / h1
    terms = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / ratio)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
        + y[2 : stop + 2 : 2] * (2.0 - ratio)
    )
    result = np.sum(terms)
    if len(y) % 2:
        return result
    # even count: the last interval by Cartwright (2017), eq. 8.  The last
    # two spacings are 0-d arrays, as in scipy: a numpy scalar's ** rounds
    # differently from the array power.
    a, b = (np.asarray(v) for v in h[-2:])
    alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
    beta = (b**2 + 3.0 * a * b) / (6 * a)
    eta = b**3 / (6 * a * (a + b))
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


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
    val = _simpson(norms**sigma, times)
    return float(max(val, 0.0) ** (1.0 / sigma))
