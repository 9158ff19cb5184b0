"""Paraproduct decomposition of pointwise products.

For fields with spectrum inside the resolved dyadic range the splitting

    fg = T_f g + T_g f + R(f, g)

is an exact regrouping of the pairwise block products (the low-pass piece
acts as block -1), so reconstruction holds to round-off.  The same is true
for the per-block splitting Delta_j(fg) = I + II + III, where the three
terms regroup the low-high, high-low and high-high interactions hitting
block j; the smooth cutoff leaks a small tail outside the classical
|j - k| <= 2 window, so I and II are defined as the exact block images of
the two paraproducts rather than as truncated window sums.
"""

import numpy as np

from .fields import VectorField, dealias_array, lp_norm


def _extended_blocks(family, f):
    """Block samples with the low-pass prepended at index 0, as one
    read-only array memoized on `f`: every paraproduct, remainder and bound
    of a product split reuses each factor's decomposition."""
    key = ("extended_blocks", family.grid, family.j_max)
    if key not in f._memo:
        low, blocks = family.block_samples(f)
        f._memo[key] = np.stack([low, *blocks])
        f._memo[key].setflags(write=False)
    return f._memo[key]


def paraproduct_T(family, f, g):
    """Low-high paraproduct T_f g = sum_k (S_{k-2} f)(Delta_k g)."""
    bf = _extended_blocks(family, f)  # index m <-> block m-1
    bg = _extended_blocks(family, g)
    acc = np.zeros_like(bg[0])
    partial = np.zeros_like(bf[0])
    # k runs over annular indices 0..j_max; S_{k-2} accumulates the low
    # pass (at k = 1) and blocks 0..k-2 (from k = 2 on)
    for k in range(family.j_max + 1):
        if k >= 1:
            partial = partial + bf[k - 1]
        acc += partial * bg[k + 1]
    return VectorField(family.grid, dealias_array(family.grid, acc))


def remainder_R(family, f, g):
    """Diagonal remainder R(f,g) = sum_k (sum_{|l-k|<=1} Delta_l f)(Delta_k g),
    with the low-pass included as the k = -1 block."""
    bf = _extended_blocks(family, f)
    bg = _extended_blocks(family, g)
    nblocks = bf.shape[0]
    acc = np.zeros_like(bg[0])
    for k in range(nblocks):
        lo, hi = max(k - 1, 0), min(k + 1, nblocks - 1)
        near = np.sum(bf[lo : hi + 1], axis=0)
        acc += near * bg[k]
    return VectorField(family.grid, dealias_array(family.grid, acc))


def product_terms(family, f, g):
    """(T_f g, T_g f, R(f, g)); they sum to fg for band-limited inputs."""
    return paraproduct_T(family, f, g), paraproduct_T(family, g, f), remainder_R(family, f, g)


def decompose_product_block(family, f, g, j):
    """Block image of the product: Delta_j(fg) = I + II + III.

    I, II, III are Delta_j applied to T_f g, T_g f and R(f, g); support
    arithmetic makes each an exact regrouping, so the three fields sum to
    Delta_j(fg) up to round-off for band-limited inputs.
    """
    return tuple(family.delta_j(term, j) for term in product_terms(family, f, g))


def block_bound_rhs(family, f, g, j, p):
    """Right-hand sides of the three classical block bounds at index j.

    Returns (rhs_I, rhs_II, rhs_III):
      rhs_I   = sum_{|j-k|<=2} ||S_{k-2} f||_inf ||Delta_k g||_p
      rhs_II  = same with f and g swapped
      rhs_III = sum_{k>=j-3} sum_{|l-k|<=1} ||Delta_l f||_inf ||Delta_k g||_p
    """
    bf = _extended_blocks(family, f)
    bg = _extended_blocks(family, g)
    jmax = family.j_max

    def snorm(base, k):
        # ||S_{k-2} .||_inf from the extended blocks (low = index 0)
        upper = min(k - 2, jmax)
        if upper < -1:
            return 0.0
        return lp_norm(np.sum(base[: upper + 2], axis=0), np.inf)

    bg_p = [lp_norm(bg[m + 1], p) for m in range(jmax + 1)]
    bf_p = [lp_norm(bf[m + 1], p) for m in range(jmax + 1)]
    bf_inf = [lp_norm(bf[m + 1], np.inf) for m in range(jmax + 1)]

    rhs_i = sum(
        snorm(bf, k) * bg_p[k] for k in range(max(j - 2, 0), min(j + 2, jmax) + 1)
    )
    rhs_ii = sum(
        snorm(bg, k) * bf_p[k] for k in range(max(j - 2, 0), min(j + 2, jmax) + 1)
    )
    rhs_iii = 0.0
    for k in range(max(j - 3, 0), jmax + 1):
        for length in range(max(k - 1, 0), min(k + 1, jmax) + 1):
            rhs_iii += bf_inf[length] * bg_p[k]
    return rhs_i, rhs_ii, rhs_iii
