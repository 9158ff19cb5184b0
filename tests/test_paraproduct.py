import numpy as np

from helpers import random_low_pass
from lanslab.fields import (
    l2_norm,
    pointwise_product,
    random_band_limited,
    random_band_mixture,
    zero_field,
)
from lanslab.paraproduct import (
    block_bound_rhs,
    decompose_product_block,
    paraproduct_T,
    product_terms,
    remainder_R,
)


def _reconstruction_error(family, f, g):
    fg = pointwise_product(f, g)
    approx = (
        paraproduct_T(family, f, g)
        + paraproduct_T(family, g, f)
        + remainder_R(family, f, g)
    )
    return l2_norm(fg - approx), l2_norm(fg)


def test_reconstruction_random_pairs(family3d):
    for seed in range(5):
        f = random_band_mixture(family3d.grid, seed=2 * seed)
        g = random_band_mixture(family3d.grid, seed=2 * seed + 1)
        err, ref = _reconstruction_error(family3d, f, g)
        assert err <= 1e-8 * ref


def test_zero_inputs(family3d):
    z = zero_field(family3d.grid, 1)
    f = random_band_mixture(family3d.grid, seed=40)
    assert l2_norm(paraproduct_T(family3d, z, f)) == 0.0
    assert l2_norm(paraproduct_T(family3d, f, z)) == 0.0
    assert l2_norm(remainder_R(family3d, z, z)) == 0.0


def test_low_high_separation():
    # f supported on |k| <= 1, g in a well-separated high annulus: the
    # low-high paraproduct carries the whole product, the transposed
    # paraproduct and the remainder vanish
    from lanslab.dyadic import build_dyadic_family
    from lanslab.grid import Grid

    grid = Grid(n=2, N=64)
    family = build_dyadic_family(grid)
    f = random_low_pass(grid, kmax=1.0, seed=41)
    g = random_band_limited(grid, j=3, seed=42)
    fg = pointwise_product(f, g)
    t_fg = paraproduct_T(family, f, g)
    t_gf = paraproduct_T(family, g, f)
    rem = remainder_R(family, f, g)
    assert l2_norm(fg - t_fg) <= 1e-10 * l2_norm(fg)
    assert l2_norm(t_gf) + l2_norm(rem) <= 1e-10 * l2_norm(fg)


def test_block_decomposition_sums_to_product_block(family3d):
    f = random_band_mixture(family3d.grid, seed=50)
    g = random_band_mixture(family3d.grid, seed=51)
    fg = pointwise_product(f, g)
    for j in range(family3d.j_max + 1):
        target = family3d.delta_j(fg, j)
        ti, tii, tiii = decompose_product_block(family3d, f, g, j)
        err = l2_norm(target - (ti + tii + tiii))
        assert err <= 1e-8 * max(l2_norm(target), 1e-30)


def test_block_decomposition_zero(family3d):
    z = zero_field(family3d.grid, 1)
    ti, tii, tiii = decompose_product_block(family3d, z, z, 1)
    assert l2_norm(ti) == l2_norm(tii) == l2_norm(tiii) == 0.0


def test_low_pass_with_single_block_kills_ii_iii():
    # f on |k| <= 1 against a block three octaves up: the high-low and
    # high-high interactions vanish identically
    from lanslab.dyadic import build_dyadic_family
    from lanslab.grid import Grid

    grid = Grid(n=2, N=64)
    family = build_dyadic_family(grid)
    f = random_low_pass(grid, kmax=1.0, seed=60)
    g = random_band_limited(grid, j=3, seed=61)
    scale = l2_norm(f) * l2_norm(g)
    for j in (2, 3, 4):
        ti, tii, tiii = decompose_product_block(family, f, g, j)
        assert l2_norm(tii) <= 1e-10 * scale
        assert l2_norm(tiii) <= 1e-10 * scale


def test_block_bounds_hold_with_moderate_constant(family3d):
    worst = 0.0
    for seed in range(4):
        f = random_band_mixture(family3d.grid, seed=70 + seed)
        g = random_band_mixture(family3d.grid, seed=80 + seed)
        for j in range(family3d.j_max + 1):
            ti, tii, tiii = decompose_product_block(family3d, f, g, j)
            rhs_i, rhs_ii, rhs_iii = block_bound_rhs(family3d, f, g, j, p=2)
            for lhs, rhs in ((l2_norm(ti), rhs_i), (l2_norm(tii), rhs_ii), (l2_norm(tiii), rhs_iii)):
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
                else:
                    assert lhs < 1e-10
    assert np.isfinite(worst) and worst < 10.0


def test_product_split_decomposes_each_factor_once(family3d, monkeypatch):
    from lanslab.dyadic import DyadicFamily

    calls = []
    original = DyadicFamily.block_samples
    monkeypatch.setattr(
        DyadicFamily, "block_samples", lambda fam, f: calls.append(f) or original(fam, f)
    )
    f = random_band_mixture(family3d.grid, seed=50)
    g = random_band_mixture(family3d.grid, seed=51)
    product_terms(family3d, f, g)
    for j in range(family3d.j_max + 1):
        decompose_product_block(family3d, f, g, j)
        block_bound_rhs(family3d, f, g, j, p=2)
    assert [id(h) for h in calls] == [id(f), id(g)]
