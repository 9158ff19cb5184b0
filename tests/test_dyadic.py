import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_reference import dyadic_tables
from helpers import constant_field
from lanslab.dyadic import (
    BesovIndex,
    DyadicFamily,
    build_dyadic_family,
    norm_report_record,
    smooth_cutoff,
)
from lanslab.fields import (
    SpectralField,
    VectorField,
    fourier_mode,
    l2_norm,
    lp_norm,
    random_band_limited,
    random_band_mixture,
    to_real,
    to_spectral,
    zero_field,
)
from lanslab.grid import Grid, kept_modes, kmag, on_kept


def test_cutoff_plateaus_and_monotone():
    r = np.linspace(0.0, 3.0, 301)
    c = smooth_cutoff(r)
    assert np.all(c[r <= 1.0] == 1.0)
    assert np.all(c[r >= 2.0] == 0.0)
    assert np.all(np.diff(c) <= 1e-15)
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_family_rejects_unresolved_range(grid3d):
    with pytest.raises(ValueError):
        DyadicFamily(grid3d, j_max=4)  # 2^5 > 16


def test_family_cache_resolves_default_range():
    from lanslab.dyadic import _cached_family

    grid = Grid(3, 16)
    _cached_family.cache_clear()
    spellings = [
        build_dyadic_family(grid),
        build_dyadic_family(grid, None),
        build_dyadic_family(grid, grid.max_dyadic_index),
    ]
    assert all(fam is spellings[0] for fam in spellings)
    assert _cached_family.cache_info().misses == 1


def test_annulus_support(family3d):
    km = kmag(family3d.grid)
    for j in range(family3d.j_max + 1):
        tbl = family3d.psi_hat[j]
        outside = (km <= 2.0 ** (j - 1)) | (km >= 2.0 ** (j + 1))
        assert np.max(np.abs(tbl[outside])) == 0.0
        assert np.all((tbl >= 0.0) & (tbl <= 1.0))


def test_low_pass_value_at_zero(family3d):
    zero = (0,) * family3d.grid.n
    assert family3d.low_hat[zero] == 1.0


def test_exact_symbol_values_on_dyadic_radii(family3d):
    # |k| = 2^j sits at the plateau crossover: psi_j = 1, neighbors vanish
    km = kmag(family3d.grid)
    for j in (1, 2, 3):
        at = np.isclose(km, 2.0**j)
        assert np.all(family3d.psi_hat[j][at] == 1.0)
        if j - 1 >= 0:
            assert np.all(family3d.psi_hat[j - 1][at] == 0.0)
        if j + 1 <= family3d.j_max:
            assert np.all(family3d.psi_hat[j + 1][at] == 0.0)


def test_partition_of_unity(family3d):
    km = kmag(family3d.grid)
    total = family3d.low_hat + family3d.psi_hat.sum(axis=0)
    covered = km <= 2.0**family3d.j_max
    assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12


def test_delta_j_reproduces_its_own_annulus_mode(family3d):
    f = fourier_mode(family3d.grid, (0, 4, 0))  # |k| = 4 = 2^2
    d = family3d.delta_j(f, 2)
    assert np.max(np.abs(d.data - f.data)) < 1e-12
    assert l2_norm(family3d.delta_j(f, 1)) < 1e-13


def test_delta_j_orthogonality(family3d):
    f = random_band_mixture(family3d.grid, seed=9)
    for j in range(family3d.j_max + 1):
        for m in range(family3d.j_max + 1):
            if abs(j - m) >= 2:
                g = family3d.delta_j(family3d.delta_j(f, m), j)
                assert l2_norm(g) <= 1e-12 * l2_norm(f)


def test_delta_j_range_check(family3d):
    f = zero_field(family3d.grid, 1)
    with pytest.raises(ValueError):
        family3d.delta_j(f, family3d.j_max + 1)
    with pytest.raises(ValueError):
        family3d.delta_j(f, -1)


def test_s_j_telescopes(family3d):
    f = random_band_mixture(family3d.grid, seed=10)
    acc = family3d.low_pass(f)
    assert l2_norm(family3d.s_j(f, -1) - acc) < 1e-13
    assert l2_norm(family3d.s_j(f, -3)) == 0.0
    for j in range(family3d.j_max + 1):
        acc = acc + family3d.delta_j(f, j)
        assert l2_norm(family3d.s_j(f, j) - acc) < 1e-12


def test_besov_norm_constant(family3d):
    one = constant_field(family3d.grid, [1.0])
    for idx in (BesovIndex(0.5, 2, 2), BesovIndex(1.5, 3, 1), BesovIndex(2.0, math.inf, math.inf)):
        assert family3d.besov_norm(one, idx) == pytest.approx(1.0, abs=1e-12)


def test_besov_norm_single_block_closed_form(family3d):
    # cos(k.x) with |k| = 4 = 2^2: single block j=2, ||Delta_2 f||_2 = 1/sqrt(2)
    f = fourier_mode(family3d.grid, (0, 0, 4))
    for q in (1, 2, math.inf):
        val = family3d.besov_norm(f, BesovIndex(0.75, 2, q))
        assert val == pytest.approx(2.0, rel=1e-12)


def test_besov_norm_zero(family3d):
    assert family3d.besov_norm(zero_field(family3d.grid, 1), BesovIndex(1.0, 2, 2)) == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), lam=st.floats(0.1, 10.0))
def test_besov_norm_homogeneous(seed, lam):
    grid = Grid(n=2, N=16)
    fam = build_dyadic_family(grid)
    f = random_band_mixture(grid, seed=seed)
    idx = BesovIndex(1.2, 2, 2)
    assert fam.besov_norm(lam * f, idx) == pytest.approx(
        lam * fam.besov_norm(f, idx), rel=1e-10
    )


def test_besov_warns_on_uncovered_spectrum():
    grid = Grid(n=2, N=32)
    fam = DyadicFamily(grid, j_max=2)  # covers only |k| <= 4
    f = random_band_limited(grid, j=3, seed=1)
    with pytest.warns(UserWarning):
        fam.besov_norm(f, BesovIndex(1.0, 2, 2))


def test_block_decomposition_reconstructs(family3d):
    f = random_band_mixture(family3d.grid, seed=12)
    low, blocks = family3d.block_samples(f)
    err = l2_norm(low + np.sum(blocks, axis=0) - f.data)
    assert err <= 1e-10 * l2_norm(f)


def test_norm_report_record(family3d):
    f = random_band_mixture(family3d.grid, seed=13)
    rec = norm_report_record(family3d, f, BesovIndex(1.0, 2, 2), "f13")
    assert rec["field_id"] == "f13"
    assert len(rec["per_block"]) == family3d.j_max + 1
    total = sum(v for _, v in rec["per_block"])
    assert rec["value"] <= total + family3d.besov_norm(f, BesovIndex(1.0, 2, 2))


@pytest.mark.parametrize("p", [1, 2, 3, math.inf])
def test_memoized_block_norms_match_fresh_field_bitwise(family2d, p):
    f = random_band_mixture(family2d.grid, seed=21, ncomp=2)
    first = family2d.block_lp_norms(f, p)
    again = family2d.block_lp_norms(f, p)
    fresh = family2d.block_lp_norms(VectorField(family2d.grid, f.data.copy()), p)
    assert again is first
    assert first[0] == fresh[0]
    assert np.array_equal(first[1], fresh[1])
    assert not first[1].flags.writeable


def test_second_besov_index_at_same_p_makes_no_fft(family2d, monkeypatch):
    from lanslab import _fft

    f = random_band_mixture(family2d.grid, seed=22)
    family2d.besov_norm(f, BesovIndex(1.0, 2, 2))
    calls = []
    original = _fft.ifftn
    monkeypatch.setattr(_fft, "ifftn", lambda *a, **k: calls.append(1) or original(*a, **k))
    family2d.besov_norm(f, BesovIndex(0.5, 2, math.inf))
    family2d.dyadic_norm(f, BesovIndex(2.0, 2, 1))
    family2d.block_profile(f, BesovIndex(1.5, 2, 2))
    assert calls == []
    family2d.besov_norm(f, BesovIndex(1.0, 3, 2))  # a new p does transform
    assert calls


@pytest.mark.parametrize("p", [1, 2, 3, math.inf])
def test_besov_norm_of_spectral_field_matches_real_field(family3d, p):
    f = random_band_mixture(family3d.grid, seed=23, ncomp=3)
    idx = BesovIndex(1.25, p, 2)
    spectral = family3d.besov_norm(to_spectral(f), idx)
    real = family3d.besov_norm(to_real(to_spectral(f)), idx)
    assert spectral == pytest.approx(real, rel=1e-13)


def test_coverage_warning_fires_once_per_field():
    import warnings

    grid = Grid(n=2, N=32)
    fam = DyadicFamily(grid, j_max=2)  # covers only |k| <= 4
    f = random_band_limited(grid, j=3, seed=1)
    g = random_band_limited(grid, j=3, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in (2, 3, math.inf):
            fam.besov_norm(f, BesovIndex(1.0, p, 2))
            fam.block_profile(f, BesovIndex(0.5, p, 2))
        assert len(caught) == 1
        fam.besov_norm(g, BesovIndex(1.0, 2, 2))
        assert len(caught) == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N, j_max", [(16, None), (32, None), (32, 2), (32, 1), (16, 0)])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_paired_block_samples_match_per_table_blocks(n, N, j_max, ncomp):
    # j_max + 1 annular tables: an odd count pairs the last table's components
    fam = DyadicFamily(Grid(n, N), j_max)
    f = random_band_mixture(fam.grid, seed=24, ncomp=ncomp, j_hi=fam.j_max)
    want_low = fam.low_pass(f).data
    want = np.stack([fam.delta_j(f, j).data for j in range(fam.j_max + 1)])
    scale = max(np.max(np.abs(want_low)), np.max(np.abs(want)))
    for given in (f, to_spectral(f)):
        low, blocks = fam.block_samples(given)
        blocks = np.stack(blocks)  # the blocks are views of the transformed slots
        assert low.shape == want_low.shape and blocks.shape == want.shape
        assert np.max(np.abs(low - want_low)) <= 1e-13 * scale
        assert np.max(np.abs(blocks - want)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_low_pass_symbol_is_the_zero_mode_indicator(n, N):
    # chi(2|k|) vanishes from |k| = 1 on: the low-pass block is the mean
    grid = Grid(n, N)
    want = np.zeros(grid.shape)
    want[(0,) * n] = 1.0
    for j_max in range(grid.max_dyadic_index + 1):
        assert np.array_equal(DyadicFamily(grid, j_max).low_hat, want)


@pytest.mark.parametrize("ncomp", [1, 3])
def test_low_pass_norm_is_the_mean_magnitude_at_every_p(family3d, ncomp):
    grid = family3d.grid
    offset = np.arange(1.0, ncomp + 1.0).reshape((ncomp,) + (1,) * grid.n)
    f = VectorField(grid, random_band_mixture(grid, seed=25, ncomp=ncomp).data + offset)
    mean = to_spectral(f).coeffs[(slice(None),) + (0,) * grid.n].real
    low, _ = family3d.block_samples(f)
    assert np.array_equal(low, np.broadcast_to(mean.reshape(offset.shape), f.data.shape))
    for p in (1, 2, 3, math.inf):
        low_norm, _ = family3d.block_lp_norms(f, p)
        assert low_norm == np.linalg.norm(mean)
        # the per-table low pass, through a transform, agrees to round-off
        assert low_norm == pytest.approx(lp_norm(family3d.low_pass(f), p), rel=1e-13)


@pytest.mark.parametrize("j_max", [None, 2])
def test_block_samples_of_zero_field_are_exact_zeros(family3d, j_max):
    fam = DyadicFamily(family3d.grid, j_max)
    low, blocks = fam.block_samples(zero_field(family3d.grid, 3))
    assert not np.any(low) and not np.any(blocks)


@pytest.mark.parametrize("n, N", [(2, 16), (3, 16), (3, 32), (2, 64)])
@pytest.mark.parametrize("j_smaller", [0, 1])
def test_tables_byte_equal_to_per_point_build(n, N, j_smaller):
    grid = Grid(n, N)
    j_max = grid.max_dyadic_index - j_smaller
    fam = DyadicFamily(grid, j_max)
    for got, want in zip((fam.s_hat, fam.psi_hat, fam.low_hat), dyadic_tables(grid, j_max)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # the partition of unity telescopes: no rounding survives on the ball
    total = fam.low_hat.copy()
    for psi in fam.psi_hat:
        total += psi
    assert np.array_equal(total, fam.s_hat[-1])
    assert np.max(np.abs(total[kmag(grid) <= 2.0**j_max] - 1.0)) == 0.0


def test_family_build_peak_memory_within_twice_its_tables():
    grid = Grid(3, 64)
    kmag(grid)  # the grid's cached |k| table is not the family's
    tracemalloc.start()
    try:
        fam = DyadicFamily(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (fam.s_hat.nbytes + fam.psi_hat.nbytes)


@pytest.mark.filterwarnings("ignore:field has spectral content beyond:UserWarning")
@settings(max_examples=24, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([16, 32]),
    q=st.sampled_from([1, 2, math.inf]),
    s=st.floats(-1.0, 3.0),
)
def test_kept_mode_norms_match_the_scattered_field(seed, n, N, q, s):
    # the spectrum of a real field on the 2/3-rule modes, as Picard holds
    # its corrections: Parseval at p = 2, the scattered field elsewhere
    grid = Grid(n, N)
    fam = build_dyadic_family(grid)
    kept, _ = kept_modes(grid)
    data = np.random.default_rng(seed).standard_normal((n,) + grid.shape)
    values = to_spectral(VectorField(grid, data)).coeffs.reshape(n, -1)[:, kept]
    indices = [BesovIndex(s, p, q) for p in (2, 1, 3, math.inf)]
    fast = fam.kept_besov_norms(values, *indices)
    slow = [fam.besov_norm(SpectralField(grid, on_kept(grid, values)), i) for i in indices]
    assert fast[0] == pytest.approx(slow[0], rel=1e-13)
    assert fast[1:] == slow[1:]  # bitwise: the same path


@pytest.mark.parametrize("ncomp", [1, 3])
def test_kept_mode_norms_warn_as_the_scattered_field(family3d, ncomp):
    import warnings

    grid = family3d.grid
    kept, _ = kept_modes(grid)
    data = np.random.default_rng(ncomp).standard_normal((ncomp,) + grid.shape)
    noise = to_spectral(VectorField(grid, data)).coeffs.reshape(ncomp, -1)[:, kept]
    inside = kmag(grid).reshape(-1)[kept] <= 2**family3d.j_max
    idx = BesovIndex(1.0, 2, 2)
    for tail, warns in ((0.0, 0), (1e-3, 1)):
        values = noise * np.where(inside, 1.0, tail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            family3d.kept_besov_norms(values, idx)
            fast = len(caught)
            family3d.besov_norm(SpectralField(grid, on_kept(grid, values)), idx)
        assert fast == len(caught) - fast == warns


@pytest.mark.parametrize("amplitude", [0.1, 100.0])
def test_large_finite_q_sums_relative_to_the_largest_term(amplitude):
    # Taylor-Green at N = 16: at amplitude 0.1 every weighted block is below
    # 1 and its 400th power underflowed, so the dyadic sum read 0; at 100
    # the largest block's power overflowed to inf.  JSON states q = inf
    # only as a large finite q.
    from lanslab.fields import taylor_green

    grid = Grid(2, 16)
    fam = build_dyadic_family(grid)
    f = taylor_green(grid, amplitude)
    kept, _ = kept_modes(grid)
    values = to_spectral(f).coeffs.reshape(2, -1)[:, kept]
    low, blocks = fam.block_lp_norms(f, 2)
    terms = 2.0 ** (2.5 * np.arange(fam.j_max + 1)) * blocks
    sup = fam.besov_norm(f, BesovIndex(2.5, 2, math.inf))
    for q in (400, 1e300):
        idx = BesovIndex(2.5, 2, q)
        assert fam.besov_norm(f, idx) == pytest.approx(sup, rel=1e-12)
        assert fam.kept_besov_norms(values, idx)[0] == pytest.approx(sup, rel=1e-12)
    for q in (2, 50):  # the direct sum, bitwise as before
        assert fam.besov_norm(f, BesovIndex(2.5, 2, q)) == low + float(
            np.sum(terms**q) ** (1.0 / q)
        )
    assert fam.besov_norm(zero_field(grid, 2), BesovIndex(2.5, 2, 1e300)) == 0.0
