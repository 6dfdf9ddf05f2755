import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vpwave import admissible, dlvp, intlat, latfft, tol
from vpwave.admissible import AdmissibleFn, exact_gap, periodized_sum, periodized_sum_exact
from vpwave.dlvp import (
    ScalingFunction,
    SparseSpectrum,
    coarse_of_fine,
    complement_phases,
    fiber_partner,
    normalized_filters,
    orthonormal_wavelet,
    periodized_product,
    scaling_profile,
    scaling_spectrum,
    two_scale,
    wavelet_profile,
    wavelet_spectrum,
    wavelet_two_scale,
)
from vpwave.errors import (DimensionMismatch, InvalidParameter, LevelOutOfRange, TooLarge,
                           UnsupportedDimension)
from vpwave.intlat import (
    ENUMERATION_GUARD,
    J_D,
    J_X,
    J_Y,
    IntMat,
    axis_doubling,
    chain,
    class_representatives,
    generating_set,
    plane_rotation,
    smith_normal_form,
)
from vpwave import mra
from vpwave.mra import (
    GRID_POINTS_PER_AXIS,
    LevelReport,
    MraReport,
    _grid_numerators,
    _on_union,
    _reduction_sides,
    audit_orthonormality,
    basis_check,
    build_report,
    check_reduction,
    independent_nesting_residual,
    nesting_residual,
    support_radii,
    tail_distance,
)


def example_48():
    N = IntMat.from_rows([[10, -4], [6, 4]])
    J = IntMat.from_rows([[1, 1], [0, 2]])
    return chain(N, [J]), AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])


def square_window(den):
    return AdmissibleFn.tensor_linear([F(1, den), F(1, den)])


# -- basis condition ------------------------------------------------------------


def test_basis_check_example48():
    c, g = example_48()
    ok, min_power = basis_check(c, 0, g)
    assert ok and min_power > 0


def test_basis_check_dirichlet_power():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.identity(2), [J_X, J_D])
    for level in range(3):
        ok, min_power = basis_check(c, level, g)
        assert ok
        assert min_power == pytest.approx(1.0 / c.size(level), abs=1e-15)


def test_zeroed_class_fails_dimension():
    from vpwave.dlvp import class_powers
    from vpwave.intlat import generating_set

    c, g = example_48()
    sf = scaling_spectrum(c, 0, g)
    gs = generating_set(c.M0.T)
    kill = gs.index_of((2, 1))
    keep = gs.class_index(sf.spectrum.keys) != kill
    broken = ScalingFunction(chain=c, level=0, g=g, spectrum=SparseSpectrum(
        dim=2, keys=sf.spectrum.keys[keep], values=sf.spectrum.values[keep]))
    powers = class_powers(broken)
    assert powers[kill] == 0.0


# -- nesting ----------------------------------------------------------------------


def test_nesting_residual_vp_chain():
    c, g = example_48()
    assert nesting_residual(c, 0, g) < 1e-12


def test_nesting_residual_dirichlet_exact():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.identity(2), [J_Y, J_D, J_X])
    for level in range(3):
        assert nesting_residual(c, level, g) == 0.0
    rep = build_report(c, g)
    assert [lr.nesting_residual for lr in rep.levels] == [0.0, 0.0, 0.0, None]


def test_naive_quincunx_pair_is_not_nested():
    # sampling the plain window on both levels of a quincunx step leaves a
    # contradiction between paired frequencies; the defect has a floor
    g = square_window(10)
    M0 = IntMat.diagonal([32, 32])
    coarse = scaling_spectrum(chain(M0, []), 0, g)
    fine = scaling_spectrum(chain(J_D @ M0, []), 0, g)
    assert independent_nesting_residual(coarse, fine) > 1e-3


def test_naive_axis_pair_is_nested():
    # with an axis doubling the same naive pairing works (the 1-D regime)
    g = square_window(10)
    M0 = IntMat.diagonal([32, 32])
    coarse = scaling_spectrum(chain(M0, []), 0, g)
    fine = scaling_spectrum(chain(J_X @ M0, []), 0, g)
    assert independent_nesting_residual(coarse, fine) < 1e-12


# -- support growth ----------------------------------------------------------------


def test_support_radii_monotone():
    c, g = example_48()
    ext = chain(c.M0, list(c.factors) + [J_D, J_X])
    radii = support_radii(ext, g)
    assert all(b >= a for a, b in zip(radii, radii[1:]))


def test_support_radius_identity_level():
    g = square_window(10)
    c = chain(IntMat.identity(2), [J_D])
    assert support_radii(c, g)[0] == 0


def test_support_radii_dirichlet_doubling():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.identity(2), [J_D] * 8)
    radii = support_radii(c, g)
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    # at even level 2j the support is a centred half-open box of side 2^j,
    # whose closed sup-norm ball has radius 2^(j-1) - 1: so r + 1 doubles
    # exactly every two quincunx steps
    for lvl in range(4, 8, 2):
        assert radii[lvl + 2] + 1 == 2 * (radii[lvl] + 1)


# -- orthonormality audits ------------------------------------------------------------


def test_audit_normalized_filters():
    c, g = example_48()
    a2, b2 = normalized_filters(c, 0, g)
    assert audit_orthonormality(a2) < 1e-10
    assert audit_orthonormality(b2) < 1e-10


def test_audit_raw_filters_need_normalization():
    c, g = example_48()
    assert audit_orthonormality(two_scale(c, 0, g)) > 0.1
    assert audit_orthonormality(wavelet_two_scale(c, 0, g)) > 0.1


def test_audit_dirichlet_raw_exact():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.diagonal([2, 3]), [J_Y])
    assert audit_orthonormality(two_scale(c, 0, g)) == 0.0
    assert audit_orthonormality(wavelet_two_scale(c, 0, g)) == 0.0


# -- reduction dichotomy ---------------------------------------------------------------


def test_reduction_single_threshold():
    assert check_reduction(square_window(6), J_X, "single") == (True, 0.0)
    assert check_reduction(square_window(6), J_Y, "single") == (True, 0.0)
    ok, dev = check_reduction(square_window(5), J_X, "single")
    assert not ok and dev > 1e-4


def test_reduction_double_thresholds():
    assert check_reduction(square_window(14), J_X, "double") == (True, 0.0)
    assert not check_reduction(square_window(12), J_X, "double")[0]
    assert check_reduction(square_window(10), J_D, "double") == (True, 0.0)
    assert not check_reduction(square_window(8), J_D, "double")[0]


def test_reduction_single_in_one_dimension():
    # the second axis of square_window(5) under J_X contributes a factor 1,
    # so the 1-D check sees the same worst point
    one = check_reduction(AdmissibleFn.tensor_linear([F(1, 5)]), IntMat.from_rows([[2]]), "single")
    assert one == check_reduction(square_window(5), J_X, "single")
    assert check_reduction(AdmissibleFn.tensor_linear([F(1, 6)]), IntMat.from_rows([[2]]),
                           "single") == (True, 0.0)


def test_reduction_grid_holds_the_breakpoints():
    # per axis: the knots, all inside this box, and evenly spaced dyadic
    # points, GRID_POINTS_PER_AXIS to twice as many; the full mesh
    g = AdmissibleFn.tensor_linear([F(1, 3), F(1, 7)])
    box = [F(1), F(7, 10)]
    N, q = _grid_numerators(g, box)
    sizes = []
    for i, hw in enumerate(box):
        axis = np.unique(N[:, i])
        knots = [int(b * q) for b in g.breakpoints_1d(i)]
        assert np.isin(knots, axis).all() and -hw * q <= axis[0] and axis[-1] <= hw * q
        gaps = np.unique(np.diff(np.setdiff1d(axis, knots)))
        assert len(gaps) == 1 and F(int(gaps[0]), q).numerator == 1
        assert GRID_POINTS_PER_AXIS <= len(axis) - len(knots) <= 2 * GRID_POINTS_PER_AXIS + 1
        sizes.append(len(axis))
    assert len(np.unique(N, axis=0)) == len(N) == sizes[0] * sizes[1]


@pytest.mark.parametrize("g, J, mode", [
    (square_window(5), J_X, "single"),
    (AdmissibleFn.characteristic(2), J_D, "single"),
    (square_window(14), J_X, "double"),
    (square_window(8), J_D, "double"),
    (square_window(10), IntMat.from_rows([[1, 1], [0, 2]]), "single"),
], ids=["linear5-J_X-single", "characteristic-J_D-single", "linear14-J_X-double",
        "linear8-J_D-double", "linear10-shear-single"])
def test_reduction_sides_match_scalar_oracle(g, J, mode):
    # the exact batched sides against refine_J(g, g) and
    # refine_J(g, refine_D(g, g)) by the scalar periodized_sum and g(...)
    N, q, (lhs, lhs_den), (rhs, rhs_den) = _reduction_sides(g, J, mode)
    rows = np.flatnonzero((lhs != 0) | (rhs != 0))
    gap = np.abs(lhs.astype(object) * rhs_den - rhs.astype(object) * lhs_den)
    pick = np.append(np.random.default_rng(11).choice(rows, 49, replace=False), np.argmax(gap))
    for i in pick.tolist():
        x = tuple(F(v, q) for v in N[i].tolist())
        if mode == "single":
            expected = periodized_product(g, J, g, x), g(x)
        else:
            expected = (periodized_product(g, J, lambda y: periodized_product(g, J_D, g, y), x),
                        periodized_product(g, J, g, x))
        assert (F(int(lhs[i]), lhs_den), F(int(rhs[i]), rhs_den)) == expected, x


def test_reduction_dirichlet_exact():
    g = AdmissibleFn.characteristic(2)
    for J in (J_X, J_Y, J_D):
        ok, dev = check_reduction(g, J, "single")
        assert ok and dev == 0.0


def test_reduction_rejects_other_dimensions():
    g1 = AdmissibleFn.tensor_linear([F(1, 10)])
    with pytest.raises(UnsupportedDimension):
        check_reduction(g1, IntMat.from_rows([[2]]), "double")
    with pytest.raises(DimensionMismatch):
        check_reduction(g1, J_X, "single")
    # 512 points per axis: a 3-D grid is refused before it is built; only a
    # factor that leaves some axis alone is decided on the axes it moves
    with pytest.raises(TooLarge):
        check_reduction(AdmissibleFn.tensor_linear([F(1, 20)] * 3),
                        IntMat.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]]), "single")


def test_reduction_grid_reads_the_guard_of_intlat(monkeypatch):
    # the grid is bounded by four times intlat.ENUMERATION_GUARD, read at call
    # time, so one patch of intlat reaches it
    g, J = AdmissibleFn.tensor_linear([F(1, 10)]), IntMat.from_rows([[2]])
    assert check_reduction(g, J, "single") == (True, 0.0)
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 1)
    with pytest.raises(TooLarge):
        check_reduction(g, J, "single")


@pytest.mark.parametrize("g, J", [
    (square_window(6), J_X),
    (square_window(6), J_Y),
    (square_window(5), J_X),
    (square_window(5), J_Y),
    (AdmissibleFn.characteristic(2), J_X),
    (AdmissibleFn.characteristic(2), J_Y),
    (AdmissibleFn.tensor_linear([F(1, 5), F(1, 6)]), J_Y),
    (AdmissibleFn.tensor_smoothed([F(1, 5), F(1, 20)], order=2), J_X),
], ids=["linear6-J_X", "linear6-J_Y", "linear5-J_X", "linear5-J_Y", "characteristic-J_X",
        "characteristic-J_Y", "linear5,6-J_Y", "smoothed5,20-J_X"])
def test_reduction_single_axis_route_matches_the_full_grid(g, J):
    # an axis doubling is decided on the 1-D factor of its axis; the full 2-D
    # grid gives the same flag and the same correctly rounded deviation
    _, _, lhs, rhs = _reduction_sides(g, J, "single")
    full = exact_gap(*lhs, *rhs)
    assert check_reduction(g, J, "single") == (full == 0, full)


def test_reduction_single_in_three_dimensions():
    t = time.perf_counter()
    assert check_reduction(AdmissibleFn.tensor_linear([F(1, 20)] * 3), axis_doubling(3, 0),
                           "single") == (True, 0.0)
    assert time.perf_counter() - t < 1.0
    # only the doubled axis decides: its 1/5 ramp fails as on the 2-D grid
    g3 = AdmissibleFn.tensor_linear([F(1, 20), F(1, 5), F(1, 20)])
    _, _, lhs, rhs = _reduction_sides(AdmissibleFn.tensor_linear([F(1, 5), F(1, 20)]), J_X, "single")
    assert check_reduction(g3, axis_doubling(3, 1), "single") == (False, exact_gap(*lhs, *rhs))
    assert check_reduction(g3, axis_doubling(3, 2), "single") == (True, 0.0)
    # axes 0 and 2 moved: the block [[1, 1], [-1, 1]] on the window over them
    assert (check_reduction(g3, plane_rotation(3, 2, 0), "single")
            == check_reduction(AdmissibleFn.tensor_linear([F(1, 20)] * 2),
                               IntMat.from_rows([[1, 1], [-1, 1]]), "single"))


@pytest.mark.parametrize("g3, g2", [
    (AdmissibleFn.tensor_linear([F(1, 20)] * 3), AdmissibleFn.tensor_linear([F(1, 20)] * 2)),
    (AdmissibleFn.tensor_smoothed([F(1, 20)] * 3, order=2),
     AdmissibleFn.tensor_smoothed([F(1, 20)] * 2, order=2)),
    (AdmissibleFn.characteristic(3), AdmissibleFn.characteristic(2)),
], ids=["linear", "smoothed", "characteristic"])
def test_reduction_single_plane_rotation_in_three_dimensions(g3, g2):
    # the rotation of the (0, 1) plane is J_D on those axes and leaves axis 2
    # alone, so the 3-D check is the 2-D one
    t = time.perf_counter()
    rotated = check_reduction(g3, plane_rotation(3, 0, 1), "single")
    assert time.perf_counter() - t < 2.0
    assert rotated == check_reduction(g2, J_D, "single")


@pytest.mark.parametrize("J", [J_D, J_X], ids=["J_D", "J_X"])
def test_reduction_check_decomposes_no_scaled_matrix(J):
    # the shifts of the grid walk the cached Hermite basis of J^T, scaled by
    # the grid denominator q, so a window with a new q adds no Smith form
    check_reduction(square_window(6), J, "single")
    check_reduction(square_window(10), J, "double")
    before = smith_normal_form.cache_info().currsize
    for mode in ("single", "double"):
        check_reduction(AdmissibleFn.tensor_linear([F(3, 37), F(5, 41)]), J, mode)
    assert smith_normal_form.cache_info().currsize == before


def test_reduction_rejects_unknown_mode():
    with pytest.raises(InvalidParameter):
        check_reduction(square_window(6), J_X, "triple")


def tail_distance_oracle(chn, g, level):
    """``tail_distance`` from the direct profiles: at every frequency of
    either support, the level's profile against the plain window, both
    exact, over ``sqrt(m_level)``."""
    M, root = chn.matrix(level), math.sqrt(chn.size(level))
    keys = (scaling_spectrum(chn, level, g).spectrum.coeffs.keys()
            | scaling_spectrum(chn.subchain(level), level, g).spectrum.coeffs.keys())
    return max(abs(float(scaling_profile(chn, level, g, M.inv_T_apply(k)) - g(M.inv_T_apply(k))))
               for k in keys) / root


def test_tail_distance_of_3d_chains_is_exactly_zero():
    g3 = AdmissibleFn.tensor_linear([F(1, 20)] * 3)
    for factors in ([axis_doubling(3, 0), plane_rotation(3, 0, 1)],
                    # the doubled axis lies outside the rotated plane: the tail
                    # still changes nothing
                    [axis_doubling(3, 2), plane_rotation(3, 0, 1)]):
        c3 = chain(IntMat.identity(3), factors)
        assert [tail_distance(c3, g3, level) for level in range(3)] == [0.0] * 3
        assert [tail_distance_oracle(c3, g3, level) for level in range(3)] == [0.0] * 3


def test_reduction_highdim_trailing_axis():
    g3 = AdmissibleFn.tensor_linear([F(1, 20)] * 3)
    c3 = chain(IntMat.identity(3), [axis_doubling(3, 2)])
    assert [tail_distance(c3, g3, level) for level in range(2)] == [0.0, 0.0]


def test_tail_distance_sees_a_quincunx_tail():
    # the axis doublings reproduce the window, the quincunx step does not
    g = square_window(10)
    c = chain(IntMat.diagonal([4, 4]), [J_X, J_Y, J_D])
    dist = [tail_distance(c, g, level) for level in range(4)]
    assert dist[:2] == [0.0, 0.0] and dist[2] > 0 and dist[3] == 0.0
    assert dist[2] == pytest.approx(tail_distance_oracle(c, g, 2), rel=1e-12, abs=0)


# -- shear-heavy chains in two and three dimensions ---------------------------------


def shear(d, i, j, transpose=False):
    """The factor doubling axis ``i`` and adding it to axis ``j``: ``[[1, 1], [0, 2]]``
    for ``d = 2``, ``i = 1``, ``j = 0``; or its transpose."""
    rows = IntMat.identity(d).to_lists()
    rows[i][i] = 2
    rows[j][i] = 1
    return IntMat.from_rows(rows).T if transpose else IntMat.from_rows(rows)


@st.composite
def shear_chains(draw):
    """A chain of 4 to 10 determinant-2 factors in d = 2 or 3, drawn from the
    shears, their transposes, the plane rotations and the axis doublings,
    from ``M_0 = I`` or ``2 I``; the finest ``m`` stays below ENUMERATION_GUARD."""
    d = draw(st.sampled_from([2, 3]))
    axes = st.integers(0, d - 1)
    pairs = st.tuples(axes, axes).filter(lambda p: p[0] != p[1])
    factor = st.one_of(st.builds(lambda p, t: shear(d, *p, t), pairs, st.booleans()),
                       st.builds(lambda p: plane_rotation(d, *p), pairs),
                       st.builds(lambda i: axis_doubling(d, i), axes))
    M0 = IntMat.diagonal([draw(st.sampled_from([1, 2]))] * d)
    c = chain(M0, draw(st.lists(factor, min_size=4, max_size=10)))
    window = draw(st.sampled_from([AdmissibleFn.tensor_linear([F(1, 10)] * d),
                                   AdmissibleFn.tensor_smoothed([F(1, 4)] * d, order=3),
                                   AdmissibleFn.characteristic(d)]))
    return c, window


@settings(max_examples=12, deadline=None)
@given(cg=shear_chains(), seed=st.integers(0, 2 ** 16))
def test_shear_heavy_chains_match_their_profiles(cg, seed):
    # the spectra of the top level and of level 0 equal the directly
    # evaluated profile at seeded keys, half of them in the support; every
    # step nests and has orthonormal filters; the tail distance of level 0
    # bounds the profile's distance from the plain window at those keys
    c, g = cg
    n = c.n_levels
    assert c.size(n) < ENUMERATION_GUARD
    rng = np.random.default_rng(seed)
    for level in (n, 0):
        M, root = c.matrix(level), math.sqrt(c.size(level))
        keys = scaling_spectrum(c, level, g).spectrum.keys
        lo, hi = keys.min(axis=0) - 1, keys.max(axis=0) + 1
        picks = [*keys[rng.choice(len(keys), 24)].tolist(),
                 *rng.integers(lo, hi + 1, size=(24, c.dim)).tolist()]
        tail = tail_distance(c, g, level)
        for k in picks:
            x = M.inv_T_apply(k)
            expected = float(scaling_profile(c, level, g, x)) / root
            got = scaling_spectrum(c, level, g).spectrum[k]
            assert got == (expected if abs(expected) > tol.ZERO_TRIM else 0.0), (level, k)
            assert abs(expected - float(g(x)) / root) <= tail + 2 * tol.ZERO_TRIM
    assert tail_distance(c, g, n) == 0.0
    for level in range(n):
        assert nesting_residual(c, level, g) < tol.TWO_SCALE
        assert all(audit_orthonormality(f) < tol.ORTHO for f in normalized_filters(c, level, g))


@settings(max_examples=10, deadline=None)
@given(cg=shear_chains())
def test_class_indices_of_shear_chains_match_direct_lookups(cg):
    # per level: the digit representatives of G(M_l^T) carry the class
    # indices 0..m-1 and name the classes of its enumeration, and the class
    # indices that the samples gather from the level above are the direct ones
    c, g = cg
    for level in range(c.n_levels + 1):
        MT = c.matrix(level).T
        H = class_representatives(MT)
        assert np.array_equal(smith_normal_form(MT).class_index(H), np.arange(c.size(level)))
        assert np.array_equal(intlat._reduce_box(MT, H), generating_set(MT).rep_array)
        K, _, _, index = dlvp._exact_samples(c, level, g)
        assert np.array_equal(index, generating_set(MT).class_index(K))


def test_cold_report_enumerates_no_generating_set(monkeypatch):
    # report_vp's chain: every class comes from a Smith form, none from G(M)
    def refuse(M):
        raise AssertionError(f"generating_set({M}) enumerated by a report")

    for value in vars(dlvp).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    monkeypatch.setattr(intlat, "generating_set", refuse)
    monkeypatch.setattr(dlvp, "generating_set", refuse)
    c = chain(IntMat.diagonal([8, 8]), [J_D, J_X, J_D, J_Y])
    assert build_report(c, square_window(10)).ok


@settings(max_examples=10, deadline=None)
@given(cg=shear_chains(), seed=st.integers(0, 2 ** 16), block=st.sampled_from([1, 3, 7, 45]))
def test_stacked_periodization_of_shear_chains_matches_each_item(cg, seed, block):
    # one exact batch over the class points and the spectrum keys of every
    # level: per item the same fractions as a call of that item alone, and
    # the scalar oracle at sampled rows; on the first rows of every item,
    # blocks of an odd number of rows, which split the items, give the same
    # sums with one walk per block of the rows that share a factor
    c, g = cg
    items = []
    for level, J in enumerate(c.factors):
        items.append((J, *dlvp._class_points(c, level)[1:]))
        items.append((J, *c.matrix(level).inv_T_rows(scaling_spectrum(c, level, g).spectrum.keys)))
    sums, den = periodized_sum_exact(g, items)
    assert den == g.eval_exact(np.zeros((0, c.dim), dtype=np.int64), c.size(c.n_levels - 1))[1]
    rng = np.random.default_rng(seed)
    for (J, N, q), num in zip(items, sums):
        (alone,), alone_den = periodized_sum_exact(g, [(J, N, q)])
        assert [F(n, den) for n in num.tolist()] == [F(n, alone_den) for n in alone.tolist()]
        for i in rng.choice(len(N), size=min(3, len(N)), replace=False):
            assert F(int(num[i]), den) == periodized_sum(g, J, [F(int(v), q) for v in N[i]])
    heads = [(J, N[:40], q) for J, N, q in items]
    walks = []
    evaluate = AdmissibleFn.eval_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admissible, "BLOCK_ROWS", block)
        mp.setattr(AdmissibleFn, "eval_exact", lambda *args: walks.append(1) or evaluate(*args))
        small, small_den = periodized_sum_exact(g, heads)
    assert small_den == den and [a.tolist() for a in small] == [a[:40].tolist() for a in sums]
    rows = {}
    for J, N, _ in heads:
        rows[J] = rows.get(J, 0) + len(N)
    assert len(walks) == sum(-(-n // block) for n in rows.values())


def test_alternating_shear_chain_builds():
    # the bounding box of M_8^T [-hw, hw] held 1 343 977 frequencies, so the
    # report raised TooLarge; the support box holds 5 895 nonzero samples
    c = chain(IntMat.diagonal([4, 4]), [shear(2, 1, 0), shear(2, 0, 1)] * 4)
    g = square_window(10)
    assert build_report(c, g).ok
    rng = np.random.default_rng(8)
    for level in (c.n_levels, 0):
        M, root = c.matrix(level), math.sqrt(c.size(level))
        phi = scaling_spectrum(c, level, g).spectrum
        assert level == 0 or len(phi) == 5895
        for k in phi.keys[rng.choice(len(phi), 48, replace=False)].tolist():
            assert phi[k] == float(scaling_profile(c, level, g, M.inv_T_apply(k))) / root


def support_radii_box_oracle(c, g):
    """The radii as the least sup-norm of a missing frequency minus one, over
    a dense boolean array of the keys' bounding box, or beyond it at an axis
    point ``lo_i - 1`` or ``hi_i + 1``."""
    out = []
    for level in range(c.n_levels + 1):
        keys = scaling_spectrum(c, level, g).spectrum.keys
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        inside = np.zeros(hi - lo + 1, dtype=bool)
        inside[tuple((keys - lo).T)] = True
        norms = np.abs(np.indices(hi - lo + 1) + lo.reshape(-1, *[1] * c.dim)).max(axis=0)
        beyond = min(1 - lo.max(), hi.min() + 1)
        out.append(max(int(np.min(norms[~inside], initial=beyond)) - 1, 0))
    return out


@settings(max_examples=10, deadline=None)
@given(cg=shear_chains())
def test_support_radii_match_a_bounding_box(cg):
    c, g = cg
    assert support_radii(c, g) == support_radii_box_oracle(c, g)


def test_support_radii_of_six_alternating_shear_pairs_fit_in_memory():
    # m = 65536 at the top: the keys' bounding box there holds 315 595 123
    # frequencies, about 2.8 GB as the dense arrays of a box; the shell counts
    # allocate a few arrays of the keys' length
    c = chain(IntMat.diagonal([4, 4]), [shear(2, 1, 0), shear(2, 0, 1)] * 6)
    g = square_window(10)
    for level in range(c.n_levels + 1):
        scaling_spectrum(c, level, g)
    keys = scaling_spectrum(c, c.n_levels, g).spectrum.keys
    assert math.prod(int(v) + 1 for v in keys.max(axis=0) - keys.min(axis=0)) == 315_595_123
    tracemalloc.start()
    try:
        radii = support_radii(c, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert radii == [2] * (c.n_levels + 1)
    supp = set(map(tuple, keys.tolist()))
    assert all(k in supp for k in itertools.product(range(-2, 3), repeat=2))
    assert not all(k in supp for k in itertools.product(range(-3, 4), repeat=2))


# -- level arguments ----------------------------------------------------------------


LEVEL_TAKERS = {
    "scaling_profile": lambda c, g, level: scaling_profile(c, level, g, (0, 0)),
    "wavelet_profile": lambda c, g, level: wavelet_profile(c, level, g, (0, 0)),
    "scaling_spectrum": lambda c, g, level: scaling_spectrum(c, level, g),
    "wavelet_spectrum": lambda c, g, level: wavelet_spectrum(c, level, g),
    "two_scale": lambda c, g, level: two_scale(c, level, g),
    "wavelet_two_scale": lambda c, g, level: wavelet_two_scale(c, level, g),
    "complement_phases": lambda c, g, level: complement_phases(c, level),
    "coarse_of_fine": lambda c, g, level: coarse_of_fine(c, level),
    "fiber_partner": lambda c, g, level: fiber_partner(c, level),
    "normalized_filters": lambda c, g, level: normalized_filters(c, level, g),
    "orthonormal_wavelet": lambda c, g, level: orthonormal_wavelet(c, level, g),
    "basis_check": lambda c, g, level: basis_check(c, level, g),
    "nesting_residual": lambda c, g, level: nesting_residual(c, level, g),
    "tail_distance": lambda c, g, level: tail_distance(c, g, level),
}


@pytest.mark.parametrize("level", ["below", "past_top", "fractional", "bool"])
@pytest.mark.parametrize("name", LEVEL_TAKERS)
def test_levels_outside_the_chain_raise_level_out_of_range(name, level):
    # each raises at once: no indexing from the end, no unbounded recursion
    # on a fractional level, no IndexError past the last factor, and True is
    # not the level 1
    c, g = chain(IntMat.diagonal([2, 2]), [J_D, J_X]), square_window(10)
    value = {"below": -1, "past_top": c.n_levels + 1, "fractional": 1.5, "bool": True}[level]
    with pytest.raises(LevelOutOfRange):
        LEVEL_TAKERS[name](c, g, value)
    LEVEL_TAKERS[name](c, g, np.int64(1))


@pytest.mark.parametrize("index, name", enumerate(LEVEL_TAKERS))
def test_float_level_raises_after_the_int_level_is_cached(index, name):
    # the caches key a level by its type too: an integral float raises on a
    # cold cache and still raises once the int level has been computed
    c, g = chain(IntMat.diagonal([2, 3 + index]), [J_D, J_X]), square_window(10)
    with pytest.raises(LevelOutOfRange):
        LEVEL_TAKERS[name](c, g, 1.0)
    LEVEL_TAKERS[name](c, g, 1)
    with pytest.raises(LevelOutOfRange):
        LEVEL_TAKERS[name](c, g, 1.0)
    LEVEL_TAKERS[name](c, g, np.int64(1))


def cache_sizes():
    return {f"{module.__name__}.{name}": value.cache_info().currsize
            for module in (intlat, latfft, admissible, dlvp, mra)
            for name, value in vars(module).items() if hasattr(value, "cache_info")}


@pytest.mark.parametrize("index, name", enumerate(LEVEL_TAKERS))
def test_numpy_integer_level_shares_the_int_entry(index, name):
    # a NumPy integer level is the Python int level: it adds no cache entry
    # anywhere, a cached result is the very object the int level built, and
    # an uncached one (two_scale, wavelet_two_scale) stores the int level too
    c, g = chain(IntMat.diagonal([5, 3 + index]), [J_D, J_X]), square_window(10)
    first = LEVEL_TAKERS[name](c, g, 1)
    cached = LEVEL_TAKERS[name](c, g, 1) is first
    sizes = cache_sizes()
    again = LEVEL_TAKERS[name](c, g, np.int64(1))
    assert cache_sizes() == sizes
    assert not cached or again is first
    if hasattr(again, "level"):
        assert type(again.level) is int and again.level == 1


# -- report -------------------------------------------------------------------------------


def test_report_example48():
    c, g = example_48()
    rep = build_report(c, g)
    assert rep.ok and rep.dyadic
    assert rep.levels[0].size == 64 and rep.levels[1].size == 128
    text = rep.render()
    assert "min_class_power" in text and "ok: True" in text


def test_report_renders_each_level_from_one_field_list():
    # floats as .17g, other values with str, None fields left out
    levels = (LevelReport(level=0, size=64, dim_ok=True, min_class_power=0.1, nesting_residual=0.0,
                          support_radius=2, scaling_filter_defect=1 / 3,
                          wavelet_filter_defect=8.8817841970012523e-16),
              LevelReport(level=1, size=128, dim_ok=False, min_class_power=0.0,
                          nesting_residual=None, support_radius=3, scaling_filter_defect=None,
                          wavelet_filter_defect=None))
    assert MraReport(levels=levels, dyadic=True, ok=False).render() == (
        "levels: 2\ndyadic: True\nlevel: 0\n  size: 64\n  dim_ok: True\n"
        "  min_class_power: 0.10000000000000001\n  nesting_residual: 0\n  support_radius: 2\n"
        "  scaling_filter_defect: 0.33333333333333331\n"
        "  wavelet_filter_defect: 8.8817841970012523e-16\nlevel: 1\n  size: 128\n"
        "  dim_ok: False\n  min_class_power: 0\n  support_radius: 3\nok: False\n")
    assert set(LevelReport.FIELDS) == set(vars(levels[0])) - {"level"}


def test_report_fails_when_a_support_radius_shrinks(monkeypatch):
    c, g = example_48()
    assert build_report(c, g).ok
    monkeypatch.setattr(mra, "support_radii", lambda chn, g: [3, 2])
    rep = build_report(c, g)
    assert [lr.support_radius for lr in rep.levels] == [3, 2] and not rep.ok


def test_report_detects_near_degenerate_window():
    # Fejer-type window on a quincunx chain: classes pair half-values on the
    # closed boundary; report should still complete and carry finite numbers
    g = AdmissibleFn.tensor_linear([F(1, 2), F(1, 2)])
    c = chain(IntMat.identity(2), [J_D])
    rep = build_report(c, g)
    assert len(rep.levels) == 2
    assert all(lr.min_class_power >= 0 for lr in rep.levels)


@pytest.mark.parametrize("window_dim", [1, 3])
def test_window_dimension_must_match_chain(window_dim):
    # a typed error, not an IndexError from inside the sampling
    c = chain(IntMat.diagonal([4, 4]), [J_D, J_X])
    g = AdmissibleFn.characteristic(window_dim)
    for call in (lambda: build_report(c, g), lambda: scaling_spectrum(c, 0, g),
                 lambda: two_scale(c, 0, g), lambda: nesting_residual(c, 0, g)):
        with pytest.raises(DimensionMismatch):
            call()


def on_union_oracle(s, t):
    keys, inv = np.unique(np.concatenate([s.keys, t.keys]), axis=0, return_inverse=True)
    a, b = np.zeros(len(keys), s.values.dtype), np.zeros(len(keys), t.values.dtype)
    a[inv[:len(s)]], b[inv[len(s):]] = s.values, t.values
    return keys, a, b


@st.composite
def spectra(draw, d, bound):
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                         min_size=0, max_size=30, unique_by=tuple))
    vals = np.arange(1, len(rows) + 1) * (1 + 0.5j)
    return SparseSpectrum(dim=d, keys=np.array(rows, dtype=np.int64).reshape(-1, d), values=vals)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 3), bound=st.sampled_from([1, 40, 2 ** 40, 2 ** 62]), data=st.data())
def test_on_union_matches_row_unique(d, bound, data):
    # small boxes take the 1-D codes, 2^40 and 2^62 (d >= 2) the row sort
    s, t = data.draw(spectra(d, bound)), data.draw(spectra(d, bound))
    for u, v in ((s, t), (t, s), (s, s)):
        got, want = _on_union(u.keys, u.values, v.keys, v.values), on_union_oracle(u, v)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def test_on_union_one_row_and_disjoint_inputs():
    one = SparseSpectrum(dim=2, keys=np.array([[3, -7]]), values=np.array([2.0]))
    far = SparseSpectrum(dim=2, keys=np.array([[-9, 4], [100, 0], [100, 1]]),
                         values=np.array([1.0, 2.0, 3.0]))
    empty = SparseSpectrum(dim=2, keys=np.zeros((0, 2)), values=np.zeros(0))
    for u, v in ((one, one), (one, far), (far, one), (one, empty), (empty, far), (empty, empty)):
        for x, y in zip(_on_union(u.keys, u.values, v.keys, v.values), on_union_oracle(u, v)):
            assert x.shape == y.shape and np.array_equal(x, y)
    keys, a, b = _on_union(one.keys, one.values, far.keys, far.values)
    assert keys.tolist() == [[-9, 4], [3, -7], [100, 0], [100, 1]]
    assert a.tolist() == [0.0, 2.0, 0.0, 0.0] and b.tolist() == [1.0, 0.0, 2.0, 3.0]
