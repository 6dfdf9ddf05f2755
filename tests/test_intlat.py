import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vpwave import intlat
from vpwave.errors import (ConditionViolated, DimensionMismatch, IndexMismatch, InexactInput,
                           InvalidParameter, LevelOutOfRange, SingularMatrix, TooLarge)
from vpwave.intlat import (
    ENUMERATION_GUARD,
    J_D,
    J_X,
    J_Y,
    ChainSpec,
    GeneratingSet,
    IntMat,
    Pattern,
    _reduce_box,
    apply_rows,
    axis_doubling,
    chain,
    class_representatives,
    generating_set,
    lattice_points,
    pattern,
    plane_rotation,
    smith_normal_form,
)


def random_regular(rng, d, lo=-8, hi=8):
    while True:
        M = IntMat.from_rows([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)])
        if M.det != 0:
            return M


def test_determinant_values():
    assert IntMat.from_rows([[16, 0], [12, 8]]).det == 128
    assert IntMat.identity(3).det == 1
    assert IntMat.from_rows([[10, -4], [6, 4]]).det == 64
    assert IntMat.from_rows([[1, 2], [2, 4]]).det == 0


def laplace(rows):
    """Determinant by Laplace expansion along the first row; an oracle
    independent of the Bareiss elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace(minor)
    return total


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.choice([1, 2, 3, 4])
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        assert IntMat.from_rows(rows).det == laplace(rows)


def test_smith_trivial_diagonal():
    dec = smith_normal_form(IntMat.diagonal([2, 4]))
    assert dec.diagonal == (2, 4)
    assert dec.U == IntMat.identity(2)
    assert dec.V == IntMat.identity(2)


def test_smith_quincunx():
    dec = smith_normal_form(J_D)
    assert dec.diagonal == (1, 2)
    assert dec.U @ dec.S @ dec.V == J_D


def test_smith_divisor_product():
    dec = smith_normal_form(IntMat.from_rows([[16, 0], [12, 8]]))
    s1, s2 = dec.diagonal
    assert s1 * s2 == 128
    assert s2 % s1 == 0


def test_smith_random_reconstruction():
    rng = random.Random(123)
    for _ in range(60):
        d = rng.choice([1, 2, 3])
        M = random_regular(rng, d)
        dec = smith_normal_form(M)
        assert dec.U @ dec.S @ dec.V == M
        assert abs(dec.U.det) == 1 and abs(dec.V.det) == 1
        diag = dec.diagonal
        assert all(s > 0 for s in diag)
        assert all(diag[i + 1] % diag[i] == 0 for i in range(d - 1))


def determinantal_diagonal(M):
    """Smith diagonal from the determinantal divisors: ``s_k = D_k / D_{k-1}``
    with ``D_k`` the gcd of the ``k x k`` minors, independent of any
    elimination."""
    d, rows = M.dim, M.entries
    D = [1]
    for k in range(1, d + 1):
        D.append(math.gcd(*(laplace([[rows[i][j] for j in cols] for i in rows_k])
                            for rows_k in itertools.combinations(range(d), k)
                            for cols in itertools.combinations(range(d), k))))
    return tuple(D[k] // D[k - 1] for k in range(1, d + 1))


def assert_smith(M, dec):
    d = M.dim
    assert dec.U @ dec.S @ dec.V == M
    assert abs(dec.U.det) == 1 and abs(dec.V.det) == 1
    assert dec.U @ dec.U_inv == IntMat.identity(d) == dec.V_inv @ dec.V
    assert dec.S == IntMat.diagonal(dec.diagonal)
    assert all(s > 0 for s in dec.diagonal)
    assert all(dec.diagonal[i + 1] % dec.diagonal[i] == 0 for i in range(d - 1))
    assert dec.diagonal == determinantal_diagonal(M)


@pytest.mark.parametrize("diag, smith", [
    ((2, 3), (1, 6)),
    ((4, 6), (2, 12)),
    ((6, 10, 15), (1, 30, 30)),
    ((3, 2), (1, 6)),
    ((12, 8, 2, 9), (1, 2, 12, 72)),
])
def test_smith_divisor_step_on_diagonals(diag, smith):
    M = IntMat.diagonal(diag)
    dec = smith_normal_form(M)
    assert dec.diagonal == smith
    assert_smith(M, dec)


@st.composite
def unimodular_matrices(draw, d):
    """Products of elementary operations: row swaps, row negations and
    additions of a multiple of one row to another."""
    rows = IntMat.identity(d).to_lists()
    for _ in range(draw(st.integers(0, 3 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        op = draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-v for v in rows[i]]
        elif i != j:
            c = draw(st.integers(-5, 5))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMat.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(2, 4))
def test_smith_of_scrambled_diagonals(data, d):
    # M = U diag(s) V with a diagonal that breaks the divisor chain, so the
    # divisor step has to run; entries up to 2^40 (past 2^62 in the minors)
    s = data.draw(st.lists(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 40)),
                           min_size=d, max_size=d))
    assume(any(s[i + 1] % s[i] for i in range(d - 1)))
    M = data.draw(unimodular_matrices(d)) @ IntMat.diagonal(s) @ data.draw(unimodular_matrices(d))
    dec = smith_normal_form(M)
    assert_smith(M, dec)
    assert math.prod(dec.diagonal) == math.prod(s)


def test_smith_rejects_singular():
    with pytest.raises(SingularMatrix):
        smith_normal_form(IntMat.from_rows([[1, 2], [2, 4]]))


def test_generating_set_full_residue_grid():
    gs = generating_set(IntMat.diagonal([2, 2]))
    assert set(gs.reps) == {(0, 0), (0, -1), (-1, 0), (-1, -1)}


def test_generating_set_quincunx_transpose():
    gs = generating_set(IntMat.from_rows([[1, 1], [-1, 1]]))
    assert set(gs.reps) == {(0, 0), (-1, 0)}


def test_generating_set_cardinality_and_incongruence():
    rng = random.Random(2024)
    for _ in range(40):
        d = rng.choice([1, 2, 3])
        M = random_regular(rng, d)
        gs = generating_set(M)
        assert len(gs) == M.absdet
        # brute-force incongruence mod M Z^d: fractional parts of M^{-1} g distinct
        seen = set()
        for g in gs.reps:
            x = M.inv_apply(g)
            f = tuple(v - (v.numerator // v.denominator) for v in x)
            assert f not in seen
            seen.add(f)


def test_generating_set_boxes():
    rng = random.Random(5)
    for _ in range(20):
        M = random_regular(rng, 2, -5, 5)
        for g in generating_set(M).reps:
            x = M.inv_apply(g)
            assert all(Fraction(-1, 2) <= v < Fraction(1, 2) for v in x)


# the frequency classes of the DFT with respect to M: G(M^T) modulo M^T Z^d


def test_reduce_mod_componentwise():
    assert generating_set(IntMat.diagonal([2, 2]).T).reduce((3, -1)) == (-1, -1)


def test_reduce_mod_idempotent_and_class_invariant():
    rng = random.Random(99)
    M = IntMat.from_rows([[16, 0], [12, 8]])
    MT = M.T
    reduce_mod = generating_set(MT).reduce
    for _ in range(100):
        k = (rng.randint(-40, 40), rng.randint(-40, 40))
        h = reduce_mod(k)
        assert reduce_mod(h) == h
        # k - h in M^T Z^2, exactly
        diff = tuple(a - b for a, b in zip(k, h))
        z = MT.inv_apply(diff)
        assert all(v.denominator == 1 for v in z)
        # class invariance under M^T shifts
        z0 = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = tuple(a + b for a, b in zip(k, MT.apply(z0)))
        assert reduce_mod(shifted) == h


def test_reduce_mod_fixes_representatives():
    gs = generating_set(IntMat.from_rows([[3, 1], [0, 2]]).T)
    for h in gs.reps:
        assert gs.reduce(h) == h


def test_pattern_halving_1d():
    pat = pattern(IntMat.from_rows([[2]]))
    assert pat.points == ((Fraction(0),), (Fraction(-1, 2),))


def test_pattern_shear_transpose():
    pat = pattern(IntMat.from_rows([[1, 1], [0, 2]]).T)
    nonzero = [p for p in pat.points if any(v != 0 for v in p)]
    assert nonzero == [(Fraction(0), Fraction(-1, 2))]


def test_pattern_distinct_mod_1():
    rng = random.Random(31)
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        M = random_regular(rng, d, -6, 6)
        pat = pattern(M)
        assert len(pat) == M.absdet
        reduced = {pat.reduce(p) for p in pat.points}
        assert len(reduced) == len(pat)


def test_pattern_points_have_the_digits_of_their_position():
    # point i is U'^{-T} S^{-1} c mod Z^d for the Smith digits c of value i of
    # M^T = U' S V'; frequency j of G(M^T) has the digits r of value j, so
    # h_j . y_i = sum_k r_k c_k / s_k mod 1
    cases = ([[4, 1], [2, 6]], [[1, -1], [1, 1]], [[2, 0, 0], [0, 2, 1], [0, 0, 4]])
    for M in map(IntMat.from_rows, cases):
        pat = pattern(M)
        assert pat.points == tuple(oracle_point(M, i) for i in range(len(pat)))
        diag = smith_normal_form(M.T).diagonal
        digits = list(itertools.product(*map(range, diag)))
        for h, r in zip(generating_set(M.T).reps, digits):
            for y, c in zip(pat.points, digits):
                turns = sum(a * b for a, b in zip(h, y))
                assert (turns - sum(Fraction(a * b, s) for a, b, s in zip(r, c, diag))).denominator == 1


def test_subpattern_inclusion():
    # P(N) subset of P(M) mod 1 whenever M = J N
    rng = random.Random(11)
    for J in (J_X, J_Y, J_D):
        for _ in range(5):
            N = random_regular(rng, 2, -4, 4)
            M = J @ N
            pm = pattern(M)
            for p in pattern(N).points:
                q = pm.points[pm.index_of(p)]
                assert all((a - b).denominator == 1 for a, b in zip(q, p))


def test_pattern_index_of_raises_typed_errors():
    pat = pattern(IntMat.diagonal([2, 2]))
    assert pat.index_of((Fraction(-3, 2), 7)) == pat.points.index((Fraction(-1, 2), Fraction(0)))
    with pytest.raises(IndexMismatch):
        pat.index_of((Fraction(1, 3), 0))
    with pytest.raises(DimensionMismatch):
        pat.index_of((Fraction(1, 2),))


def test_chain_products_and_sizes():
    c = chain(IntMat.identity(2), [J_X, J_D])
    assert c.products[1] == J_X
    assert c.products[2] == J_D @ J_X
    assert c.sizes == (1, 2, 4)
    assert c.dyadic


@pytest.mark.parametrize("level", [-1, 3, 1.5, 1.0, "1", True])
def test_chain_accessors_reject_levels_outside_the_chain(level):
    # no indexing from the end, no bare IndexError past the top level, and a
    # bool is not the integer 0 or 1
    c = chain(IntMat.identity(2), [J_X, J_D])
    for accessor in (c.matrix, c.size, c.subchain):
        with pytest.raises(LevelOutOfRange):
            accessor(level)
    assert c.matrix(np.int64(2)) == c.matrix(2) == J_D @ J_X
    assert c.size(np.int64(0)) == c.size(0) == 1
    assert c.subchain(np.int64(1)) == c.subchain(1) == chain(IntMat.identity(2), [J_X])
    assert c.subchain(2) == c and c.subchain(0).n_levels == 0


def test_chain_worked_factorization():
    N = IntMat.from_rows([[10, -4], [6, 4]])
    c = chain(N, [IntMat.from_rows([[1, 1], [0, 2]])])
    assert c.products[1] == IntMat.from_rows([[16, 0], [12, 8]])
    assert c.dyadic


def test_chain_to_square_1024():
    M1 = IntMat.from_rows([[512, 512], [-64, 64]])
    c = chain(M1, [J_Y, J_Y, J_Y, J_D])
    assert c.products[4] == IntMat.diagonal([1024, 1024])


def test_chain_rejects_bad_factors():
    for build in (chain, ChainSpec):
        with pytest.raises(SingularMatrix):
            build(IntMat.identity(2), [IntMat.identity(2)])  # |det| = 1
        with pytest.raises(SingularMatrix):
            build(IntMat.from_rows([[1, 2], [2, 4]]), [J_X])
        with pytest.raises(DimensionMismatch):
            build(IntMat.identity(2), [IntMat.from_rows([[2]])])
    with pytest.raises(DimensionMismatch):
        J_X @ IntMat.identity(3)


def test_value_constructors_take_only_their_defining_inputs():
    # the derived fields are computed by the one constructor, never passed in
    params = {cls: list(inspect.signature(cls).parameters)
              for cls in (ChainSpec, GeneratingSet, Pattern)}
    assert params == {ChainSpec: ["M0", "factors"], GeneratingSet: ["matrix", "rep_array"],
                      Pattern: ["matrix", "numerators"]}
    M0 = IntMat.diagonal([4, 4])
    with pytest.raises(TypeError):  # a chain whose sizes contradict its factors
        ChainSpec(M0=M0, factors=(J_D,), products=(M0, M0), sizes=(16, 16), dyadic=True)
    c = ChainSpec(M0, [J_D])
    assert c == chain(M0, [J_D]) and hash(c) == hash(chain(M0, [J_D]))
    assert c.products == (M0, J_D @ M0) and c.sizes == (16, 32) and c.dyadic
    assert not ChainSpec(M0, (IntMat.diagonal([3, 1]),)).dyadic
    M = IntMat.from_rows([[3, 1], [-1, 5]])
    snf = smith_normal_form(M)
    gs = GeneratingSet(M, generating_set(M).rep_array)
    assert gs.diagonal == snf.diagonal and gs.digit_map == snf.U_inv
    assert Pattern(M, pattern(M).numerators).denominator == M.absdet == 16


def test_pattern_reduce_builds_one_point():
    M = IntMat.diagonal([4, 8])
    pat = Pattern(M, pattern(M).numerators)
    assert pat.reduce((Fraction(9, 4), Fraction(-7, 8))) == (Fraction(1, 4), Fraction(1, 8))
    assert "points" not in vars(pat)
    assert pat.reduce((Fraction(-1, 2), 3)) in pat.points


def test_highdim_factor_constructors():
    J = axis_doubling(3, 1)
    assert J.det == 2
    R = plane_rotation(3, 0, 2)
    assert R.det == 2
    assert R.apply((1, 0, 0)) == (1, 0, 1)
    with pytest.raises(InvalidParameter):
        plane_rotation(3, 1, 1)
    # axes are integers in 0..d-1, not bools: no IndexError, and no negative
    # index that silently counts from the end
    for build in (lambda: axis_doubling(2, 5), lambda: axis_doubling(2, -1),
                  lambda: axis_doubling(2, 1.0), lambda: plane_rotation(2, 0, 5),
                  lambda: plane_rotation(3, -1, 0), lambda: plane_rotation(3, 0, "1"),
                  lambda: axis_doubling(2, True), lambda: plane_rotation(3, False, 1)):
        with pytest.raises(InvalidParameter):
            build()


# -- integer-array core against the per-point Fraction enumeration -------------


def frac_box(x):
    """Each coordinate reduced mod 1 into [-1/2, 1/2), in Fractions."""
    return tuple(v - math.floor(v + Fraction(1, 2)) for v in x)


def oracle_point(M, i):
    """Pattern point ``i`` in Fraction arithmetic: the Smith digits ``c`` of
    value ``i`` of ``M^T = U' S V'``, as ``U'^{-T} S^{-1} c`` reduced into
    ``[-1/2, 1/2)^d``."""
    dec = smith_normal_form(M.T)
    c = np.unravel_index(i, dec.diagonal)
    return frac_box(dec.U.T.inv_apply([Fraction(int(a), s) for a, s in zip(c, dec.diagonal)]))


def oracle_reps(M):
    """G(M) point by point in Fraction arithmetic: each Smith digit tuple, in
    lexicographic order, mapped by U and reduced as M frac(M^{-1} U digits)."""
    dec = smith_normal_form(M)
    reps = []
    for digits in itertools.product(*(range(s) for s in dec.diagonal)):
        h = M.apply(frac_box(M.inv_apply(dec.U.apply(digits))))
        assert all(Fraction(v).denominator == 1 for v in h)
        reps.append(tuple(int(v) for v in h))
    return tuple(reps)


ENTRY_RANGE = {1: 2048, 2: 40, 3: 10, 4: 3}


@st.composite
def regular_matrices(draw, max_det=2048, max_dim=3):
    d = draw(st.integers(1, max_dim))
    r = ENTRY_RANGE[d]
    rows = draw(st.lists(st.lists(st.integers(-r, r), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(0 < M.absdet <= max_det)
    return M


@settings(max_examples=80, deadline=None)
@given(M=regular_matrices(max_dim=4))
def test_smith_inverses_come_from_the_elimination(M):
    # U^{-1} and V^{-1} are carried through the elimination; the oracle is
    # Gauss-Jordan elimination on Fractions, which for |det| = 1 gives the inverse
    dec = smith_normal_form(M)
    assert dec.U @ dec.U_inv == IntMat.identity(M.dim) == dec.V_inv @ dec.V
    assert [list(r) for r in dec.U_inv.entries] == gauss_jordan_adjugate(dec.U)
    assert [list(r) for r in dec.V_inv.entries] == gauss_jordan_adjugate(dec.V)


# The m = 256 naive-DFT matrices of the lattice_fft benchmark workload, one per
# Smith shape family.
LATTICE_FFT_SHAPES = {
    "square": [[16, 0], [0, 16]],
    "cyclic": [[1, 0], [3, 256]],
    "dense-entries": [[48, 32], [16, 16]],
    "3d": [[4, 0, 0], [0, 4, 1], [0, 0, 16]],
}


@pytest.mark.parametrize("rows", LATTICE_FFT_SHAPES.values(), ids=LATTICE_FFT_SHAPES)
def test_enumeration_layout_contract(rows):
    M = IntMat.from_rows(rows)
    m, d = M.absdet, M.dim
    gs, pat = generating_set(M), pattern(M)
    for arr in (gs.rep_array, pat.numerators):
        assert arr.shape == (m, d) and arr.dtype == np.int64
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert gs.reps == oracle_reps(M)
    assert pat.points == tuple(oracle_point(M, i) for i in range(m))


@st.composite
def huge_triangular_matrices(draw):
    """Upper-triangular matrices in d = 2, 3 with |det| <= 64 and off-diagonal
    entries up to 2^70, around the int64 limits too."""
    d = draw(st.integers(2, 3))
    diag = draw(st.lists(st.integers(1, 4).flatmap(lambda s: st.sampled_from([s, -s])),
                         min_size=d, max_size=d))
    big = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70),
                    st.integers(2 ** 58, 2 ** 63).flatmap(lambda v: st.sampled_from([v, -v])))
    return IntMat.from_rows([[diag[i] if i == j else draw(big) if j > i else 0
                              for j in range(d)] for i in range(d)])


@settings(max_examples=60, deadline=None)
@given(M=huge_triangular_matrices())
def test_enumerations_of_huge_entries_match_fraction_oracle(M):
    reps = oracle_reps(M)
    assert generating_set(M).reps == reps
    assert set(pattern(M).points) == {M.inv_apply(r) for r in reps}


def assert_digit_classes(M):
    """``class_representatives(M)`` holds one row per class in the canonical
    order: its Smith class index is its position, and each row differs from
    the row of ``G(M)`` at that position by a point of ``M Z^d``."""
    H, R = class_representatives(M), generating_set(M).rep_array
    assert H.shape == R.shape and H.dtype in (np.int64, object)
    assert H.flags.c_contiguous and not H.flags.writeable
    assert np.array_equal(smith_normal_form(M).class_index(H), np.arange(M.absdet))
    A, q = smith_normal_form(M).scaled_inverse  # A = q M^{-1}
    D = (H.astype(object) - R.astype(object)) @ np.array(A.entries, dtype=object).T
    assert not (D % q).any()


@settings(max_examples=80, deadline=None)
@given(M=regular_matrices())
def test_class_representatives_are_the_digit_classes(M):
    assert_digit_classes(M)


@settings(max_examples=30, deadline=None)
@given(M=huge_triangular_matrices())
def test_class_representatives_of_huge_entries_are_the_digit_classes(M):
    assert_digit_classes(M)


def test_enumeration_bound_catches_a_wrapping_grid_product():
    # the coefficient of the last Smith axis in the box offsets fits int64,
    # but its product with the top digit wraps: only the bound keeps it exact
    M = IntMat.from_rows([[4, 3 * 2 ** 59 + 1], [0, 4]])
    snf = smith_normal_form(M)
    s = snf.diagonal[-1]
    coef = snf.V_inv.entries[0][-1] * (M.absdet // s)
    assert abs(coef) < 2 ** 63
    wrapped = int((np.arange(s, dtype=np.int64) * np.int64(coef))[-1])
    assert wrapped != (s - 1) * coef
    reps = oracle_reps(M)
    assert generating_set(M).reps == reps
    assert set(pattern(M).points) == {M.inv_apply(r) for r in reps}


def test_enumeration_bound_catches_a_grid_product_that_wraps_in_int32():
    # the same on the int32 rung of the width ladder: the coefficient fits
    # int32 and the product with the top digit fits int64, but not int32
    M = IntMat.from_rows([[4, 3 * 2 ** 26 + 1], [0, 4]])
    snf = smith_normal_form(M)
    s = snf.diagonal[-1]
    coef = snf.V_inv.entries[0][-1] * (M.absdet // s)
    assert abs(coef) < 2 ** 31 <= abs((s - 1) * coef) < 2 ** 62
    assert int((np.arange(s, dtype=np.int32) * np.int32(coef))[-1]) != (s - 1) * coef
    assert int((np.arange(s, dtype=np.int64) * np.int64(coef))[-1]) == (s - 1) * coef
    reps = oracle_reps(M)
    assert generating_set(M).reps == reps
    assert set(pattern(M).points) == {M.inv_apply(r) for r in reps}


def test_enumeration_width_covers_the_canonical_order_check():
    # every representative and every partial sum of R fits int32, but U^{-1} R
    # of the check does not: a width read from R alone wraps there and
    # rejects a correct set
    M = IntMat.from_rows([[1769687, 148035, 269320], [-19450, -1627, -2960], [-5184, -432, 6]])
    reps = oracle_reps(M)
    U_inv = smith_normal_form(M).U_inv
    assert max(abs(v) for r in reps for v in r) < 2 ** 31
    assert max(abs(v) for r in reps for v in U_inv.apply(r)) >= 2 ** 31
    assert generating_set(M).reps == reps


# [[1, b], [0, s]] whose bound in the named enumeration sits just below or
# just above 2^31, where the width changes from int32 to int64
INT32_EDGES = {
    "generating_set-below": ("generating_set", [[1, 53508], [0, 4]], np.int32),
    "generating_set-above": ("generating_set", [[1, 53509], [0, 4]], np.int64),
    "pattern-below": ("pattern", [[1, 429496727], [0, 6]], np.int32),
    "pattern-above": ("pattern", [[1, 429496728], [0, 6]], np.int64),
}


@pytest.mark.parametrize("name, rows, width", INT32_EDGES.values(), ids=INT32_EDGES)
def test_enumerations_at_the_int32_edge(name, rows, width, monkeypatch):
    M = IntMat.from_rows(rows)
    bounds, row_dtype = [], intlat._row_dtype
    monkeypatch.setattr(intlat, "_row_dtype", lambda b: bounds.append(b) or row_dtype(b))
    getattr(intlat, name).__wrapped__(M)
    assert 2 ** 31 - 2 ** 17 < bounds[0] < 2 ** 31 + 2 ** 17
    assert row_dtype(bounds[0]) is width
    gs, pat = generating_set.__wrapped__(M), pattern.__wrapped__(M)
    for arr in (gs.rep_array, pat.numerators):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous and not arr.flags.writeable
    assert gs.reps == oracle_reps(M)
    assert pat.points == tuple(oracle_point(M, i) for i in range(M.absdet))


@pytest.mark.parametrize("rows, width", [([[8, 3], [-2, 16]], np.int32),
                                         ([[1, 2 ** 62], [0, 3]], object)],
                         ids=["int32", "object"])
def test_canonical_order_check_catches_a_misplaced_representative(rows, width, monkeypatch):
    # swapping the digit vectors of positions 0 and 1 in every grid row swaps
    # two representatives: each is a valid one of its class, but the class of
    # position 0 then has the Smith digits of value 1
    M = IntMat.from_rows(rows)
    widths, grid_rows = [], intlat._grid_rows

    def swapped(B, diag, addend, dtype):
        widths.append(dtype)
        out = grid_rows(B, diag, addend, dtype)
        out[:, [0, 1]] = out[:, [1, 0]]
        return out

    assert generating_set.__wrapped__(M).reps == oracle_reps(M)
    monkeypatch.setattr(intlat, "_grid_rows", swapped)
    with pytest.raises(ConditionViolated):
        generating_set.__wrapped__(M)
    assert widths == [width, width]


@settings(max_examples=40, deadline=None)
@given(M=regular_matrices(), data=st.data())
def test_lattice_core_matches_fraction_oracle(M, data):
    gs = generating_set(M)
    assert gs.reps == oracle_reps(M)
    pat = pattern(M)
    d = M.dim
    for i in data.draw(st.lists(st.integers(0, len(gs) - 1), min_size=1, max_size=8)):
        assert gs.index_of(gs.reps[i]) == i
        assert pat.points[i] == oracle_point(M, i)
    vec = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=d, max_size=d)
    for _ in range(4):
        k = tuple(data.draw(vec))
        z = tuple(v // 10 ** 4 for v in data.draw(vec))
        shifted = tuple(a + b for a, b in zip(k, M.apply(z)))
        h = gs.reduce(k)
        assert gs.reduce(h) == h
        assert gs.reduce(shifted) == h
        assert gs.reps[gs.index_of(k)] == h
        assert gs.index_of(shifted) == gs.index_of(k)


@settings(max_examples=40, deadline=None)
@given(M=regular_matrices(), data=st.data())
def test_pattern_lookups_match_fraction_oracle(M, data):
    # index_of and reduce go through the Smith digits of M y, and the group
    # law adds the digit vectors mod diag(S) of M^T = U' S V'; the oracle
    # reduces each coordinate mod 1 into [-1/2, 1/2) in Fractions
    pat = pattern(M)
    diag = smith_normal_form(M.T).diagonal
    d, q = M.dim, M.absdet
    index = st.integers(0, len(pat) - 1)
    for _ in range(4):
        i, j = data.draw(index), data.draw(index)
        z = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=d, max_size=d))
        y = tuple(a + b for a, b in zip(pat.points[i], z))
        assert pat.index_of(y) == i
        assert pat.reduce(y) == frac_box(y) == pat.points[i]
        total = tuple(a + b for a, b in zip(pat.points[i], pat.points[j]))
        digits = (np.array(np.unravel_index(i, diag)) + np.unravel_index(j, diag)) % diag
        assert pat.points[np.ravel_multi_index(digits, diag)] == frac_box(total)
        # 1/(q+1) times a column of M is never integral, as q+1 does not divide det M
        off = (y[0] + Fraction(1, q + 1),) + y[1:]
        with pytest.raises(IndexMismatch):
            pat.index_of(off)
        for bad in (y + (Fraction(0),), y[:-1]):
            with pytest.raises(DimensionMismatch):
                pat.index_of(bad)


def oracle_class_index(M, k):
    """Mixed-radix value of the Smith digits ``U^{-1} k mod diag(S)``, in
    Python integers, one vector at a time; ``U^{-1}`` by Gauss-Jordan
    elimination, not from the ``U_inv`` that ``class_index`` reads."""
    snf = smith_normal_form(M)
    i = 0
    for row, s in zip(gauss_jordan_adjugate(snf.U), snf.diagonal):
        i = i * s + sum(a * b for a, b in zip(row, k)) % s
    return i


@settings(max_examples=40, deadline=None)
@given(M=regular_matrices(), bound=st.sampled_from([10 ** 3, 2 ** 40, 2 ** 70]), data=st.data())
def test_class_index_matches_scalar_lookup(M, bound, data):
    # entries up to 2^70 take the dtype=object path of apply_rows
    gs = generating_set(M)
    d = M.dim
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                              max_size=12)) + [[-bound] + [bound] * (d - 1)]
    idx = gs.class_index(np.array(rows, dtype=object).reshape(len(rows), d)).tolist()
    assert idx == [oracle_class_index(M, k) for k in rows]
    assert idx == [gs.index_of(k) for k in rows]
    assert [gs.reps[i] for i in idx] == [gs.reduce(k) for k in rows]
    if bound < 2 ** 62:
        assert gs.class_index(np.array(rows, dtype=np.int64).reshape(len(rows), d)).tolist() == idx
    assert gs.class_index(np.zeros((0, d), dtype=np.int64)).shape == (0,)


def test_int64_overflow_falls_back_to_python_ints():
    M = IntMat.from_rows([[1, 2 ** 62], [0, 3]])
    gs = generating_set(M)
    assert gs.reps == oracle_reps(M)
    assert [gs.index_of(r) for r in gs.reps] == [0, 1, 2]
    assert set(pattern(M).points) == {M.inv_apply(r) for r in gs.reps}
    assert generating_set(M).reps[2] == (-1537228672809129301, -1)
    # entries beyond int64 and no rows at all: Python integers, no OverflowError
    assert apply_rows(IntMat.diagonal([2 ** 70, 1]), np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


def test_enumeration_guard_raises_before_work():
    M = IntMat.diagonal([1024, 1025])
    assert M.absdet > ENUMERATION_GUARD
    for build in (generating_set, pattern, class_representatives):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            build(M)
        assert time.perf_counter() - t0 < 0.5


def test_pattern_has_its_own_enumeration_guard():
    # the pattern no longer goes through G(M), so it checks the guard itself,
    # before any Smith form, and a pattern in range builds no G(M)
    M = IntMat.diagonal([2 ** 10, 2 ** 11])
    assert M.absdet == 2 ** 21
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        pattern(M)
    assert time.perf_counter() - t0 < 0.5
    N = IntMat.from_rows([[3, 1, 0], [0, 5, 2], [1, 0, 7]])
    built = generating_set.cache_info().currsize
    assert len(pattern(N)) == N.absdet
    assert generating_set.cache_info().currsize == built


def test_class_index_and_reduce_check_dimension():
    gs = generating_set(IntMat.diagonal([2, 3]))
    with pytest.raises(DimensionMismatch):
        gs.index_of((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        gs.class_index(np.zeros((4, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        gs.reduce((1,))
    M = IntMat.from_rows([[3, 1], [0, 2]])
    for apply in (M.inv_apply, M.inv_T_apply):
        for v in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionMismatch):
                apply(v)


def test_lookups_reject_non_integral_frequencies():
    M = IntMat.from_rows([[3, 1], [0, 2]])
    gs = generating_set(M)
    i = gs.index_of((1, 2))
    assert gs.index_of((Fraction(2, 2), 2)) == gs.index_of((1.0, 2.0)) == i
    assert gs.reduce((Fraction(4, 4), 2.0)) == gs.reduce((1, 2))
    for bad in ((1.5, 2), (Fraction(3, 2), 2), (float("nan"), 0), (float("inf"), 0), ("1", 2)):
        with pytest.raises(InexactInput):
            gs.index_of(bad)
        with pytest.raises(InexactInput):
            gs.reduce(bad)
    with pytest.raises(InexactInput):
        gs.class_index(np.array([[1.5, 2.0]]))
    with pytest.raises(InexactInput):
        gs.class_index(np.zeros((3, 2)))
    assert gs.class_index(np.array([[1, 2]], dtype=np.int32)).tolist() == [i]



@pytest.mark.parametrize("entry, value", [
    (Fraction(4, 2), 2), (2.0, 2), (np.int64(2), 2), (np.float64(-3.0), -3),
    (1.5, None), (Fraction(7, 2), None), (0.9, None), (float("nan"), None),
    (float("inf"), None), ("3", None), (True, 1)])
def test_matrix_entries_must_be_integers(entry, value):
    rows = [[entry, 0], [1, 2]]
    if value is None:
        with pytest.raises(InexactInput):
            IntMat.from_rows(rows)
        with pytest.raises(InexactInput):
            IntMat(((entry, 0), (1, 2)))
        return
    M = IntMat.from_rows(rows)
    assert M.entries == ((value, 0), (1, 2)) and type(M.entries[0][0]) is int
    assert M == IntMat(((value, 0), (1, 2))) and M.det == 2 * value


def test_integer_tuples_are_still_checked_for_shape():
    # tuples of Python ints skip the entry conversion, not the shape checks
    for rows in (((1, 2), (3,)), ((1, 2),), ((),), ()):
        with pytest.raises(DimensionMismatch):
            IntMat(rows)


def gauss_jordan_adjugate(M):
    """``q M^{-1}`` with ``q = |det M|`` by Gauss-Jordan elimination on Fractions."""
    d = M.dim
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(M.entries)]
    for col in range(d):
        piv = next(r for r in range(col, d) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    q = M.absdet
    return [[x * q for x in row[d:]] for row in a]


@settings(max_examples=120, deadline=None)
@given(d=st.integers(1, 4), bound=st.sampled_from([3, 1000, 2 ** 40]), data=st.data())
def test_scaled_inverse_matches_fraction_oracle(d, bound, data):
    # entries up to 2^40 give inverse entries past 2^62 (d >= 3) and
    # determinants of either sign
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(M.det != 0)
    A, q = smith_normal_form(M).scaled_inverse
    assert q == M.absdet
    assert [list(r) for r in A.entries] == gauss_jordan_adjugate(M)
    assert M @ A == IntMat.diagonal([q] * d)


def test_scaled_inverse_of_negative_determinants():
    for rows in ([[-3]], [[0, 1], [1, 0]], [[2, 2 ** 33], [3, -5]], [[1, 2, 3], [0, 4, 5], [7, 0, 1]]):
        M = IntMat.from_rows(rows)
        A, q = smith_normal_form(M).scaled_inverse
        assert M.det < 0 and q == -M.det
        assert M @ A == IntMat.diagonal([q] * M.dim) == A @ M


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), data=st.data(), q=st.sampled_from([1, 2, 3, 7, 1024, 2 ** 40]))
def test_reduce_box_over_a_denominator(d, data, q):
    # the residues modulo a scaled matrix q M are congruent to the rows and
    # lie in its box q M [-1/2, 1/2)^d
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(M.det != 0)
    big = data.draw(st.booleans())
    bound = 2 ** 70 if big else 10 ** 6
    K = np.array(data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                                    min_size=1, max_size=6)), dtype=object if big else np.int64)
    qM = IntMat(tuple(tuple(q * v for v in row) for row in M.entries))
    R = _reduce_box(qM, K)
    A, p = smith_normal_form(M).scaled_inverse
    for k, r in zip(K.tolist(), R.tolist()):
        # (q M)^{-1} (k - r) is integral, (q M)^{-1} r in [-1/2, 1/2)^d
        diff = [sum(a * (x - y) for a, x, y in zip(row, k, r)) for row in A.entries]
        assert all(v % (p * q) == 0 for v in diff)
        assert all(-Fraction(1, 2) <= Fraction(sum(a * y for a, y in zip(row, r)), p * q) < Fraction(1, 2)
                   for row in A.entries)


# -- Hermite bases and the lattice-point walk ------------------------------------


@st.composite
def sheared_matrices(draw, max_dim=3):
    """A regular matrix of small entries times a shear ``I + s e_i e_j^T``, ``|s| <= 2^20``."""
    M = draw(regular_matrices(max_dim=max_dim))
    d = M.dim
    rows = IntMat.identity(d).to_lists()
    if d > 1:
        i, j = draw(st.permutations(range(d)))[:2]
        rows[i][j] = draw(st.integers(-2 ** 20, 2 ** 20))
    return M @ IntMat.from_rows(rows)


@settings(max_examples=120, deadline=None)
@given(M=st.one_of(regular_matrices(max_dim=4), sheared_matrices()))
def test_hermite_basis_spans_the_column_lattice(M):
    H = M.hermite
    d = M.dim
    rows = H.entries
    assert all(rows[i][k] == 0 for i in range(d) for k in range(i + 1, d))
    assert all(rows[i][i] > 0 for i in range(d))
    assert all(0 <= rows[i][k] < rows[i][i] for i in range(d) for k in range(i))
    assert H.absdet == M.absdet
    # both transition matrices M^{-1} H and H^{-1} M are integral
    for X, Y in ((M, H), (H, M)):
        A, q = smith_normal_form(X).scaled_inverse
        assert all(v % q == 0 for row in (A @ Y).entries for v in row)
    assert M.hermite is H


def box_walk(B, X, lo, hi):
    """Every point of the box ``[lo, hi]`` congruent to a row of ``X`` modulo
    ``B Z^d``, by testing each point of the box: ``A (y - x) = 0 mod q`` with
    ``(A, q)`` the scaled inverse of ``B``; in the order of the rows, and for
    each row in lexicographic order."""
    A, q = smith_normal_form(B).scaled_inverse
    box = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    return [(i, y) for i, x in enumerate(X) for y in box
            if all(sum(a * (u - v) for a, u, v in zip(row, y, x)) % q == 0 for row in A.entries)]


@settings(max_examples=120, deadline=None)
@given(B=sheared_matrices(), bound=st.sampled_from([5, 2 ** 40, 2 ** 70]), data=st.data())
def test_lattice_points_match_a_box_walk(B, bound, data):
    # the walk on the Hermite basis gives the points of the brute-force walk
    # over the box, in the same order, on int64 and on Python integers
    d = B.dim
    X = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                           min_size=0, max_size=5))
    lo = data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    hi = [a + w for a, w in zip(lo, data.draw(st.lists(st.integers(0, 7), min_size=d,
                                                         max_size=d)))]
    expected = box_walk(B, X, lo, hi)
    rows = np.array(X, dtype=np.int64 if bound < 2 ** 62 else object).reshape(-1, d)
    index, P = lattice_points(B.hermite.entries, rows, lo, hi)
    assert list(zip(index.tolist(), map(tuple, P.tolist()))) == expected
    if bound == 5:
        assert P.dtype == np.int64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlat, "_INT64_SAFE", 0)
        index, P = lattice_points(B.hermite.entries, rows, lo, hi)
    assert P.dtype == object and list(zip(index.tolist(), map(tuple, P.tolist()))) == expected


def test_lattice_points_guard_counts_the_points_of_a_step(monkeypatch):
    # the guard bounds the points each step holds, not a box: the 7 x 3 = 21
    # points of Z x 2Z in [-3, 3]^2 pass a guard of 21 and fail one of 20
    H = ((1, 0), (0, 2))
    X = np.zeros((1, 2), dtype=np.int64)
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 21)
    index, P = lattice_points(H, X, [-3, -3], [3, 3])
    assert len(P) == 21 and not index.any()
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 20)
    with pytest.raises(TooLarge):
        lattice_points(H, X, [-3, -3], [3, 3])
