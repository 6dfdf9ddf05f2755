import math
import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vpwave import dlvp, intlat, mra, tol
from vpwave.admissible import AdmissibleFn, periodized_sum, periodized_sum_exact
from vpwave.dlvp import (
    class_powers,
    coarse_of_fine,
    complement_phases,
    evaluate_series,
    fiber_partner,
    normalized_filters,
    orthonormal_wavelet,
    orthonormalize,
    periodized_product,
    scaling_profile,
    scaling_spectrum,
    two_scale,
    wavelet_profile,
    wavelet_shift_vectors,
    wavelet_spectrum,
    wavelet_two_scale,
)
from vpwave.errors import (DegenerateClass, DimensionMismatch, IndexMismatch, InexactInput,
                           LevelOutOfRange, NotDyadic, TooLarge)
from vpwave.intlat import (
    J_D,
    J_X,
    J_Y,
    IntMat,
    axis_doubling,
    chain,
    generating_set,
    pattern,
    plane_rotation,
)
from vpwave.dlvp import SparseSpectrum, ScalingFunction


def example_48():
    N = IntMat.from_rows([[10, -4], [6, 4]])
    J = IntMat.from_rows([[1, 1], [0, 2]])
    return chain(N, [J]), AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])


def chain_1d_fig1():
    # M = 32 = 2N, S = 4 = 2T: alpha = beta = 1/8 on N = 16 with one doubling
    return chain(IntMat.from_rows([[16]]), [IntMat.from_rows([[2]])]), \
        AdmissibleFn.tensor_linear([F(1, 8)])


DYADIC_POOL = [
    J_X, J_Y, J_D,
    IntMat.from_rows([[1, 1], [-1, 1]]),
    IntMat.from_rows([[2, 0], [1, 1]]),
    IntMat.from_rows([[2, 0], [-1, 1]]),
    IntMat.from_rows([[1, 1], [0, 2]]),
    IntMat.from_rows([[1, -1], [0, 2]]),
]


# -- refinement operator and window products ---------------------------------


def test_periodized_product_dirichlet_collapse():
    g = AdmissibleFn.characteristic(2)
    rng = np.random.default_rng(0)
    for J in (J_X, J_Y, J_D):
        for _ in range(200):
            x = tuple(F(v).limit_denominator(128) for v in rng.uniform(-1.5, 1.5, 2))
            assert periodized_product(g, J, g, x) == g(x)


def test_periodized_product_ramp_absorption():
    # axis factors leave a narrow-ramp window invariant
    g = AdmissibleFn.tensor_linear([F(1, 8), F(1, 8)])
    rng = np.random.default_rng(1)
    for J in (J_X, J_Y):
        for _ in range(200):
            x = tuple(F(v).limit_denominator(256) for v in rng.uniform(-0.8, 0.8, 2))
            assert periodized_product(g, J, g, x) == g(x)


def test_periodized_product_constant_second_factor():
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = tuple(F(v).limit_denominator(64) for v in rng.uniform(-1, 1, 2))
        assert periodized_product(g, IntMat.identity(2), lambda y: 1, x) == 1


def test_scaling_profile_base_case():
    c, g = example_48()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = tuple(F(v).limit_denominator(64) for v in rng.uniform(-0.7, 0.7, 2))
        assert scaling_profile(c, 1, g, x) == g(x)


def test_scaling_profile_dirichlet_chains():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.identity(2), [J_X, J_Y, J_D])
    rng = np.random.default_rng(4)
    for level in range(4):
        for _ in range(100):
            x = tuple(F(v).limit_denominator(64) for v in rng.uniform(-1, 1, 2))
            assert scaling_profile(c, level, g, x) == g(x)


def test_scaling_profile_converts_float_input_exactly():
    c, g = example_48()
    rng = np.random.default_rng(8)
    for level in (0, 1):
        for x in rng.uniform(-0.8, 0.8, size=(100, 2)):
            exact = scaling_profile(c, level, g, tuple(F(v) for v in x))
            got = scaling_profile(c, level, g, tuple(x))
            assert got == exact and type(got) is type(exact)


def test_one_exact_periodization_per_chain(monkeypatch):
    # the class sums of every level are one exact batch, which the spectra and
    # the two-scale vectors share; a cold report makes one more, the nesting
    # check of every level, and no call per level
    c = chain(IntMat.from_rows([[5, 1], [-1, 3]]), [J_D, J_X, J_D])
    g = AdmissibleFn.tensor_linear([F(1, 7), F(1, 9)])
    calls = []

    def counted(window, items):
        calls.append([(J, len(N), q) for J, N, q in items])
        return periodized_sum_exact(window, items)

    def cold():
        calls.clear()
        for module in (dlvp, mra):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    for module in (dlvp, mra):
        monkeypatch.setattr(module, "periodized_sum_exact", counted)
    cold()
    for level in range(c.n_levels + 1):
        scaling_spectrum(c, level, g)
    # level l periodizes over J_l at the classes of G(M_{l+1}^T), over m_l
    assert calls == [[(J, c.size(level + 1), c.size(level)) for level, J in enumerate(c.factors)]]
    for level in range(c.n_levels):
        two_scale(c, level, g)
        wavelet_two_scale(c, level, g)
        normalized_filters(c, level, g)
    assert len(calls) == 1
    cold()
    assert mra.build_report(c, g).ok
    assert len(calls) == 2 and [len(items) for items in calls] == [c.n_levels] * 2
    assert [J for J, _, _ in calls[1]] == list(c.factors)


def test_scaling_profile_positive_on_unit_cube():
    c, g = example_48()
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = tuple(F(v).limit_denominator(128) for v in rng.uniform(-0.5, 0.4999, 2))
        assert scaling_profile(c, 0, g, x) > 0


def test_worked_profile_values():
    c, g = example_48()
    # plateau, the one-tenth-along-the-edge transition, and corner values
    assert scaling_profile(c, 0, g, (F(0), F(0))) == 1
    assert scaling_profile(c, 0, g, (F(2, 5), F(1, 2))) == F(1, 2)
    assert scaling_profile(c, 0, g, (F(-2, 5), F(-1, 2))) == F(1, 2)
    assert scaling_profile(c, 0, g, (F(1, 2), F(1, 2))) == F(1, 4)
    # maximum on the support added beyond the window box, attained here
    assert scaling_profile(c, 0, g, (F(1, 2), F(7, 10))) == F(1, 4)


# -- scaling spectra -----------------------------------------------------------


def test_example48_plateau_coefficients():
    c, g = example_48()
    phi0 = scaling_spectrum(c, 0, g)
    N = c.M0
    assert phi0.spectrum[(0, 0)] == pytest.approx(0.125, abs=1e-15)
    # every frequency whose lattice coordinate falls in the inner box gets 1/8
    for k, coeff in phi0.spectrum.coeffs.items():
        x = N.inv_T_apply(k)
        if all(abs(v) <= F(2, 5) for v in x):
            assert coeff == pytest.approx(0.125, abs=1e-15)


def test_example48_max_beyond_window_box():
    c, g = example_48()
    phi0 = scaling_spectrum(c, 0, g)
    N = c.M0
    best = 0.0
    for k, coeff in phi0.spectrum.coeffs.items():
        x = N.inv_T_apply(k)
        if any(abs(v) > F(3, 5) for v in x):
            best = max(best, abs(coeff))
    assert best <= 0.25 / 8 + 1e-15


def test_positive_on_symmetric_generating_set():
    c, g = example_48()
    for level in (0, 1):
        sf = scaling_spectrum(c, level, g)
        for h in generating_set(c.matrix(level).T).reps:
            assert sf.spectrum[h].real > 0


def test_1d_coefficients_match_ramp_table():
    c, g = chain_1d_fig1()
    phi = scaling_spectrum(c, 0, g)
    root = math.sqrt(16)
    for k in range(-12, 13):
        got = phi.spectrum[(k,)].real * root
        ak = abs(k)
        expected = 1.0 if ak < 6 else ((10 - ak) / 4 if ak <= 10 else 0.0)
        assert got == pytest.approx(expected, abs=1e-15)


def test_dirichlet_degeneration_exact():
    g = AdmissibleFn.characteristic(2)
    rng = random.Random(7)
    for _ in range(3):
        factors = [rng.choice([J_X, J_Y, J_D]) for _ in range(5)]
        c = chain(IntMat.identity(2), factors)
        for level in range(6):
            sf = scaling_spectrum(c, level, g)
            m = c.size(level)
            assert len(sf.spectrum) == m
            gs = generating_set(c.matrix(level).T)
            assert {gs.index_of(k) for k in sf.spectrum.coeffs} == set(range(m))
            expected = 1 / math.sqrt(m)
            assert all(v == expected for v in sf.spectrum.coeffs.values())


def test_support_nesting_across_levels():
    c, g = example_48()
    assert scaling_spectrum(c, 0, g).spectrum.coeffs.keys() <= \
        scaling_spectrum(c, 1, g).spectrum.coeffs.keys()


# -- spectra against direct profile evaluation -----------------------------------


def _widened_box(keys, pad=2):
    K = np.array(sorted(keys))
    lo, hi = K.min(axis=0) - pad, K.max(axis=0) + pad
    return product(*(range(int(a), int(b) + 1) for a, b in zip(lo, hi)))


def assert_spectra_match_profiles(c, g):
    """Every level's scaling spectrum equals the directly evaluated profile
    exactly (trimmed values read 0), and every wavelet spectrum matches
    ``wavelet_profile`` within TWO_SCALE, on the support box widened by 2."""
    for level in range(c.n_levels + 1):
        M, root = c.matrix(level), math.sqrt(c.size(level))
        phi = scaling_spectrum(c, level, g).spectrum
        for k in _widened_box(phi.coeffs):
            expected = float(scaling_profile(c, level, g, M.inv_T_apply(k))) / root
            if abs(expected) <= tol.ZERO_TRIM:
                expected = 0.0
            assert phi[k] == expected, (level, k)
        if level < c.n_levels:
            psi = wavelet_spectrum(c, level, g).spectrum
            for k in _widened_box(psi.coeffs):
                expected = wavelet_profile(c, level, g, M.inv_T_apply(k)) / root
                assert abs(psi[k] - expected) < tol.TWO_SCALE, (level, k)


ORACLE_CASES = {
    "example_48": example_48,
    "1d_fig1": chain_1d_fig1,
    "diag4_vp": lambda: (chain(IntMat.diagonal([4, 4]), [J_D, J_X, J_D]),
                         AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])),
    "quincunx_dirichlet": lambda: (chain(IntMat.identity(2), [J_D] * 4),
                                   AdmissibleFn.characteristic(2)),
    # the chain and window of the benchmark's report_dirichlet_deep workload
    "dirichlet_deep": lambda: (chain(IntMat.identity(2), [J_D] * 6),
                               AdmissibleFn.characteristic(2)),
    # sample denominators pass 2^62 below the top level: Python-int numerators
    "smoothed_deep": lambda: (chain(IntMat.diagonal([2, 2]), [J_D, J_X, J_D]),
                              AdmissibleFn.tensor_smoothed([F(1, 12), F(1, 9)], order=2)),
    "3d_axis_rotation": lambda: (
        chain(IntMat.identity(3),
              [axis_doubling(3, 0), plane_rotation(3, 0, 1), axis_doubling(3, 2)]),
        AdmissibleFn.tensor_linear([F(1, 20)] * 3)),
}


# -- per-key class lookups: the loops the array code replaced, kept as oracles --


def oracle_class_powers(fn):
    gs = generating_set(fn.matrix.T)
    powers = np.zeros(len(gs))
    for k, c in fn.spectrum.coeffs.items():
        powers[gs.index_of(k)] += abs(c) ** 2
    return powers


def oracle_orthonormalize(fn):
    gs = generating_set(fn.matrix.T)
    scale = 1.0 / np.sqrt(fn.size * oracle_class_powers(fn))
    return {k: c * scale[gs.index_of(k)] for k, c in fn.spectrum.coeffs.items()}


def oracle_fiber_partner(c, level):
    # the partner of h is the class of h + M_l^T J^T v, with v from the Smith form of J^T
    J = c.factors[level]
    v, _ = wavelet_shift_vectors(J)
    Jv = J.T.apply(v)
    assert all(F(x).denominator == 1 for x in Jv)
    shift = c.matrix(level).T.apply([int(x) for x in Jv])
    gs = generating_set(c.matrix(level + 1).T)
    return np.array([gs.index_of(tuple(a + b for a, b in zip(h, shift))) for h in gs.reps])


def oracle_coarse_of_fine(c, level):
    gs_coarse = generating_set(c.matrix(level).T)
    return np.array([gs_coarse.index_of(h) for h in generating_set(c.matrix(level + 1).T).reps])


def oracle_support_radii(c, g):
    out = []
    for level in range(c.n_levels + 1):
        supp = scaling_spectrum(c, level, g).spectrum.coeffs.keys()
        r = 0
        while all(p in supp for p in product(range(-r - 1, r + 2), repeat=c.dim)):
            r += 1
        out.append(r)
    return out


def assert_class_lookups_match_oracles(c, g):
    """The gathers and bincounts of the spectral layer equal the per-key
    ``index_of`` loops they replaced, bit for bit."""
    assert mra.support_radii(c, g) == oracle_support_radii(c, g)
    for level in range(c.n_levels + 1):
        fns = [scaling_spectrum(c, level, g)]
        if level < c.n_levels:
            fns += [wavelet_spectrum(c, level, g), orthonormal_wavelet(c, level, g)]
        for fn in fns:
            assert np.array_equal(class_powers(fn), oracle_class_powers(fn))
            assert orthonormalize(fn).spectrum.coeffs == oracle_orthonormalize(fn)
        if level == c.n_levels:
            continue
        assert np.array_equal(coarse_of_fine(c, level), oracle_coarse_of_fine(c, level))
        assert np.array_equal(fiber_partner(c, level), oracle_fiber_partner(c, level))
        # the normalized scaling filter, rebuilt with the per-key coarse class map
        fine, coarse = scaling_spectrum(c, level + 1, g), scaling_spectrum(c, level, g)
        q_phi = class_powers(coarse)[oracle_coarse_of_fine(c, level)]
        a_vals = (two_scale(c, level, g).values * np.sqrt(c.size(level + 1) * class_powers(fine))
                  / np.sqrt(c.size(level) * q_phi))
        assert np.array_equal(normalized_filters(c, level, g)[0].values, a_vals)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_spectra_match_direct_profiles(case):
    assert_spectra_match_profiles(*ORACLE_CASES[case]())
    assert_class_lookups_match_oracles(*ORACLE_CASES[case]())


@settings(max_examples=6, deadline=None)
@given(M0=st.sampled_from([IntMat.identity(2), IntMat.diagonal([3, 2]),
                           IntMat.from_rows([[2, 1], [-1, 2]])]),
       factors=st.lists(st.sampled_from(DYADIC_POOL), min_size=1, max_size=3),
       alpha=st.fractions(min_value=0, max_value=F(1, 4), max_denominator=40)
       .filter(lambda a: a > 0))
def test_spectra_match_direct_profiles_random_chains(M0, factors, alpha):
    c, g = chain(M0, factors), AdmissibleFn.tensor_linear([alpha, alpha])
    assert_spectra_match_profiles(c, g)
    assert_class_lookups_match_oracles(c, g)


# -- two-scale relations -------------------------------------------------------


def test_two_scale_identity():
    c, g = example_48()
    a = two_scale(c, 0, g)
    gs1 = generating_set(c.matrix(1).T)
    phi0, phi1 = scaling_spectrum(c, 0, g), scaling_spectrum(c, 1, g)
    for k in phi0.spectrum.coeffs.keys() | phi1.spectrum.coeffs.keys():
        lhs = phi0.spectrum[k]
        rhs = a.values[gs1.index_of(k)] * phi1.spectrum[k]
        assert abs(lhs - rhs) < 1e-12


def test_two_scale_at_zero_frequency():
    c, g = example_48()
    a = two_scale(c, 0, g)
    gs1 = generating_set(c.matrix(1).T)
    assert a.values[gs1.index_of((0, 0))] == pytest.approx(math.sqrt(2), abs=1e-14)


def test_two_scale_dirichlet_binary():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.diagonal([3, 2]), [J_X])
    a = two_scale(c, 0, g)
    root = math.sqrt(2)
    for v in a.values:
        assert v == 0 or v == root


def test_two_scale_level_bounds():
    c, g = example_48()
    with pytest.raises(LevelOutOfRange):
        two_scale(c, 1, g)


# -- wavelets ------------------------------------------------------------------


E48 = IntMat.from_rows([[1, 1], [0, 2]])
# factor, v (the nonzero point of P(J^T)) and w (that of P(J)) in [0, 1)^d; hard-coded,
# so that a change of the box that holds the patterns cannot move them
SHIFT_VECTORS = [
    (IntMat.from_rows([[2]]), "1/2", "1/2"),
    (J_D, "1/2 1/2", "1/2 1/2"),
    (J_D.T, "1/2 1/2", "1/2 1/2"),
    (J_X, "1/2 0", "1/2 0"),
    (J_Y, "0 1/2", "0 1/2"),
    (E48, "0 1/2", "1/2 1/2"),
    (E48.T, "1/2 1/2", "0 1/2"),
    (axis_doubling(3, 0), "1/2 0 0", "1/2 0 0"),
    (axis_doubling(3, 1), "0 1/2 0", "0 1/2 0"),
    (axis_doubling(3, 2), "0 0 1/2", "0 0 1/2"),
    (plane_rotation(3, 0, 1), "1/2 1/2 0", "1/2 1/2 0"),
    (plane_rotation(3, 0, 2), "1/2 0 1/2", "1/2 0 1/2"),
    (plane_rotation(3, 1, 0), "1/2 1/2 0", "1/2 1/2 0"),
    (plane_rotation(3, 1, 2), "0 1/2 1/2", "0 1/2 1/2"),
    (plane_rotation(3, 2, 0), "1/2 0 1/2", "1/2 0 1/2"),
    (plane_rotation(3, 2, 1), "0 1/2 1/2", "0 1/2 1/2"),
]


def test_wavelet_shift_vectors():
    for J, v, w in SHIFT_VECTORS:
        assert wavelet_shift_vectors(J) == (tuple(map(F, v.split())), tuple(map(F, w.split()))), J
    for J in (IntMat.diagonal([2, 2]), IntMat.from_rows([[3]]), IntMat.from_rows([[1, 2], [1, 2]])):
        with pytest.raises(NotDyadic):
            wavelet_shift_vectors(J)


def enumerated_shift_vectors(J):
    """The oracle: the nonzero points of the enumerated ``P(J^T)`` and ``P(J)``, mod 1."""
    return tuple(next(tuple(c % 1 for c in p) for p in pattern(M).points if any(p))
                 for M in (J.T, J))


SHIFT_FACTORS = [J_D, J_X, J_Y, E48, IntMat.from_rows([[2]]), IntMat.from_rows([[1, 0], [3, 2]]),
                 IntMat.from_rows([[1, 1], [1, -1]])] + [axis_doubling(3, i) for i in range(3)] + [
                 plane_rotation(3, i, j) for i in range(3) for j in range(3) if i != j]


@pytest.mark.parametrize("J", SHIFT_FACTORS + [J.T for J in SHIFT_FACTORS], ids=str)
def test_wavelet_shift_vectors_match_the_pattern_enumeration(J):
    assert wavelet_shift_vectors(J) == enumerated_shift_vectors(J)


@st.composite
def dyadic_factors(draw):
    # U diag(1, .., 1, +-2) V with U, V products of random elementary operations
    d = draw(st.integers(1, 3))
    rows = [[2 * draw(st.sampled_from([1, -1])) if i == j == d - 1 else int(i == j)
             for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            continue
        if draw(st.booleans()):
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            for r in rows:
                r[i] += c * r[j]
    return IntMat.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(J=dyadic_factors())
def test_wavelet_shift_vectors_match_the_pattern_enumeration_on_random_factors(J):
    assert J.absdet == 2
    assert wavelet_shift_vectors(J) == enumerated_shift_vectors(J)


def test_wavelet_profile_vanishes_with_inner_factor():
    c, g = example_48()
    # second factor kills the product wherever g(J^{-T} x) = 0
    J = c.factors[0]
    x = (0.0, 1.3)
    assert g(tuple(float(v) for v in J.inv_T_apply(x))) == 0
    assert wavelet_profile(c, 0, g, x) == 0


def test_1d_wavelet_modulus_matches_classical_form():
    c, g = chain_1d_fig1()
    psi = wavelet_spectrum(c, 0, g)
    root = math.sqrt(16)
    for k in range(-40, 41):
        x = F(k, 16)
        window = sum(g.eval_axis(0, x + 1 + 2 * z) for z in range(-4, 5))
        expected = float(window * g.eval_axis(0, x / 2))
        assert abs(abs(psi.spectrum[(k,)]) * root - expected) < 1e-12


def test_wavelet_two_scale_identity():
    c, g = example_48()
    b = wavelet_two_scale(c, 0, g)
    gs1 = generating_set(c.matrix(1).T)
    psi0, phi1 = wavelet_spectrum(c, 0, g), scaling_spectrum(c, 1, g)
    for k in psi0.spectrum.coeffs.keys() | phi1.spectrum.coeffs.keys():
        lhs = psi0.spectrum[k]
        rhs = b.values[gs1.index_of(k)] * phi1.spectrum[k]
        assert abs(lhs - rhs) < 1e-12


def test_wavelet_support_inside_next_scaling_support():
    c, g = example_48()
    assert wavelet_spectrum(c, 0, g).spectrum.coeffs.keys() <= \
        scaling_spectrum(c, 1, g).spectrum.coeffs.keys()


def test_wavelet_dirichlet_binary_filters():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.diagonal([2, 3]), [J_X])
    b = wavelet_two_scale(c, 0, g)
    root = math.sqrt(2)
    for v in b.values:
        assert abs(v) == 0 or abs(abs(v) - root) < 1e-15


def test_fine_classes_covered_by_filter_pair():
    c, g = example_48()
    a = two_scale(c, 0, g).values
    b = wavelet_two_scale(c, 0, g).values
    assert np.all((np.abs(a) > 0) | (np.abs(b) > 0))


def test_wavelet_requires_dyadic_chain():
    c = chain(IntMat.identity(2), [IntMat.diagonal([2, 2])])
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    with pytest.raises(NotDyadic):
        wavelet_spectrum(c, 0, g)


def test_top_level_frequency_box_guard():
    # m = 10^6 passes the enumeration guard, but the window's frequency box
    # M^T [-3/5, 3/5]^2 holds 1201^2 > 2^20 points
    c = chain(IntMat.diagonal([1000, 1000]))
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    with pytest.raises(TooLarge):
        scaling_spectrum(c, 0, g)


# -- orthonormalization --------------------------------------------------------


def test_orthonormalize_sets_class_powers():
    c, g = example_48()
    for level in (0, 1):
        sf = orthonormalize(scaling_spectrum(c, level, g))
        powers = class_powers(sf)
        assert np.max(np.abs(c.size(level) * powers - 1)) < 1e-12


def test_orthonormalize_idempotent():
    c, g = example_48()
    sf = orthonormalize(scaling_spectrum(c, 0, g))
    again = orthonormalize(sf)
    for k, v in sf.spectrum.coeffs.items():
        assert abs(again.spectrum[k] - v) < 1e-14


def test_orthonormalize_dirichlet_identity():
    g = AdmissibleFn.characteristic(2)
    c = chain(IntMat.identity(2), [J_D, J_X])
    sf = scaling_spectrum(c, 2, g)
    normalized = orthonormalize(sf)
    for k, v in sf.spectrum.coeffs.items():
        assert normalized.spectrum[k] == pytest.approx(v, abs=1e-15)


def test_orthonormalize_gram_matrix():
    c, g = example_48()
    sf = orthonormalize(scaling_spectrum(c, 0, g))
    N = c.M0
    m = 64
    P = class_powers(sf)
    gs = generating_set(N.T)
    H = np.array(gs.reps, dtype=float)
    pts = np.array([[float(v) for v in p] for p in pattern(N).points])
    worst = 0.0
    for i in range(0, m, 7):
        for j in range(m):
            u = pts[i] - pts[j]
            val = np.sum(P * np.exp(-2j * np.pi * (H @ u)))
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    assert worst < 1e-10


def test_orthonormalize_degenerate_class():
    c, g = example_48()
    sf = scaling_spectrum(c, 0, g)
    # zero out one whole congruence class
    gs = generating_set(c.M0.T)
    kill = gs.index_of((1, 1))
    keep = gs.class_index(sf.spectrum.keys) != kill
    broken = ScalingFunction(chain=c, level=0, g=g, spectrum=SparseSpectrum(
        dim=2, keys=sf.spectrum.keys[keep], values=sf.spectrum.values[keep]))
    with pytest.raises(DegenerateClass):
        orthonormalize(broken)
    # every class empty: all powers are 0, the largest too
    empty = ScalingFunction(chain=c, level=0, g=g, spectrum=SparseSpectrum(
        dim=2, keys=np.zeros((0, 2)), values=np.zeros(0)))
    with pytest.raises(DegenerateClass):
        orthonormalize(empty)


# -- complement phases and orthogonal filters -----------------------------------


def test_complement_phases_sign_flip():
    c, g = example_48()
    sigma = complement_phases(c, 0)
    partner = fiber_partner(c, 0)
    assert np.max(np.abs(sigma + sigma[partner])) < 1e-12
    assert np.max(np.abs(np.abs(sigma) - 1)) < 1e-15


def test_complement_phases_1d_alternation():
    c, g = chain_1d_fig1()
    sigma = complement_phases(c, 0)
    gs = generating_set(c.matrix(1).T)
    for h in generating_set(c.matrix(0).T).reps:
        i = gs.index_of(h)
        j = gs.index_of((h[0] + 16,))
        assert abs(sigma[i] + sigma[j]) < 1e-12


def test_normalized_filters_fiber_structure():
    for (c, g) in (example_48(), chain_1d_fig1()):
        a2, b2 = normalized_filters(c, 0, g)
        partner = fiber_partner(c, 0)
        A, B = a2.values, b2.values
        assert np.max(np.abs(np.abs(A) ** 2 + np.abs(A[partner]) ** 2 - 2)) < 1e-10
        assert np.max(np.abs(np.abs(B) ** 2 + np.abs(B[partner]) ** 2 - 2)) < 1e-10
        cross = A * np.conj(B) + A[partner] * np.conj(B[partner])
        assert np.max(np.abs(cross)) < 1e-10


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_class_maps_and_filters_are_read_only(case):
    # cached arrays are handed out as they are: a caller's write must raise
    c, g = ORACLE_CASES[case]()
    for level in range(c.n_levels):
        a2, b2 = normalized_filters(c, level, g)
        arrays = [coarse_of_fine(c, level), fiber_partner(c, level), complement_phases(c, level),
                  a2.values, b2.values, two_scale(c, level, g).values,
                  wavelet_two_scale(c, level, g).values]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0
        partner, coarse = fiber_partner(c, level), coarse_of_fine(c, level)
        assert partner.dtype == coarse.dtype == np.intp
        # an involution without fixed points that stays inside each fiber
        assert np.array_equal(partner[partner], np.arange(len(partner)))
        assert not np.any(partner == np.arange(len(partner)))
        assert np.array_equal(coarse[partner], coarse)


def test_orthonormal_wavelet_complements_scaling_space():
    c, g = example_48()
    phi = orthonormalize(scaling_spectrum(c, 0, g))
    psi = orthonormal_wavelet(c, 0, g)
    assert np.max(np.abs(class_powers(psi) * 64 - 1)) < 1e-12
    gs = generating_set(c.M0.T)
    cross = np.zeros(64, dtype=complex)
    for k in phi.spectrum.coeffs.keys() | psi.spectrum.coeffs.keys():
        cross[gs.index_of(k)] += phi.spectrum[k] * np.conj(psi.spectrum[k])
    assert np.max(np.abs(cross)) < 1e-12


def test_orthonormal_wavelet_random_dyadic_chains():
    rng = random.Random(2025)
    for trial in range(5):
        M0 = IntMat.from_rows([[rng.choice([1, 2]), rng.choice([0, 1])],
                               [rng.choice([0, -1]), rng.choice([1, 3])]])
        if M0.det == 0:
            continue
        factors = [rng.choice(DYADIC_POOL) for _ in range(2)]
        c = chain(M0, factors)
        g = AdmissibleFn.tensor_linear([F(1, 20), F(1, 20)])
        for level in range(2):
            phi = orthonormalize(scaling_spectrum(c, level, g))
            psi = orthonormal_wavelet(c, level, g)
            gs = generating_set(c.matrix(level).T)
            cross = np.zeros(c.size(level), dtype=complex)
            for k in phi.spectrum.coeffs.keys() | psi.spectrum.coeffs.keys():
                cross[gs.index_of(k)] += phi.spectrum[k] * np.conj(psi.spectrum[k])
            assert np.max(np.abs(cross)) < 1e-10, (str(M0), level)


# -- series evaluation -------------------------------------------------------


def test_spectrum_keys_must_be_integers():
    s = SparseSpectrum(dim=2, keys=np.array([[1.0, -2.0], [0.0, 0.0]]), values=[1.0, 2.0])
    assert s.keys.dtype == np.int64 and s.keys.tolist() == [[0, 0], [1, -2]]
    assert s[(1, -2)] == s.coeffs.get((1, -2), 0.0) == 1.0
    # an empty key array of any dtype holds no key to misread
    assert len(SparseSpectrum(dim=2, keys=np.zeros((0, 2)), values=np.zeros(0))) == 0
    for bad in ([[0.5, 0]], np.array([[F(1, 2), 0]], dtype=object), [[float("nan"), 0]]):
        with pytest.raises(InexactInput):
            SparseSpectrum(dim=2, keys=bad, values=[1.0])
    with pytest.raises(InexactInput):
        s[(0.5, 0)]
    # keys of another width are neither re-chunked nor looked up
    for bad in ([[1, 2, 3], [4, 5, 6]], [[1], [2]], [1, 2], np.zeros((2, 1, 2), dtype=int)):
        with pytest.raises(DimensionMismatch):
            SparseSpectrum(dim=2, keys=bad, values=np.zeros(len(bad)))
    assert len(SparseSpectrum(dim=2, keys=np.zeros((0, 3)), values=np.zeros(0))) == 0
    for key in ((0,), (0, 0, 0), ()):
        with pytest.raises(DimensionMismatch):
            s[key]
    # one value per key, no more and no fewer
    for values in ([1.0], [1.0, 2.0, 3.0], np.zeros((2, 1))):
        with pytest.raises(DimensionMismatch):
            SparseSpectrum(dim=2, keys=[[0, 0], [1, 0]], values=values)


@pytest.mark.parametrize("keys", [[[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [1, 0]],
                                  [[2, 5], [2, 5]]])
def test_spectrum_keys_must_be_distinct(keys):
    # sorted or not, a repeated key would leave len and coeffs disagreeing
    with pytest.raises(IndexMismatch):
        SparseSpectrum(dim=2, keys=keys, values=np.arange(1.0, len(keys) + 1))
    assert len(SparseSpectrum(dim=2, keys=[[1, 0], [0, 1], [0, 0]], values=[1.0, 2.0, 3.0])) == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
@pytest.mark.parametrize("call", [
    lambda v: AdmissibleFn.tensor_linear([v]),
    lambda v: AdmissibleFn.tensor_smoothed([v, 0]),
    lambda v: periodized_sum(AdmissibleFn.characteristic(2), J_D, (v, 0)),
    lambda v: scaling_profile(chain(IntMat.identity(2), [J_D]), 0,
                              AdmissibleFn.characteristic(2), (v, 0)),
    lambda v: wavelet_profile(chain(IntMat.identity(2), [J_D]), 0,
                              AdmissibleFn.characteristic(2), (0, v)),
    lambda v: pattern(J_D).index_of((v, 0)),
    lambda v: J_D.inv_apply((0, v)),
], ids=["tensor_linear", "tensor_smoothed", "periodized_sum", "scaling_profile",
        "wavelet_profile", "pattern_index_of", "inv_apply"])
def test_non_finite_floats_raise_inexact_input(call, bad):
    with pytest.raises(InexactInput):
        call(bad)


def test_evaluate_series_constant():
    s = SparseSpectrum(dim=2, keys=[[0, 0]], values=[1.0])
    assert evaluate_series(s, (0.3, 1.1)) == pytest.approx(1.0)
    empty = SparseSpectrum(dim=2, keys=np.zeros((0, 2), dtype=int), values=np.zeros(0))
    assert evaluate_series(empty, (0.3, 1.1)) == 0j
    for spec in (s, empty):
        for x in ((0.3,), (0.3, 1.1, 0.0), ()):
            with pytest.raises(DimensionMismatch):
                evaluate_series(spec, x)


def test_evaluate_series_real_for_symmetric_spectrum():
    c, g = example_48()
    spec = scaling_spectrum(c, 0, g).spectrum
    rng = np.random.default_rng(11)
    for x in rng.uniform(0, 2 * np.pi, size=(20, 2)):
        assert abs(evaluate_series(spec, x).imag) < 1e-12


def test_localization_better_than_dirichlet():
    # smoother window -> faster spatial decay of the scaling function
    c, g = example_48()
    gd = AdmissibleFn.characteristic(2)
    grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)

    def peak_to_tail(spec):
        vals = np.array([[abs(evaluate_series(spec, (x, y))) for y in grid] for x in grid])
        shifted = np.fft.fftshift(vals)
        n = len(grid)
        c0 = n // 2
        r = n // 8
        peak = np.sum(shifted[c0 - r:c0 + r, c0 - r:c0 + r] ** 2)
        return peak / (np.sum(shifted ** 2) - peak)

    ratio_vp = peak_to_tail(scaling_spectrum(c, 0, g).spectrum)
    ratio_dir = peak_to_tail(scaling_spectrum(c, 0, gd).spectrum)
    assert ratio_vp > ratio_dir


# -- integer fast paths against their unpruned or Python-integer forms ---------


PRUNING_CASES = {**ORACLE_CASES,
                 "sheared": lambda: (chain(IntMat.from_rows([[1, 0], [3, 64]]), [J_D]),
                                     AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)]))}


def support_box_walk(M, g):
    """The integer points of the bounding box of ``M^T [-hw, hw]`` in
    lexicographic order; those ``k`` whose ``M^{-T} k = N / q`` lies in the
    support box, with their ``N``; and ``q``: each point of the box tested."""
    bounds = [math.floor(sum(abs(a) * h for a, h in zip(row, g.support_halfwidths)))
              for row in M.T.entries]
    box = np.array(list(product(*(range(-b, b + 1) for b in bounds))), dtype=np.int64)
    N, q = M.inv_T_rows(box)
    near = np.all(np.abs(N) <= g.support_reach(q), axis=1)
    return box, box[near], N[near], q


@pytest.mark.parametrize("case", PRUNING_CASES)
def test_top_level_samples_only_inside_the_support_box(case, monkeypatch):
    # the window is evaluated once, on exactly the frequencies of the bounding
    # box whose points lie in its support box, and the samples are those
    # with the zeros dropped, in lexicographic key order and lowest terms
    c, g = PRUNING_CASES[case]()
    box, K, N, q = support_box_walk(c.matrix(c.n_levels), g)
    P, den = g.eval_exact(N, q)
    seen = []
    evaluate = AdmissibleFn.eval_exact

    def spy(self, N, q):
        seen.append((N, q))
        return evaluate(self, N, q)

    monkeypatch.setattr(AdmissibleFn, "eval_exact", spy)
    keys, samples, sample_den, index = dlvp._exact_samples.__wrapped__(c, c.n_levels, g)
    assert np.array_equal(keys, K[P != 0])
    assert [F(n, sample_den) for n in samples.tolist()] == [F(n, den) for n in P[P != 0].tolist()]
    assert math.gcd(*samples.tolist(), sample_den) == 1 and den % sample_den == 0
    assert samples.dtype == intlat.exact_dtype(sample_den)
    assert np.array_equal(index, generating_set(c.matrix(c.n_levels).T).class_index(keys))
    (walked, walked_q), = seen
    assert walked_q == q and sorted(map(tuple, walked.tolist())) == sorted(map(tuple, N.tolist()))
    if case == "sheared":
        assert (len(N), len(box)) == (189, 1071)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_samples_and_class_sums_are_in_lowest_terms(case):
    # every level's numerators and denominator, and every class-sum table,
    # share no factor, in the width of the reduced denominator
    c, g = ORACLE_CASES[case]()
    for level in range(c.n_levels + 1):
        _, P, den, _ = dlvp._exact_samples(c, level, g)
        assert math.gcd(den, *P.tolist()) == 1 and P.dtype == intlat.exact_dtype(den)
    for level in range(c.n_levels):
        a, a_den = dlvp._class_sums(c, level, g)
        assert math.gcd(a_den, *a.tolist()) == 1 and a.dtype == intlat.exact_dtype(a_den)


def test_report_vp_samples_stay_on_int64():
    # unreduced, levels 2, 1 and 0 of this chain were over 2^66, 2^84 and 2^100,
    # on Python ints; in lowest terms every level is over at most 2^14
    c = chain(IntMat.diagonal([8, 8]), [J_D, J_X, J_D, J_Y])
    g = AdmissibleFn.tensor_linear([F(1, 10)] * 2)
    for level in range(c.n_levels + 1):
        _, P, den, _ = dlvp._exact_samples(c, level, g)
        assert P.dtype == np.int64 and den <= 2 ** 14, level


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_partner_and_phases_on_python_integers(case, monkeypatch):
    # zero int64 bounds force the Python-integer paths of the class map that
    # the partner is derived from and of the phases; they must agree exactly
    c, _ = ORACLE_CASES[case]()
    levels = range(c.n_levels)
    fast = [(coarse_of_fine.__wrapped__(c, l), complement_phases.__wrapped__(c, l)) for l in levels]
    applied = []
    apply_rows = intlat.apply_rows

    def spy(B, X, addend=0):
        out = apply_rows(B, X, addend)
        applied.append(out.dtype)
        return out

    monkeypatch.setattr(intlat, "apply_rows", spy)
    monkeypatch.setattr(intlat, "_INT64_SAFE", 0)
    for level, (coarse, phases) in zip(levels, fast):
        assert np.array_equal(coarse_of_fine.__wrapped__(c, level), coarse)
        slow = complement_phases.__wrapped__(c, level)
        assert np.array_equal(slow.view(np.float64), phases.view(np.float64))
    assert applied and all(dt == object for dt in applied)


def test_samples_are_one_read_only_array_on_the_spectrum_keys():
    c, g = example_48()
    for level in range(c.n_levels + 1):
        sf = scaling_spectrum(c, level, g)
        assert type(sf.samples) is np.ndarray and sf.samples.dtype == np.float64
        assert not sf.samples.flags.writeable
        assert sf.samples.shape == (len(sf.spectrum),)
        assert np.array_equal(sf.samples / math.sqrt(c.size(level)), sf.spectrum.values)
    sf = scaling_spectrum(c, 0, g)
    with pytest.raises(DimensionMismatch):
        ScalingFunction(c, 0, g, sf.spectrum, samples=sf.samples[1:])
    assert orthonormalize(sf).samples is None


def test_orthonormalize_reads_the_cached_class_powers(monkeypatch):
    c, g = example_48()
    fn = ScalingFunction(c, 1, g, scaling_spectrum(c, 1, g).spectrum)
    calls = []
    sums = dlvp.class_powers
    monkeypatch.setattr(dlvp, "class_powers", lambda f: calls.append(f) or sums(f))
    first, second = orthonormalize(fn), orthonormalize(fn)
    assert calls == [fn] and np.array_equal(first.spectrum.values, second.spectrum.values)
