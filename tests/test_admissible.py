import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vpwave import intlat
from vpwave.admissible import (
    KIND_CHARACTERISTIC,
    KIND_SMOOTHED,
    MAX_ORDER,
    AdmissibleFn,
    check_partition_of_unity,
    exact_floats,
    lowest_terms,
    parse_admissible,
    periodized_sum,
    periodized_sum_exact,
)
from vpwave.dlvp import scaling_spectrum
from vpwave.errors import (DimensionMismatch, InvalidParameter, MalformedDescriptor, TooLarge,
                           VpwaveError)
from vpwave.intlat import J_D, J_X, J_Y, IntMat, chain, lattice_points

F = Fraction


def exact_values(g, points):
    """``g`` at rational points by the exact batched path, as Fractions."""
    q = math.lcm(*(F(v).denominator for x in points for v in x))
    num, den = g.eval_exact(np.array([[int(v * q) for v in x] for x in points], dtype=np.int64), q)
    return [F(n, den) for n in num.tolist()]


def random_points(rng, q, box, n):
    """``n`` random points of ``(Z / q)^d`` in the half-open box ``[-b, b)`` (per-axis ``b``)."""
    return [tuple(F(int(rng.integers(-math.floor(b * q), math.ceil(b * q))), q) for b in box)
            for _ in range(n)]


def test_linear_ramp_values():
    g = AdmissibleFn.tensor_linear([F(1, 10)])
    assert g((F(0),)) == 1
    assert g((F(2, 5),)) == 1  # 0.4, plateau edge
    assert g((F(1, 2),)) == F(1, 2)
    assert g((F(3, 5),)) == 0  # 0.6, ramp end
    assert g((F(9, 20),)) == F(3, 4)  # 0.45 -> (0.6 - 0.45)/0.2


def test_characteristic_half_open():
    g = AdmissibleFn.characteristic(2)
    assert g((F(-1, 2), F(0))) == 1
    assert g((F(1, 2), F(0))) == 0
    assert g((F(0), F(0))) == 1
    assert g((F(0), F(-1, 2))) == 1


def test_modified_dirichlet_limit():
    g = AdmissibleFn.tensor_linear([F(0)])
    assert g((F(0),)) == 1
    assert g((F(1, 2),)) == F(1, 2)
    assert g((F(-1, 2),)) == F(1, 2)
    assert g((F(3, 5),)) == 0


def assert_same_window(a, b):
    """Equal windows, with one hash and one cached spectrum."""
    c = chain(IntMat.diagonal([4] * a.dim), [IntMat.diagonal([2] + [1] * (a.dim - 1))])
    assert a == b and hash(a) == hash(b)
    assert scaling_spectrum(c, 1, a) is scaling_spectrum(c, 1, b)


def test_linear_is_the_order_one_smoothed_window():
    for a in ([F(1, 12)], [F(0), F(1, 10)]):
        assert_same_window(AdmissibleFn.tensor_linear(a), AdmissibleFn.tensor_smoothed(a, order=1))
    # only order 1 takes the Fejer halfwidth 1/2, where the ramps meet, in
    # every spelling; the constructor checks it for all of them
    fejer = AdmissibleFn.tensor_linear([F(1, 2)])
    assert (fejer.kind, fejer.order) == (KIND_SMOOTHED, 1)
    for same in (AdmissibleFn.tensor_smoothed([F(1, 2)], order=1),
                 AdmissibleFn(KIND_SMOOTHED, 1, (F(1, 2),), 1),
                 parse_admissible("tensor_smoothed(p = 1/2, order = 1)", 1)):
        assert_same_window(fejer, same)
    for build in (lambda: AdmissibleFn.tensor_smoothed([F(1, 2)], order=2),
                  lambda: AdmissibleFn(KIND_SMOOTHED, 1, (F(1, 2),), 2),
                  lambda: AdmissibleFn(KIND_SMOOTHED, 2, (F(1, 4), F(1, 2)), 3),
                  lambda: parse_admissible("tensor_smoothed(p = 1/2)", 1)):
        with pytest.raises(InvalidParameter):
            build()


def test_smoothed_plateau_and_support():
    g = AdmissibleFn.tensor_smoothed([F(1, 14)], order=3)
    assert g((F(0),)) == 1
    assert g((F(1, 2) - F(1, 14),)) == 1
    assert g((F(1, 2) + F(1, 14),)) == 0
    assert g((F(1, 2) + F(1, 7),)) == 0
    mid = g((F(1, 2),))
    assert 0 < mid < 1 and mid == F(1, 2)  # even kernel, symmetric ramp


def test_partition_of_unity_linear():
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    assert check_partition_of_unity(g, 10_000, seed=3) == 0.0


def test_partition_of_unity_characteristic():
    g = AdmissibleFn.characteristic(2)
    assert check_partition_of_unity(g, 10_000, seed=4) == 0.0


def test_partition_of_unity_smoothed():
    g = AdmissibleFn.tensor_smoothed([F(1, 20), F(1, 20)], order=3)
    assert check_partition_of_unity(g, 10_000, seed=5) == 0.0


def test_partition_of_unity_exact_rationals():
    g = AdmissibleFn.tensor_smoothed([F(1, 20)], order=2)
    for t in (F(0), F(1, 3), F(-7, 13), F(99, 100)):
        total = periodized_sum(g, IntMat.identity(1), (t,))
        assert total == 1


def test_lowest_terms_keeps_every_value():
    # values in [0, 1]: the gcd leaves the numerators and the denominator,
    # and the numerators take the width of the reduced denominator
    num, den = lowest_terms(np.array([0, 6, 12, 18], dtype=np.int64), 24)
    assert num.dtype == np.int64 and (num.tolist(), den) == ([0, 1, 2, 3], 4)
    num, den = lowest_terms(np.array([0, 2, 2 ** 70], dtype=object), 2 ** 72)
    assert num.dtype == object and (num.tolist(), den) == ([0, 1, 2 ** 69], 2 ** 71)
    num, den = lowest_terms(np.array([0, 3 * 2 ** 61, 2 ** 62], dtype=object), 2 ** 64)
    assert num.dtype == np.int64 and (num.tolist(), den) == ([0, 3, 2], 8)
    num, den = lowest_terms(np.array([1, 7], dtype=np.int64), 9)
    assert (num.tolist(), den) == ([1, 7], 9)
    num, den = lowest_terms(np.zeros(0, dtype=np.int64), 12)
    assert num.shape == (0,) and den == 1


def test_periodized_sum_identity_is_f2():
    g = AdmissibleFn.tensor_linear([F(1, 6), F(1, 8)])
    N = np.random.default_rng(6).integers(-2 * 2 ** 20, 2 * 2 ** 20, size=(500, 2), endpoint=True)
    num, den = periodized_sum_exact(g, IntMat.identity(2), N, 2 ** 20)
    assert np.all(num == den)


def test_periodized_sum_shear_plateau():
    # on the inner box, summation with an axis-doubling factor still gives 1
    a = F(1, 8)
    g = AdmissibleFn.tensor_linear([a, a])
    for x in ((F(0), F(0)), (F(1, 3), F(-1, 3)), (F(-3, 8), F(1, 8))):
        val = periodized_sum(g, J_X, x)
        assert val == 1


def test_periodized_sum_characteristic_indicator():
    g = AdmissibleFn.characteristic(2)
    rng = np.random.default_rng(7)
    for J in (J_X, J_Y, J_D):
        for _ in range(50):
            x = tuple(F(v).limit_denominator(64) for v in rng.uniform(-1.5, 1.5, 2))
            v = periodized_sum(g, J, x)
            assert v in (0, 1)
            # g^J(x) g(J^{-T} x) == g(x): the Dirichlet collapse
            y = J.inv_T_apply(x)
            assert v * g(y) == g(x)


def test_support_halfwidths():
    assert AdmissibleFn.tensor_linear([F(1, 10)]).support_halfwidths == (F(3, 5),)
    assert AdmissibleFn.characteristic(3).support_halfwidths == (F(1, 2),) * 3
    g = AdmissibleFn.tensor_smoothed([F(1, 14)], order=2)
    assert g.support_halfwidths == (F(1, 2) + F(1, 14),)


def test_plateau_property():
    # window equals 1 on the shrunken box for every family with p < 1/2
    rng = np.random.default_rng(8)
    for g in (
        AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)]),
        AdmissibleFn.tensor_smoothed([F(1, 20), F(1, 14)], order=3),
        AdmissibleFn.characteristic(2),
    ):
        plateau = [F(1, 2) - a for a in g.alpha]
        assert set(exact_values(g, random_points(rng, 2 ** 20, plateau, 1000))) == {1}


def test_tensor_factorization():
    g = AdmissibleFn.tensor_smoothed([F(1, 20), F(1, 10)], order=2)
    X = random_points(np.random.default_rng(9), 2 ** 20, [F(7, 10)] * 2, 300)
    factors = [AdmissibleFn.tensor_smoothed([p], order=2) for p in g.alpha]
    first, second = (exact_values(f, [(x[i],) for x in X]) for i, f in enumerate(factors))
    assert exact_values(g, X) == [a * b for a, b in zip(first, second)]


def test_smoothness_order_finite_differences():
    # order-r window: divided differences up to r-1 stay continuous across
    # knots; the admissible jump scales with the step times the magnitude
    # of the next derivative, which grows like s^(k+1) with s = r/(2p)
    r = 3
    p = F(1, 10)
    g = AdmissibleFn.tensor_smoothed([p], order=r)
    s = F(r) / (2 * p)
    for h in (F(1, 1000), F(1, 2000)):
        for knot in g.breakpoints_1d(0):
            for k in range(1, r):
                def dd(x, k=k, h=h):
                    # k-th forward divided difference at x, exactly
                    vals = exact_values(g, [(x + j * h,) for j in range(k + 1)])
                    return sum((-1) ** (k - j) * math.comb(k, j) * v
                               for j, v in enumerate(vals)) / h ** k

                jump = abs(dd(knot) - dd(knot - (k + 1) * h))
                assert jump < 10 * h * s ** (k + 1), (knot, k, jump)


def test_linear_has_kink():
    # sanity for the test above: order 1 ramp has a first-derivative jump
    g = AdmissibleFn.tensor_linear([F(1, 10)])
    h, knot = F(1, 10_000), F(2, 5)
    a, b, c, d = exact_values(g, [(knot + j * h,) for j in (-2, -1, 1, 2)])
    left, right = (b - a) / h, (d - c) / h
    assert abs(left - right) > 1.0


def test_parse_admissible():
    g = parse_admissible("tensor_linear(alpha = [0.1, 0.1])", 2)
    assert_same_window(g, AdmissibleFn.tensor_smoothed([F(1, 10)] * 2, order=1))
    assert g.alpha == (F(1, 10), F(1, 10))
    g = parse_admissible("tensor_linear(alpha = 1/8)", 3)
    assert g.alpha == (F(1, 8),) * 3
    g = parse_admissible("characteristic", 2)
    assert g.kind == "characteristic"
    g = parse_admissible("tensor_smoothed(p = [1/20, 1/14], order = 3)", 2)
    assert g.alpha == (F(1, 20), F(1, 14))
    assert g.order == 3
    with pytest.raises(ValueError):
        parse_admissible("unknown_kind()", 2)


@pytest.mark.parametrize("text", [
    "tensor_linear(alpha = [1/10, 1/40)",  # unclosed: must not read as (1/10, 1/4)
    "tensor_linear(alpha = 1/10])",
    "tensor_linear(alpah = 1/10)",  # misspelt: must not default to alpha = 0
    "characteristic(alpha = 1/4)",
    "tensor_smoothed(p = 1/10, ordr = 4)",
    "tensor_linear(alpha = 1/10, alpha = 1/8)",
    "tensor_linear(1/10)",
    # an empty item must not be dropped (and the rest broadcast)
    "tensor_linear(alpha = [1/10, ])",
    "tensor_linear(alpha = [, 1/10])",
    "tensor_linear(alpha = [1/10,,1/10])",
    # text that is not a call at all
    "",
    "tensor_linear(alpha = 1/10",
    "Characteristic",
    "tensor_linear alpha = 1/10",
    # a per-axis list of another length than the dimension
    "tensor_linear(alpha = [1/10, 1/10, 1/10])",
    "tensor_smoothed(p = [0, 1/10, 1/8], order = 2)",
])
def test_parse_admissible_rejects_malformed_descriptors(text):
    with pytest.raises(MalformedDescriptor):
        parse_admissible(text, 2)


@pytest.mark.parametrize("text", [
    "tensor_linear(alpha = 1/0)",
    "tensor_linear(alpha = [1/10, x])",
    "tensor_smoothed(p = 1/10, order = two)",
])
def test_parse_admissible_rejects_malformed_numbers(text):
    with pytest.raises(VpwaveError):
        parse_admissible(text, 2)


def test_bad_window_input_raises_typed_errors():
    # each typed error also derives from the built-in that callers may catch
    for build in (lambda: AdmissibleFn.tensor_linear([F(3, 5)]),
                  lambda: AdmissibleFn.tensor_smoothed([F(1, 8)], order=0),
                  lambda: parse_admissible("unknown_kind()", 2)):
        with pytest.raises(VpwaveError) as info:
            build()
        assert isinstance(info.value, ValueError)
    for call in (lambda: AdmissibleFn.tensor_linear([None]),
                 lambda: AdmissibleFn.tensor_linear([F(1, 10)]).eval_exact(np.zeros((2, 1)), 5)):
        with pytest.raises(VpwaveError) as info:
            call()
        assert isinstance(info.value, TypeError)


@pytest.mark.parametrize("build", [
    lambda: AdmissibleFn.characteristic(-2),
    lambda: AdmissibleFn.characteristic(0),
    lambda: AdmissibleFn.tensor_linear([]),
    lambda: AdmissibleFn.tensor_smoothed([]),
    lambda: parse_admissible("characteristic", 0),
    lambda: parse_admissible("tensor_linear(alpha = 1/10)", 0),
    lambda: AdmissibleFn(KIND_CHARACTERISTIC, True, (F(0),)),
    lambda: AdmissibleFn(KIND_CHARACTERISTIC, 1.0, (F(0),)),
], ids=["characteristic(-2)", "characteristic(0)", "tensor_linear([])", "tensor_smoothed([])",
        "parse(characteristic, 0)", "parse(tensor_linear, 0)", "dim=True", "dim=1.0"])
def test_window_dimension_must_be_a_positive_integer(build):
    with pytest.raises(InvalidParameter):
        build()


@pytest.mark.parametrize("build, error", [
    (lambda: AdmissibleFn.characteristic(1.0), InvalidParameter),
    (lambda: AdmissibleFn.characteristic("2"), InvalidParameter),
    (lambda: AdmissibleFn.tensor_linear(0.1), InvalidParameter),
    (lambda: AdmissibleFn.tensor_smoothed(F(1, 10)), InvalidParameter),
    (lambda: AdmissibleFn.tensor_smoothed([0.1], order="2"), InvalidParameter),
    (lambda: AdmissibleFn.tensor_smoothed([0.1], order=float("nan")), InvalidParameter),
    (lambda: AdmissibleFn.tensor_smoothed([0.1], order=float("inf")), InvalidParameter),
    (lambda: AdmissibleFn.tensor_smoothed([0.1], order=2.5), InvalidParameter),
    # the public constructor checks what the classmethods check
    (lambda: AdmissibleFn("bogus", 1, (F(1, 10),)), InvalidParameter),
    (lambda: AdmissibleFn("tensor_linear", 1, (F(1, 10),)), InvalidParameter),
    (lambda: AdmissibleFn(KIND_SMOOTHED, 1, (F(3, 5),), 2), InvalidParameter),
    (lambda: AdmissibleFn(KIND_SMOOTHED, 1, (F(-1, 10),), 2), InvalidParameter),
    (lambda: AdmissibleFn(KIND_SMOOTHED, 1, (F(1, 10),), 0), InvalidParameter),
    (lambda: AdmissibleFn(KIND_SMOOTHED, 2, (F(1, 10),), 2), DimensionMismatch),
    (lambda: AdmissibleFn(KIND_SMOOTHED, 1, (F(1, 10),) * 2, 2), DimensionMismatch),
    # the same function as characteristic(2), with a wider support box
    (lambda: AdmissibleFn(KIND_CHARACTERISTIC, 2, (F(1, 4), F(1, 4))), InvalidParameter),
    (lambda: AdmissibleFn(KIND_CHARACTERISTIC, 2, (F(0), F(1, 4))), InvalidParameter),
    # the same function as characteristic(2), but unequal to it and slower
    (lambda: AdmissibleFn(KIND_CHARACTERISTIC, 2, (F(0), F(0)), order=40), InvalidParameter),
    (lambda: AdmissibleFn(KIND_CHARACTERISTIC, 1, (F(0),), 2), InvalidParameter),
], ids=["characteristic(1.0)", "characteristic('2')", "tensor_linear(0.1)", "tensor_smoothed(1/10)",
        "order='2'", "order=nan", "order=inf", "order=2.5", "kind='bogus'", "kind='tensor_linear'",
        "alpha=3/5", "alpha=-1/10", "order=0", "dim=2,one-alpha", "dim=1,two-alphas",
        "characteristic,alpha=1/4", "characteristic,alpha=(0,1/4)", "characteristic,order=40",
        "characteristic,order=2"])
def test_window_classmethods_reject_bad_arguments_with_typed_errors(build, error):
    # a wrong type is reported as a bad parameter, not as the TypeError or
    # ValueError of whatever operation first trips on it
    with pytest.raises(error):
        build()


def test_window_dimension_may_be_a_numpy_integer():
    # a numpy integer is an integer, stored as a Python int
    g = AdmissibleFn.characteristic(np.int64(2))
    assert type(g.dim) is int and g == AdmissibleFn.characteristic(2)


def test_window_call_checks_dimension():
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    for x in ((F(0),), (F(0), F(0), F(0))):
        with pytest.raises(DimensionMismatch):
            g(x)


def test_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        AdmissibleFn.tensor_linear([F(3, 5)])
    with pytest.raises(ValueError):
        AdmissibleFn.tensor_smoothed([F(1, 2)], order=2)
    with pytest.raises(ValueError):
        AdmissibleFn.tensor_smoothed([F(1, 8)], order=0)
    # a non-integral order is refused, not truncated; an integral float is read
    for order in (2.5, F(5, 2)):
        with pytest.raises(InvalidParameter):
            AdmissibleFn.tensor_smoothed([F(1, 8)], order=order)
    assert AdmissibleFn.tensor_smoothed([F(1, 8)], order=2.0).order == 2
    # the order is bounded before anything is evaluated
    assert AdmissibleFn.tensor_smoothed([F(1, 8)], order=MAX_ORDER).order == MAX_ORDER
    first_refused = MAX_ORDER + 1
    for build in (lambda: AdmissibleFn.tensor_smoothed([F(1, 8)], order=first_refused),
                  lambda: parse_admissible(f"tensor_smoothed(p = 1/8, order = {first_refused})", 2)):
        with pytest.raises(InvalidParameter):
            build()


def test_periodized_sum_converts_float_input_exactly():
    rng = np.random.default_rng(9)
    for g in (AdmissibleFn.tensor_linear([F(1, 10), F(1, 7)]),
              AdmissibleFn.tensor_smoothed([F(1, 12), F(1, 9)], order=3)):
        for J in (J_D, J_X, IntMat.from_rows([[1, 1], [0, 2]])):
            for x in rng.uniform(-1.2, 1.2, size=(40, 2)):
                exact = periodized_sum(g, J, tuple(F(v) for v in x))
                got = periodized_sum(g, J, tuple(x))
                assert got == exact and type(got) is type(exact)


def test_periodized_sum_checks_dimensions():
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])
    for x in ((F(5),), (F(0),), (F(0), F(0), F(0))):
        with pytest.raises(DimensionMismatch):
            periodized_sum(g, J_D, x)
    with pytest.raises(DimensionMismatch):
        periodized_sum(g, IntMat.identity(3), (F(0), F(0)))
    for N in (np.zeros((4, 1), dtype=np.int64), np.zeros((4, 3), dtype=np.int64),
              np.zeros(4, dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            periodized_sum_exact(g, J_D, N, 5)
        with pytest.raises(DimensionMismatch):
            g.eval_exact(N, 5)
    with pytest.raises(DimensionMismatch):
        periodized_sum_exact(g, IntMat.identity(3), np.zeros((4, 2), dtype=np.int64), 5)
    with pytest.raises(TypeError):
        periodized_sum_exact(g, J_D, np.zeros((4, 2)), 5)


# -- exact batched periodization ----------------------------------------------

# per-axis parameters: the alpha = 0 limit, small rationals, and Fraction(0.1),
# whose denominator 2^55 sends the numerators onto Python integers
axis_params = st.one_of(st.just(F(0)), st.just(F(0.1)),
                        st.fractions(min_value=0, max_value=F(12, 25), max_denominator=40))


@st.composite
def windows(draw, d):
    kind = draw(st.sampled_from(["characteristic", "tensor_linear", "tensor_smoothed"]))
    if kind == "characteristic":
        return AdmissibleFn.characteristic(d)
    if kind == "tensor_linear":
        # the Fejer halfwidth 1/2, where the ramps at -1/2 and 1/2 meet
        return AdmissibleFn.tensor_linear(draw(st.lists(st.one_of(axis_params, st.just(F(1, 2))),
                                                        min_size=d, max_size=d)))
    a = draw(st.lists(axis_params, min_size=d, max_size=d))
    return AdmissibleFn.tensor_smoothed(a, order=draw(st.integers(1, 4)))


@st.composite
def regular_factors(draw, d):
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    J = IntMat.from_rows(rows)
    assume(J.det != 0)
    return J


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_periodized_sum_exact_matches_scalar_oracle(data):
    d = data.draw(st.integers(1, 3))
    g = data.draw(windows(d))
    J = data.draw(regular_factors(d))
    q = data.draw(st.integers(1, 60))
    rows = data.draw(st.lists(st.lists(st.integers(-3 * q, 3 * q), min_size=d, max_size=d),
                              min_size=1, max_size=6))
    # a common offset by q J^T w keeps the box of rows small; a huge one
    # makes every shifted row exceed int64
    w = data.draw(st.sampled_from([0, 2 ** 61]))
    N = np.array(rows, dtype=object) + np.array([q * v for v in J.T.apply((w,) * d)], dtype=object)
    if not w:
        N = N.astype(np.int64)
    num, den = periodized_sum_exact(g, J, N, q)
    got = exact_floats(num, den)
    for n, f, x in zip(num.tolist(), got.tolist(), N.tolist()):
        exact = periodized_sum(g, J, tuple(F(v, q) for v in x))
        assert F(n, den) == exact
        assert f == float(exact)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partition_of_unity_exact_batched(data):
    d = data.draw(st.integers(1, 3))
    g = data.draw(windows(d))
    q = data.draw(st.integers(1, 200))
    N = np.array(data.draw(st.lists(st.lists(st.integers(-5 * q, 5 * q), min_size=d, max_size=d),
                                    min_size=1, max_size=20)), dtype=np.int64)
    num, den = periodized_sum_exact(g, IntMat.identity(d), N, q)
    assert all(n == den for n in num.tolist())


def test_partition_of_unity_exact_on_python_integers(monkeypatch):
    N = np.array([[7, -40], [48, 48], [-49, 0], [0, 1]], dtype=np.int64)
    for g in (AdmissibleFn.tensor_linear([F(0.1), F(0)]),
              AdmissibleFn.tensor_smoothed([F(0.1), F(1, 7)], order=3)):
        num, den = periodized_sum_exact(g, IntMat.identity(2), N, 997)
        assert den >= 2 ** 62 and num.dtype == object
        assert all(n == den for n in num.tolist())
    # with a zero int64 bound every shift, window value and sum is a Python
    # integer, the shift grid included: the same sums as on int64
    windows_ = (AdmissibleFn.characteristic(2), AdmissibleFn.tensor_linear([F(0.1), F(0)]),
                AdmissibleFn.tensor_smoothed([F(0.1), F(1, 7)], order=3))
    expected = [periodized_sum_exact(g, J, N, 97) for g in windows_ for J in (J_D, J_X)]
    monkeypatch.setattr(intlat, "_INT64_SAFE", 0)
    slow = [periodized_sum_exact(g, J, N, 97) for g in windows_ for J in (J_D, J_X)]
    for (fast, den), (num, slow_den) in zip(expected, slow):
        assert num.dtype == object and slow_den == den and num.tolist() == fast.tolist()
    for g in windows_:
        num, den = periodized_sum_exact(g, IntMat.identity(2), N, 97)
        assert num.dtype == object and num.tolist() == [den] * len(N)


@pytest.mark.parametrize("q", [0, -1, F(3, 2), 2.0, True, "3", None])
def test_denominator_must_be_an_integer_of_at_least_one(q):
    # q = 0 divided by zero, eval_exact(N, 0) gave the denominator 0 and
    # q = -1 summed to 0 where g^J(0) = 1
    g = AdmissibleFn.tensor_linear([F(1, 10)] * 2)
    N = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(InvalidParameter):
        periodized_sum_exact(g, J_D, N, q)
    with pytest.raises(InvalidParameter):
        g.eval_exact(N, q)
    num, den = periodized_sum_exact(g, J_D, N, np.int64(3))
    assert (num.tolist(), den) == ([den], g.eval_exact(N, 3)[1])


@pytest.mark.parametrize("dtype, scale", [(np.int8, 1), (np.int16, 1), (np.int32, 11)])
def test_narrow_integer_rows_are_widened_before_any_product(dtype, scale):
    # rows of a narrower signed integer type take the exact width first:
    # int8 rows would wrap already in 2 N, and int32 rows in the cubes of the
    # B-spline sum once its numerators pass 2^31 (q = 1111)
    N = np.array([[100, -100], [50, 3], [-51, 0], [0, 0], [7, 60]], dtype=dtype) * dtype(scale)
    q = 101 * scale
    for g in (AdmissibleFn.characteristic(2),
              AdmissibleFn.tensor_smoothed([F(1, 10)] * 2, order=3)):
        num, den = g.eval_exact(N, q)
        assert num.tolist() == g.eval_exact(N.astype(np.int64), q)[0].tolist()
        expected = [g(tuple(F(v, q) for v in x)) for x in N.tolist()]
        assert [F(v, den) for v in num.tolist()] == expected
        total, _ = periodized_sum_exact(g, J_D, N, q)
        assert total.tolist() == periodized_sum_exact(g, J_D, N.astype(np.int64), q)[0].tolist()


@pytest.mark.parametrize("n", [-1, 2.0, True, "10"])
def test_sample_count_must_be_an_integer_of_at_least_zero(n):
    g = AdmissibleFn.tensor_linear([F(1, 10)] * 2)
    with pytest.raises(InvalidParameter):
        check_partition_of_unity(g, n_samples=n)
    assert check_partition_of_unity(g, n_samples=0) == 0.0


def test_periodized_sum_exact_on_an_empty_shift_box():
    # no shift J^T z moves x = N / 2 into the support box: the walk finds no point
    for g, J, N in ((AdmissibleFn.characteristic(1), IntMat.diagonal([4]), [[2]]),
                    (AdmissibleFn.tensor_linear([F(1, 10)]), IntMat.diagonal([4]), [[6]]),
                    (AdmissibleFn.tensor_linear([F(0)] * 2), IntMat.diagonal([4, 4]), [[4, 5]])):
        N = np.array(N, dtype=np.int64)
        lo = hi = [F(v, 2) for v in N[0].tolist()]
        reach = g.support_reach(2)
        H = [[2 * v for v in row] for row in J.T.hermite.entries]
        assert len(lattice_points(H, N, [-r for r in reach], reach)[1]) == 0
        num, den = periodized_sum_exact(g, J, N, 2)
        assert num.tolist() == [0] and den == g.eval_exact(N, 2)[1]
        assert periodized_sum(g, J, lo) == 0


def test_periodized_sum_exact_in_blocks(monkeypatch):
    # with q = 9 the shifts are 9 H Z^2, H = [[1, 0], [4, 7]] the Hermite basis
    # of J^T, so a row reaches at most 2 x 1 points of the support box
    # |Y| <= (7, 5), and a guard of G points walks the rows in blocks of G // 2;
    # every block gives the same exact sums, on int64 and on Python integers
    # (a zero int64 bound)
    g = AdmissibleFn.tensor_linear([F(3, 10), F(1, 7)])
    N = np.array([[v, 3 * v - 11] for v in range(-40, 41)], dtype=np.int64)
    J = IntMat.from_rows([[2, 1], [-1, 3]])
    assert J.T.hermite == IntMat.from_rows([[1, 0], [4, 7]])
    expected = periodized_sum_exact(g, J, N, 9)
    assert expected[0].dtype == np.int64
    seen = []
    evaluate = AdmissibleFn.eval_exact

    def counted(self, Y, q):
        seen.append(len(Y))
        return evaluate(self, Y, q)

    monkeypatch.setattr(AdmissibleFn, "eval_exact", counted)
    for guard, rows in ((2, 1), (6, 3), (20, 10), (1000, 81)):
        monkeypatch.setattr(intlat, "ENUMERATION_GUARD", guard)
        seen.clear()
        num, den = periodized_sum_exact(g, J, N, 9)
        assert den == expected[1] and num.tolist() == expected[0].tolist()
        assert len(seen) == -(-len(N) // rows) and max(seen) <= guard
    # below the bound of one row, blocks of one row run while no step of the
    # walk passes the guard: N = (0, 0) reaches one point, (3, 0) two
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 1)
    assert periodized_sum_exact(g, J, np.zeros((1, 2), dtype=np.int64), 9)[0].tolist() == [den]
    with pytest.raises(TooLarge):
        periodized_sum_exact(g, J, np.array([[3, 0]]), 9)
    monkeypatch.setattr(intlat, "_INT64_SAFE", 0)
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 6)
    num, den = periodized_sum_exact(g, J, N, 9)
    assert num.dtype == object and den == expected[1] and num.tolist() == expected[0].tolist()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_support_reach_is_the_floor_of_the_halfwidth(data):
    # the integer reach of the cached (p, s) pairs against Fraction arithmetic
    d = data.draw(st.integers(1, 3))
    g = data.draw(windows(d))
    q = data.draw(st.one_of(st.integers(1, 500), st.integers(1, 2 ** 70)))
    assert g.support_reach(q) == [math.floor(h * q) for h in g.support_halfwidths]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_axis_denominators_match_the_exact_values(data):
    # each axis factor is its numerators over the per-axis denominator, and
    # the window's denominator, read by eval_exact and by the periodization
    # alike, is their product
    d = data.draw(st.integers(1, 3))
    g = data.draw(windows(d))
    q = data.draw(st.integers(1, 200))
    N = np.array(data.draw(st.lists(st.lists(st.integers(-q, q), min_size=d, max_size=d),
                                    min_size=1, max_size=8)), dtype=np.int64)
    num, den = g.eval_exact(N, q)
    axis_dens = [g._axis_denominator(axis, q) for axis in range(d)]
    assert den == math.prod(axis_dens) == periodized_sum_exact(g, IntMat.identity(d), N[:0], q)[1]
    for axis, n in enumerate(N.T):
        values = [F(v, axis_dens[axis]) for v in g._axis_exact(axis, n, q).tolist()]
        assert values == [g.eval_axis(axis, F(v, q)) for v in n.tolist()]
    assert [F(v, den) for v in num.tolist()] == [g(tuple(F(v, q) for v in x)) for x in N.tolist()]


def test_shift_box_guard_raises_before_work(monkeypatch):
    # a row 10^4 away from the support, on the batched path, and a shear of
    # 2^21 on the scalar one: the walk meets the one point in the support box
    # at once, where a box of shifts held 10^8 and 1 258 293 of them.  A
    # guard below the points of one step raises before any window value
    g = AdmissibleFn.tensor_linear([F(1, 10)] * 2)
    calls = (lambda: exact_floats(*periodized_sum_exact(
                 g, IntMat.identity(2), np.array([[0, 0], [10 ** 4, 10 ** 4]]), 1)).tolist(),
             lambda: periodized_sum(g, IntMat.from_rows([[1, 0], [2 ** 21, 2]]), (0, 0)))
    for call, value in zip(calls, ([1, 1], 1)):
        start = time.perf_counter()
        assert call() == value
        assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(intlat, "ENUMERATION_GUARD", 0)
    monkeypatch.setattr(AdmissibleFn, "eval_exact", lambda *args: pytest.fail("evaluated"))
    monkeypatch.setattr(AdmissibleFn, "__call__", lambda *args: pytest.fail("evaluated"))
    for call in calls:
        with pytest.raises(TooLarge):
            call()
