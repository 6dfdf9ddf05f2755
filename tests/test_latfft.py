import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vpwave import latfft, tol
from vpwave.errors import IndexMismatch, TooLarge
from vpwave.intlat import IntMat, apply_rows, generating_set, pattern, smith_normal_form
from vpwave.latfft import (
    _DENSE_AXIS,
    _DENSE_PATTERN,
    _LONG_AXIS,
    _axis_plan,
    _dense_plan,
    _phase_table,
    _split,
    _transform,
    _twiddles,
    FOURIER_MATRIX_GUARD,
    PatternVector,
    SpectrumVector,
    dft,
    dft_fast,
    fourier_matrix,
    idft,
    idft_naive,
)


def random_regular(rng, d, lo=-8, hi=8, max_det=None):
    while True:
        M = IntMat.from_rows([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)])
        if M.det != 0 and (max_det is None or M.absdet <= max_det):
            return M


def random_pattern_vector(rng_np, M):
    m = M.absdet
    vals = rng_np.standard_normal(m) + 1j * rng_np.standard_normal(m)
    return PatternVector(matrix=M, values=vals)


def test_fourier_matrix_1x1():
    F = fourier_matrix(IntMat.from_rows([[1]]))
    assert F.shape == (1, 1)
    assert F[0, 0] == pytest.approx(1.0)


def test_fourier_matrix_size_two():
    F = fourier_matrix(IntMat.from_rows([[2]]))
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(F - expected)) < 1e-15


def test_fourier_matrix_unitary_random():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        M = random_regular(rng, d, max_det=256)
        F = fourier_matrix(M)
        defect = np.max(np.abs(F @ F.conj().T - np.eye(M.absdet)))
        assert defect < tol.UNITARITY


def test_fourier_matrix_guard():
    with pytest.raises(TooLarge):
        fourier_matrix(IntMat.diagonal([2 ** 9, 2 ** 9]))


def test_naive_transforms_share_the_phase_table_guard():
    a = PatternVector(matrix=IntMat.diagonal([32, 64]), values=np.zeros(2048))
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        dft(a)
    with pytest.raises(TooLarge):
        idft_naive(SpectrumVector(matrix=a.matrix, values=a.values))
    assert time.perf_counter() - start < 0.1


def test_dft_delta_at_origin():
    M = IntMat.diagonal([2, 2])
    pat = pattern(M)
    a = np.zeros(4)
    a[pat.index_of((0, 0))] = 1.0
    ahat = dft(PatternVector(matrix=M, values=a))
    assert np.max(np.abs(ahat.values - 1.0)) < 1e-14


def test_dft_two_point_example():
    M = IntMat.diagonal([2, 1])
    pat = pattern(M)
    a = np.zeros(2)
    a[pat.index_of((0, 0))] = 1.0
    ahat = dft(PatternVector(matrix=M, values=a))
    assert np.max(np.abs(ahat.values - np.array([1.0, 1.0]))) < 1e-14


def test_dft_constant_vector():
    M = IntMat.from_rows([[3, 1], [1, 2]])
    m = M.absdet
    ahat = dft(PatternVector(matrix=M, values=np.ones(m)))
    gs = generating_set(M.T)
    expected = np.zeros(m)
    expected[gs.index_of((0,) * M.dim)] = m
    assert np.max(np.abs(ahat.values - expected)) < 1e-12


def test_dft_matches_fourier_matrix():
    rng = random.Random(3)
    rng_np = np.random.default_rng(3)
    for _ in range(10):
        M = random_regular(rng, 2, max_det=64)
        a = random_pattern_vector(rng_np, M)
        ahat = dft(a)
        direct = np.sqrt(M.absdet) * fourier_matrix(M) @ a.values
        assert np.max(np.abs(ahat.values - direct)) < 1e-12


def test_dft_fast_matches_naive():
    rng = random.Random(41)
    rng_np = np.random.default_rng(41)
    mats = [random_regular(rng, d, max_det=300) for d in (1, 2, 3) for _ in range(8)]
    mats.append(IntMat.from_rows([[16, 0], [12, 8]]))
    for M in mats:
        a = random_pattern_vector(rng_np, M)
        err = np.max(np.abs(dft_fast(a).values - dft(a).values))
        assert err < 1e-10, f"{M}: {err}"


def test_dft_fast_linearity():
    rng_np = np.random.default_rng(5)
    M = IntMat.from_rows([[4, 1], [0, 3]])
    a = random_pattern_vector(rng_np, M)
    b = random_pattern_vector(rng_np, M)
    al, be = 1.7 - 0.3j, -0.8 + 2.1j
    combo = PatternVector(matrix=M, values=al * a.values + be * b.values)
    err = np.max(np.abs(dft_fast(combo).values
                        - al * dft_fast(a).values - be * dft_fast(b).values))
    assert err < 1e-10


def test_idft_roundtrip():
    rng = random.Random(8)
    rng_np = np.random.default_rng(8)
    for _ in range(10):
        M = random_regular(rng, 2, lo=-12, hi=12, max_det=4096)
        a = random_pattern_vector(rng_np, M)
        back = idft(dft_fast(a))
        assert np.max(np.abs(back.values - a.values)) < 1e-10


def test_idft_matches_naive_inverse():
    rng_np = np.random.default_rng(12)
    M = IntMat.from_rows([[5, 2], [1, 4]])
    a = random_pattern_vector(rng_np, M)
    ahat = dft(a)
    assert np.max(np.abs(idft(ahat).values - idft_naive(ahat).values)) < 1e-12


def test_idft_delta_spectrum():
    M = IntMat.from_rows([[3, 0], [1, 3]])
    m = M.absdet
    gs = generating_set(M.T)
    vals = np.zeros(m)
    vals[gs.index_of((0, 0))] = 1.0
    a = idft(SpectrumVector(matrix=M, values=vals))
    assert np.max(np.abs(a.values - 1.0 / m)) < 1e-14


def test_parseval():
    rng_np = np.random.default_rng(21)
    M = IntMat.from_rows([[6, 1], [2, 5]])
    a = random_pattern_vector(rng_np, M)
    ahat = dft_fast(a)
    lhs = np.sum(np.abs(a.values) ** 2)
    rhs = np.sum(np.abs(ahat.values) ** 2) / M.absdet
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shift_modulation_duality():
    rng_np = np.random.default_rng(33)
    M = IntMat.from_rows([[4, 1], [2, 6]])
    pat = pattern(M)
    a = random_pattern_vector(rng_np, M)
    for tau_idx in (1, len(pat) // 2):
        # translation by tau = points[tau_idx]: point i moves to points[i] + tau
        tau = pat.points[tau_idx]
        shifted = np.empty_like(a.values)
        shifted[[pat.index_of([u + v for u, v in zip(y, tau)]) for y in pat.points]] = a.values
        lhs = dft_fast(PatternVector(matrix=M, values=shifted)).values
        H = np.array(generating_set(M.T).reps, dtype=float)
        rhs = np.exp(-2j * np.pi * (H @ np.array(tau, dtype=float))) * dft_fast(a).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_vector_length_checks():
    M = IntMat.diagonal([2, 2])
    with pytest.raises(IndexMismatch):
        PatternVector(matrix=M, values=np.ones(3))
    with pytest.raises(IndexMismatch):
        SpectrumVector(matrix=M, values=np.ones(5))
    with pytest.raises(IndexMismatch):
        PatternVector(matrix=M, values=np.ones((2, 2)))


def test_public_constructors_convert_to_complex():
    M = IntMat.diagonal([2, 2])
    for cls in (PatternVector, SpectrumVector):
        for vals in (np.arange(4), np.arange(4.0), [0, 1, 2, 3]):
            v = cls(matrix=M, values=vals)
            assert v.values.dtype == np.complex128 and v.values.shape == (4,)
            assert np.array_equal(v.values, np.arange(4.0))


def _plan_arrays(M):
    """The read-only tables of the plan of ``M``: the dense matrices, the
    dense axis factors and the split twiddles."""
    if M.absdet <= _DENSE_PATTERN:
        return list(_dense_plan(M))
    return [T for _, tables in _axis_plan(M) if tables is not None for T in tables]


# one dense product at m = 1, 64 and the bound 128; per-axis steps above it,
# the last a split step
@pytest.mark.parametrize("rows", [[[1]], [[0, 8], [-8, 0]], [[1, 0], [3, 128]],
                                  [[1, 0], [3, 129]], [[8, -24], [48, -16]], [[1, 0], [3, 16384]]],
                         ids=["m1", "m64", "m128", "m129", "m1024", "m16384"])
def test_transform_results_are_fresh_vectors(rows):
    # dft_fast/idft wrap their own arrays without the public constructor's
    # checks; the results must still be what that constructor would give
    M = IntMat.from_rows(rows)
    a = random_pattern_vector(np.random.default_rng(5), M)
    a_bits = a.values.tobytes()
    ahat = dft_fast(a)
    ahat_bits = ahat.values.tobytes()
    back = idft(ahat)
    assert a.values.tobytes() == a_bits and ahat.values.tobytes() == ahat_bits
    for out, cls, source in ((ahat, SpectrumVector, a), (back, PatternVector, ahat)):
        assert type(out) is cls and out.matrix is M and len(out) == M.absdet
        v = out.values
        assert v.dtype == np.complex128 and v.shape == (M.absdet,) and v.flags.writeable
        assert not np.shares_memory(v, source.values)
        assert not any(np.shares_memory(v, p) for p in _plan_arrays(M))
    assert not np.shares_memory(ahat.values, back.values)
    assert np.array_equal(SpectrumVector(matrix=M, values=ahat.values).values, ahat.values)
    assert np.max(np.abs(back.values - a.values)) <= tol.FAST_VS_NAIVE


def fftn_oracle(a):
    """One ``np.fft.fftn`` over the Smith digit cube without its unit axes:
    both sets are in digit order, so no permutation follows."""
    shape = tuple(s for s in smith_normal_form(a.matrix).diagonal if s > 1) or (1,)
    return np.fft.fftn(a.values.reshape(shape)).reshape(-1)


def assert_fast_transforms(M, rng_np):
    """dft_fast against the naive sum (against the fftn oracle above the
    phase-table guard), the inverse round trip and Parseval, all relative
    to the input at tol.FAST_VS_NAIVE."""
    a = random_pattern_vector(rng_np, M)
    fast, ref = dft_fast(a).values, fftn_oracle(a)
    if M.absdet <= FOURIER_MATRIX_GUARD:
        slow = dft(a).values
        scale = float(np.max(np.abs(slow)))
        assert float(np.max(np.abs(ref - slow))) <= tol.FAST_VS_NAIVE * scale
        ref = slow
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(fast - ref))) <= tol.FAST_VS_NAIVE * scale
    back = idft(dft_fast(a)).values
    assert float(np.max(np.abs(back - a.values))) <= tol.FAST_VS_NAIVE * float(np.max(np.abs(a.values)))
    energy = M.absdet * float(np.vdot(a.values, a.values).real)
    assert abs(float(np.vdot(fast, fast).real) - energy) <= tol.FAST_VS_NAIVE * energy


@pytest.mark.parametrize("rows", [[[1, 0], [3, 16]], [[2, 0, 0], [0, 2, 1], [0, 0, 4]],
                                  [[1, 0, 0], [0, 1, 0], [0, 0, 7]], [[1]], [[1, 2 ** 62], [0, 3]]])
def test_fast_transforms_with_unit_smith_axes(rows):
    rng_np = np.random.default_rng(0)
    for M in (IntMat.from_rows(rows), IntMat.from_rows(rows).T):
        assert_fast_transforms(M, rng_np)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2 ** 16))
def test_fast_transforms_random_matrices(d, data, seed):
    r = {1: 512, 2: 20, 3: 6}[d]
    rows = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(0 < M.absdet <= 512)
    assert_fast_transforms(M, np.random.default_rng(seed))


B = _DENSE_AXIS
C = _DENSE_PATTERN
L = _LONG_AXIS
# (non-unit Smith axes, matrix): one dense product at m <= C, from a single
# point up to the bound in one or several axes; above it every axis dense,
# dense and FFT mixed, every axis FFT, axes at the dense bound and one above
# it, axes not powers of two; a cyclic pattern at the split bound L and one
# above it (4097 = 241 x 17, split), a prime one (8191, one FFT), an odd
# composite one (3^8 = 243 x 27, split), and a long axis beside four lanes
# (one FFT)
AXIS_KIND_CASES = [
    ((8, 8), [[0, 8], [-8, 0]]),
    ((2, 4, 8), [[2, 0, 0], [0, 4, 0], [0, 0, 8]]),
    ((8, 128), [[8, -24], [48, -16]]),
    ((2, 8192), [[2, 0], [0, 8192]]),
    ((32, 512), [[32, 0, 0], [0, 32, 1], [0, 0, 16]]),
    ((128, 128), [[128, 0], [0, 128]]),
    ((16384,), [[1, 0], [3, 16384]]),
    ((B,), [[B]]),
    ((B + 1,), [[B + 1]]),
    ((B, B), [[B, 0], [0, B]]),
    ((B + 1, B + 1), [[B + 1, 0], [0, B + 1]]),
    ((B, 17 * B), [[B, 0], [0, 17 * B]]),
    ((3, 6, 12), [[3, 0, 0], [0, 6, 0], [0, 0, 12]]),
    ((5, 15), [[5, 0], [0, 15]]),
    ((6, 60), [[6, 0], [0, 60]]),
    ((), [[1]]),
    ((64,), [[64]]),
    ((64,), [[1, 0], [3, 64]]),
    ((2, 2, 16), [[2, 0, 0], [0, 2, 0], [0, 0, 16]]),
    ((8, 16), [[8, 0], [0, 16]]),
    ((C,), [[1, 0], [3, C]]),
    ((C + 1,), [[1, 0], [3, C + 1]]),
    ((L,), [[1, 0], [3, L]]),
    ((L + 1,), [[1, 0], [3, L + 1]]),
    ((8191,), [[1, 0], [3, 8191]]),
    ((3 ** 8,), [[1, 0], [3, 3 ** 8]]),
    ((2, 2, 8192), [[2, 0, 0], [0, 2, 0], [0, 0, 8192]]),
]


# the axes name a case, and the matrix too where two cases share their axes
AXIS_KIND_IDS = [f"{axes}" if [a for a, _ in AXIS_KIND_CASES].count(axes) == 1 else f"{axes} {rows}"
                 for axes, rows in AXIS_KIND_CASES]


@pytest.mark.parametrize("axes, rows", AXIS_KIND_CASES, ids=AXIS_KIND_IDS)
def test_fast_transforms_every_axis_kind(axes, rows):
    rng_np = np.random.default_rng(sum(axes))
    for M in (IntMat.from_rows(rows), IntMat.from_rows(rows).T):
        assert tuple(s for s in smith_normal_form(M).diagonal if s > 1) == axes
        assert_fast_transforms(M, rng_np)


# one dense product: at m = 64 with two axes and with one, at m = 16 and at
# the bound m = 128; per-axis steps: first step FFT, first step dense, one FFT axis
@pytest.mark.parametrize("rows", [[[0, 8], [-8, 0]], [[32, 0], [0, 32]],
                                  [[1, 0], [3, 16]], [[1, 0], [3, 64]], [[1, 0], [3, 128]],
                                  [[16, 0], [0, 16]], [[1, 0], [3, 256]]])
def test_transforms_leave_their_inputs_alone(rows):
    M = IntMat.from_rows(rows)
    a = random_pattern_vector(np.random.default_rng(2), M)
    ahat = dft_fast(a)
    a_bits, ahat_bits = a.values.tobytes(), ahat.values.tobytes()
    back = idft(ahat)
    dft_fast(a)
    assert a.values.tobytes() == a_bits and ahat.values.tobytes() == ahat_bits
    frozen_a, frozen_ahat = a.values.copy(), ahat.values.copy()
    frozen_a.flags.writeable = frozen_ahat.flags.writeable = False
    ro_a, ro_ahat = PatternVector(matrix=M, values=frozen_a), SpectrumVector(matrix=M, values=frozen_ahat)
    assert not ro_a.values.flags.writeable and not ro_ahat.values.flags.writeable
    assert dft_fast(ro_a).values.tobytes() == ahat_bits
    assert idft(ro_ahat).values.tobytes() == back.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2 ** 16))
def test_digit_order_makes_the_transform_the_plain_tensor_dft(d, data, seed):
    # the pattern is the whole of M^{-1} Z^d / Z^d in the box, over |det M|,
    # and indexes its own points; its order and that of G(M^T) make dft_fast
    # the fftn of the digit cube, with no permutation.  The set check keeps
    # the naive oracle independent, as _phase_table reads these numerators.
    r = {1: 4096, 2: 64, 3: 16}[d]
    rows = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(0 < M.absdet <= 4096)
    pat, m = pattern(M), M.absdet
    N, q = pat.numerators, pat.denominator
    assert q == m and N.shape == (m, d)
    assert np.all(2 * N >= -q) and np.all(2 * N < q)
    # {M y} reduced into M [-1/2, 1/2)^d: M N / q is integral and in that box already
    K = apply_rows(M, N)
    assert np.all(K % q == 0)
    assert set(map(tuple, (K // q).tolist())) == set(generating_set(M).reps)
    for i in data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8)):
        assert pat.index_of(pat.points[i]) == i
    a = random_pattern_vector(np.random.default_rng(seed), M)
    fast = dft_fast(a).values
    for ref in [fftn_oracle(a)] + ([dft(a).values] if m <= FOURIER_MATRIX_GUARD else []):
        assert float(np.max(np.abs(fast - ref))) <= tol.FAST_VS_NAIVE * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("rows", [[[1]], [[0, 8], [-8, 0]], [[1, 0], [3, 128]], [[1, -1], [1, 1]],
                                  [[11, 3], [-2, 11]]])
def test_dense_plan_matrices_are_read_only_and_never_returned(rows):
    M = IntMat.from_rows(rows)
    F, F_inv = _dense_plan(M)
    assert F.shape == F_inv.shape == (M.absdet, M.absdet)
    assert not F.flags.writeable and not F_inv.flags.writeable
    assert F.flags.c_contiguous and F_inv.flags.c_contiguous
    # bit for bit the entrywise exp of the exact phases k / s_d, k = s_d h.y
    s = smith_normal_form(M).diagonal[-1]
    R, q = _phase_table(M)
    expected = np.exp((-2j * np.pi / s) * (R * s // q))
    assert F.tobytes() == expected.tobytes()
    assert F_inv.tobytes() == np.ascontiguousarray(expected.conj().T / M.absdet).tobytes()
    rng = np.random.default_rng(4)
    a = random_pattern_vector(rng, M)
    ahat = dft_fast(a)
    for out in (ahat.values, idft(ahat).values):
        assert not np.shares_memory(out, F) and not np.shares_memory(out, F_inv)
    # the transforms call ndarray.dot: bit for bit the product with @, also on
    # a strided, read-only view
    z = rng.standard_normal(4 * M.absdet).view(complex)[::2]
    z.flags.writeable = False
    for x in (a.values, z):
        assert dft_fast(PatternVector(matrix=M, values=x)).values.tobytes() == (F @ x).tobytes()
        assert idft(SpectrumVector(matrix=M, values=x)).values.tobytes() == (F_inv @ x).tobytes()


def test_small_transforms_leave_numpy_fft_unimported():
    code = ("import sys; import numpy as np; from vpwave.intlat import IntMat; "
            "from vpwave.latfft import PatternVector, dft_fast, idft; "
            "a = PatternVector(matrix=IntMat.from_rows([[0, 8], [-8, 0]]), values=np.arange(64.0)); "
            "back = idft(dft_fast(a)).values; "
            "assert np.max(np.abs(back - a.values)) < 1e-12; "
            "print('numpy.fft' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("rows, steps", [
    ([[1, 0], [3, 16384]], [(1, 256, 64, 1)]),
    ([[1, 0], [3, 8192]], [(1, 256, 32, 1)]),
    ([[1, 0], [3, L + 1]], [(1, 241, 17, 1)]),
    ([[1, 0], [3, L]], [(1, L)]),
    ([[1, 0], [3, 8191]], [(1, 8191)]),
    ([[2, 0], [0, 8192]], [(1, 2, 8192), (2, 8192)]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 8192]], [(1, 2, 16384), (2, 2, 8192), (4, 8192)]),
], ids=["16384", "8192", "L+1", "L", "prime", "(2, 8192)", "(2, 2, 8192)"])
def test_only_a_long_lone_lane_splits(rows, steps):
    # a split step has a 4-D view and its twiddles; beside other lanes, at
    # the bound and for a prime the axis stays one pocketfft call
    plan = _axis_plan(IntMat.from_rows(rows))
    assert [view for view, _ in plan] == steps
    for view, tables in plan:
        if len(view) == 4:
            assert [t.shape for t in tables] == [(view[1], view[2], 1)] * 2


def test_split_factors():
    # s = a b with b the largest divisor of s with 4 b^2 <= s, and a <= 64 b
    assert [_split(s) for s in (16384, 8192, 32768, 6561, 4097, 100, 18)] == [
        (256, 64), (256, 32), (512, 64), (243, 27), (241, 17), (20, 5), (9, 2)]
    assert [_split(s) for s in (2, 3, 17, 8191, 2 * 8191, 4 * 4099)] == [None] * 6


@pytest.mark.parametrize("s, a, b", [(16384, 256, 64), (6561, 243, 27), (18, 9, 2), (4097, 241, 17)])
def test_twiddles_are_the_read_only_roots(s, a, b):
    tw, tw_inv = _twiddles(s, a, b)
    assert tw.shape == tw_inv.shape == (a, b, 1)
    assert not tw.flags.writeable and not tw_inv.flags.writeable
    assert tw_inv.tobytes() == tw.conj().tobytes()
    k, n = np.meshgrid(np.arange(a), np.arange(b), indexing="ij")
    exact = np.exp((-2j * np.pi / s) * (k * n))[..., None]
    assert float(np.max(np.abs(tw - exact))) <= 2e-15


def _split_step(lead, s, trail):
    a, b = _split(s)
    return (lead, a, b, trail), _twiddles(s, a, b)


@pytest.mark.parametrize("lead, s, trail", [(1, 64, 1), (2, 64, 1), (1, 64, 4), (3, 18, 5), (4, 100, 2),
                                            (2, 6561, 1)])
def test_split_step_beside_other_lanes(lead, s, trail):
    # the planner splits a lone lane only, but the step is the 1-D DFT of
    # the axis for any lead and trail, alone and after or before another step
    rng = np.random.default_rng(s)
    x = rng.standard_normal(2 * lead * s * trail).view(complex)
    x.flags.writeable = False
    cube = x.reshape(lead, s, trail)
    step = _split_step(lead, s, trail)
    for inverse, ref in ((False, np.fft.fft(cube, axis=1)), (True, np.fft.ifft(cube, axis=1))):
        out = _transform((step,), x, inverse)
        assert not np.shares_memory(out, x) and not any(np.shares_memory(out, t) for t in step[1])
        assert float(np.max(np.abs(out - ref.reshape(-1)))) <= tol.FAST_VS_NAIVE * float(np.max(np.abs(ref)))
    # an FFT step over the lead axis, then the split step in place, and the
    # other way round; both are the 2-D DFT of (lead, s)
    if trail == 1 and lead > 1:
        fft_lead = ((1, lead, s), None)
        ref = np.fft.fft2(x.reshape(lead, s)).reshape(-1)
        for steps in ((fft_lead, step), (step, fft_lead)):
            out = _transform(steps, x, False)
            assert float(np.max(np.abs(out - ref))) <= tol.FAST_VS_NAIVE * float(np.max(np.abs(ref)))
            back = _transform(steps, out, True)
            assert float(np.max(np.abs(back - x))) <= tol.FAST_VS_NAIVE * float(np.max(np.abs(x)))


@contextmanager
def long_axis_bound(bound):
    """Plans made inside split every lone lane above ``bound``; none of them
    outlives the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latfft, "_LONG_AXIS", bound)
        _axis_plan.cache_clear()
        try:
            yield
        finally:
            _axis_plan.cache_clear()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data(), bound=st.sampled_from([0, 200]),
       seed=st.integers(0, 2 ** 16))
def test_split_matches_the_naive_dft_at_a_lowered_bound(d, data, bound, seed):
    r = {1: 1024, 2: 40, 3: 10}[d]
    rows = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(_DENSE_PATTERN < M.absdet <= FOURIER_MATRIX_GUARD)
    axes = [s for s in smith_normal_form(M).diagonal if s > 1]
    with long_axis_bound(bound):
        split = len(axes) == 1 and axes[0] > bound and _split(axes[0]) is not None
        assert any(len(view) == 4 for view, _ in _axis_plan(M)) == split
        assert_fast_transforms(M, np.random.default_rng(seed))
