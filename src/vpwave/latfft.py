"""Discrete Fourier transform with respect to a regular integer matrix.

A coefficient vector lives on the pattern ``P(M)`` and its transform on
the generating set ``G(M^T)``, both in the canonical Smith-digit order
of :mod:`vpwave.intlat`.  The forward transform is

    a_hat[h] = sum_{y in P(M)} a[y] * exp(-2 pi i h.y),

the unitary Fourier matrix carries an extra ``1/sqrt(m)``.

Two implementations are provided: a naive summation with exact integer
phase arithmetic (the oracle) and a fast route that reduces the pattern
group to ``Z_{s_1} x ... x Z_{s_d}`` via the Smith normal form.  Both
sets are ordered by their Smith digits, so the canonical transform is the
plain C-order tensor DFT of the digit cube and no route gathers.  For
``m <= _DENSE_PATTERN`` the whole transform is one product with a cached
``m x m`` matrix (and the inverse one with its inverse), and ``numpy.fft``
is not imported.  A larger pattern takes the O(m log m) route: its digit
cube is transformed one cyclic axis at a time, leaving out the unit Smith
axes.  An axis of length ``s <= _DENSE_AXIS`` is one BLAS product with a
dense ``s x s`` DFT factor, cheaper at these lengths than a pocketfft
call; a longer axis is a pocketfft ``fft``/``ifft``, run in place once the
transform owns the array, so the caller's values are never written.  The
one axis of a cyclic pattern with ``s > _LONG_AXIS`` is split as
``s = a b`` when ``s`` has a divisor ``b`` in ``[sqrt(s)/8, sqrt(s)/2]``
(Bailey's four-step FFT): pocketfft passes along ``a`` and along ``b``
with a twiddle multiply between them, then one transposed copy that puts
the frequencies back in digit order, so the layout of both vectors does
not depend on the route.  The ``m <= _DENSE_PATTERN`` products and the
last-axis dense step call ``ndarray.dot``, which goes to BLAS without the
dispatch of the ``@`` (matmul) ufunc: at m = 64 that dispatch is about
0.5 us of a 2.5 us transform.

The public ``PatternVector``/``SpectrumVector`` constructors convert their
values to complex and check the length.  :func:`dft_fast` and :func:`idft`
wrap the fresh ``complex128`` arrays they have just built without that
re-validation (``_IndexedValues._own``), which at small ``m`` costs as
much as the product itself.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import IndexMismatch, TooLarge
from .intlat import (IntMat, _absmax, _Frozen, exact_dtype, generating_set, pattern,
                     smith_normal_form)

# Largest m for which the naive m x m phase table (naive DFT, Fourier matrix)
# is built; it holds m^2 int64 entries while max|H| max|N| d stays within
# intlat.exact_dtype's int64 bound: 8 MB at m = 1024.
FOURIER_MATRIX_GUARD = 2 ** 10
_NAIVE_BLOCK = 256
# Largest m whose transform is one product with a dense m x m matrix.  Timed
# warm with single-threaded BLAS, the product beats the per-axis steps up to
# m = 128 on every Smith shape tried and loses from m = 256.
# Unpinned OpenBLAS splits this product over two threads from 64 x 64 on, and
# on a shared host the hand-off can stall it to milliseconds per call;
# OPENBLAS_NUM_THREADS=1 avoids that.
_DENSE_PATTERN = 128
# Longest Smith axis of a larger pattern done as one BLAS product with a dense
# DFT factor instead of a pocketfft call.  Timed per axis with single-threaded
# BLAS, the product is faster up to s = 16 at every m up to 2^14, pocketfft
# from s = 32 at 2^14; at m = 1024 the product still wins at s = 32.
_DENSE_AXIS = 16
# A cyclic pattern (one non-unit Smith axis, so one lane) of length
# s > _LONG_AXIS runs as a four-step split s = a b (:func:`_split`).  Timed
# warm as a forward plus inverse step: on one lane pocketfft wins up to
# s = 4096 and the split from s = 8192; beside a second lane the split ties
# at s = 8192, and beside four it loses at every s up to 32768, so only a
# lone lane splits (CHANGES.md has the table).
_LONG_AXIS = 4096


class _IndexedValues(_Frozen):
    """Complex values, one per element of an index set of size ``|det M|``."""

    def __init__(self, matrix: IntMat, values: np.ndarray):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (matrix.absdet,):
            raise IndexMismatch(f"expected {matrix.absdet} values, got shape {vals.shape}")
        self._set(matrix=matrix, values=vals)

    @classmethod
    def _own(cls, matrix: IntMat, values: np.ndarray) -> "_IndexedValues":
        """Wrap a fresh ``complex128`` array of shape ``(|det M|,)`` that a
        transform has just built, without the checks and conversion of the
        public constructor."""
        out = object.__new__(cls)
        state = out.__dict__
        state["matrix"] = matrix
        state["values"] = values
        return out

    def __len__(self) -> int:
        return len(self.values)


class PatternVector(_IndexedValues):
    """Complex values indexed by ``P(M)`` in canonical order."""


class SpectrumVector(_IndexedValues):
    """Complex values indexed by ``G(M^T)`` in canonical order."""


@lru_cache(maxsize=None)
def _phase_table(M: IntMat) -> tuple[np.ndarray, int]:
    """Integer matrix R and modulus q with h_i . y_j = R[i, j] / q  (mod 1)."""
    m = M.require_regular().absdet
    if m > FOURIER_MATRIX_GUARD:
        raise TooLarge(f"refusing to build a {m}x{m} phase table")
    H, N = generating_set(M.T).rep_array, pattern(M).numerators
    dtype = exact_dtype(_absmax(H) * _absmax(N) * M.dim)
    R = (H.astype(dtype, copy=False) @ N.astype(dtype, copy=False).T) % m
    return R.astype(np.int64, copy=False), m


def fourier_matrix(M: IntMat) -> np.ndarray:
    """Dense unitary Fourier matrix of ``M``; rows over ``G(M^T)``,
    columns over ``P(M)``."""
    R, q = _phase_table(M)
    return np.exp((-2j * np.pi / q) * R) / np.sqrt(len(R))


def _naive_sum(v: _IndexedValues, inverse: bool) -> np.ndarray:
    """``sum_j exp(-2 pi i R[i, j] / q) v[j]`` for each ``i``, over blocks of
    ``_NAIVE_BLOCK`` rows of phases; the inverse is the same sum over ``R^T``
    with the opposite sign, divided by ``m``."""
    R, q = _phase_table(v.matrix)
    R, turn = (R.T, 2j * np.pi / q) if inverse else (R, -2j * np.pi / q)
    out = np.empty(len(R), dtype=complex)
    for start in range(0, len(R), _NAIVE_BLOCK):
        out[start:start + _NAIVE_BLOCK] = np.exp(turn * R[start:start + _NAIVE_BLOCK]) @ v.values
    return out / len(R) if inverse else out


def dft(a: PatternVector) -> SpectrumVector:
    """Naive transform by direct summation with exact rational phases."""
    return SpectrumVector(matrix=a.matrix, values=_naive_sum(a, inverse=False))


@lru_cache(maxsize=None)
def _dense_factors(s: int) -> tuple[np.ndarray, np.ndarray]:
    """DFT factor ``F[j, k] = exp(-2 pi i (jk mod s) / s)`` of a cyclic axis
    and its inverse ``conj(F) / s``; both symmetric."""
    k = np.arange(s)
    F = np.exp((-2j * np.pi / s) * (np.outer(k, k) % s))
    F_inv = F.conj() / s
    F.flags.writeable = F_inv.flags.writeable = False
    return F, F_inv


@lru_cache(maxsize=None)
def _dense_plan(M: IntMat) -> tuple[np.ndarray, np.ndarray]:
    """The matrix ``F`` of :func:`dft_fast` for ``m <= _DENSE_PATTERN`` and
    the matrix ``conj(F)^T / m`` of :func:`idft`, both read-only.  Frequency
    ``i`` and point ``j`` have the Smith digits ``r`` and ``c`` of values
    ``i`` and ``j``; as every ``s_k`` divides ``s_d``, the phase
    ``sum_k r_k c_k / s_k`` is ``sum_k (r_k c_k mod s_k) (s_d / s_k)`` over
    ``s_d``, exactly.  That table is symmetric, so both matrices index one
    table of the ``s_d`` roots of unity by it."""
    diag = smith_normal_form(M).diagonal
    digits = np.indices(diag).reshape(M.dim, -1)
    phase = np.zeros((M.absdet, M.absdet), dtype=np.int64)
    for c, s in zip(digits, diag):
        if s > 1:
            phase += np.outer(c, c) % s * (diag[-1] // s)
    phase %= diag[-1]
    roots = np.exp((-2j * np.pi / diag[-1]) * np.arange(diag[-1]))
    F = roots[phase]
    F_inv = (roots.conj() / M.absdet)[phase]
    F.flags.writeable = F_inv.flags.writeable = False
    return F, F_inv


def _split(s: int) -> tuple[int, int] | None:
    """The factors ``(a, b)`` of a four-step split of a cyclic axis:
    ``s = a b`` with ``b`` the largest divisor of ``s`` with ``4 b^2 <= s``
    (256 x 64 at s = 16384, the fastest of 128 x 128, 256 x 64 and
    512 x 32); ``None`` when ``b = 1`` (a prime ``s``) or ``a > 64 b``, as
    passes that uneven would not pay for the twiddle multiply and the copy."""
    b = max((d for d in range(1, math.isqrt(s // 4) + 1) if s % d == 0), default=1)
    return (s // b, b) if 1 < b and s <= 64 * b * b else None


def _twiddles(s: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The twiddles ``exp(-2 pi i k n / s)``, ``k < a``, ``n < b``, of a split
    and their conjugates, read-only with shape ``(a, b, 1)``.  As
    ``k n < s``, they are gathered from a table of the ``s`` roots of unity
    that is the outer product of two short ones, of the roots ``j r`` and
    ``j`` for ``r = isqrt(s)``: no ``exp`` runs over all ``s`` entries."""
    r = math.isqrt(s)
    coarse = np.exp((-2j * np.pi * r / s) * np.arange(-(-s // r)))
    fine = np.exp((-2j * np.pi / s) * np.arange(r))
    tw = np.multiply.outer(coarse, fine).reshape(-1)[np.outer(np.arange(a), np.arange(b))]
    tw = tw.reshape(a, b, 1)
    tw_inv = tw.conj()
    tw.flags.writeable = tw_inv.flags.writeable = False
    return tw, tw_inv


@lru_cache(maxsize=None)
def _axis_plan(M: IntMat) -> tuple:
    """Steps over the non-unit Smith axes of a pattern with
    ``m > _DENSE_PATTERN``.  A step is ``(view, tables)``:
    - a dense step, ``s <= _DENSE_AXIS``: the view ``(lead, s, trail)``, or
      ``(lead, s)`` for the last axis, that puts the axis in the middle, and
      the pair from :func:`_dense_factors`;
    - a split step, for a lone lane (``lead = trail = 1``) with
      ``s > _LONG_AXIS`` and a split ``s = a b`` from :func:`_split`: the
      view ``(lead, a, b, trail)`` and the pair from :func:`_twiddles`;
    - else an FFT step along axis 1 of the view, with ``None``.
    A split step's index ``n = n_1 b + n_2`` and frequency
    ``k = k_1 + a k_2`` give ``exp(-2 pi i k n / s)`` as the product of
    ``exp(-2 pi i k_1 n_1 / a)``, the twiddle ``exp(-2 pi i k_1 n_2 / s)``
    and ``exp(-2 pi i k_2 n_2 / b)`` (Bailey's four-step FFT)."""
    shape = [s for s in smith_normal_form(M).diagonal if s > 1]
    steps, lead = [], 1
    for i, s in enumerate(shape):
        trail = math.prod(shape[i + 1:])
        if lead * trail == 1 and s > _LONG_AXIS and (split := _split(s)):
            steps.append(((lead, *split, trail), _twiddles(s, *split)))
        else:
            view = (lead, s, trail) if trail > 1 else (lead, s)
            steps.append((view, _dense_factors(s) if s <= _DENSE_AXIS else None))
        lead *= s
    return tuple(steps)


def _transform(steps: tuple, x: np.ndarray, inverse: bool) -> np.ndarray:
    """Run the plan's steps on the flat cube ``x``, which is never written.
    A dense step, and the closing copy of a split step, leave a fresh array;
    an FFT step, and the first pass of a split step, write one only while
    ``x`` is the caller's and run in place once the transform owns it.  Only
    the FFT and split steps touch ``np.fft``, whose first use imports it.
    A dense step on the last axis is ``cube.dot(F)``, without the
    matmul-ufunc dispatch of ``@``; any other axis is the batched
    ``F @ cube``.  A split step runs four passes on
    ``(lead, a, b, trail)``: an FFT along ``a``, the twiddle multiply and an
    FFT along ``b``, both in place, and one transposed copy into
    ``(lead, b, a, trail)``, which puts the frequencies ``k_1 + a k_2`` back
    in C order."""
    for n, (view, tables) in enumerate(steps):
        cube = x.reshape(view)
        if tables is None or len(view) == 4:
            fft = np.fft.ifft if inverse else np.fft.fft
            x = fft(cube, axis=1, out=cube if n else None)
            if tables is not None:
                x *= tables[inverse]
                x = fft(x, axis=2, out=x).swapaxes(1, 2).copy()
        elif len(view) == 2:
            x = cube.dot(tables[inverse])
        else:
            x = tables[inverse] @ cube
    return x.reshape(-1)


def dft_fast(a: PatternVector) -> SpectrumVector:
    """Fast transform: one dense product for ``m <= _DENSE_PATTERN``, else
    one dense or FFT step per Smith axis of the digit cube."""
    M = a.matrix
    if M.absdet <= _DENSE_PATTERN:
        return SpectrumVector._own(M, _dense_plan(M)[0].dot(a.values))
    return SpectrumVector._own(M, _transform(_axis_plan(M), a.values, inverse=False))


def idft(ahat: SpectrumVector) -> PatternVector:
    """Inverse transform, ``a[y] = (1/m) sum_h ahat[h] exp(2 pi i h.y)``."""
    M = ahat.matrix
    if M.absdet <= _DENSE_PATTERN:
        return PatternVector._own(M, _dense_plan(M)[1].dot(ahat.values))
    return PatternVector._own(M, _transform(_axis_plan(M), ahat.values, inverse=True))


def idft_naive(ahat: SpectrumVector) -> PatternVector:
    """Inverse by conjugate summation; oracle for :func:`idft`."""
    return PatternVector(matrix=ahat.matrix, values=_naive_sum(ahat, inverse=True))
