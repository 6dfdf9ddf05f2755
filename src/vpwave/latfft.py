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
``m <= _DENSE_PATTERN`` products and the last-axis dense step call
``ndarray.dot``, which goes to BLAS without the dispatch of the ``@``
(matmul) ufunc: at m = 64 that dispatch is about 0.5 us of a 2.5 us
transform.

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
from .intlat import IntMat, _Frozen, generating_set, pattern, smith_normal_form

# Largest m for which the naive m x m phase table (naive DFT, Fourier matrix)
# is built; it holds m^2 Python integers, about 72 MB at m = 1024.
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
    pat = pattern(M)
    H = generating_set(M.T).rep_array.astype(object)
    R = (H @ pat.numerators.astype(object).T) % pat.denominator
    return R.astype(np.int64), pat.denominator


def fourier_matrix(M: IntMat) -> np.ndarray:
    """Dense unitary Fourier matrix of ``M``; rows over ``G(M^T)``,
    columns over ``P(M)``."""
    R, q = _phase_table(M)
    return np.exp((-2j * np.pi / q) * R) / np.sqrt(len(R))


def dft(a: PatternVector) -> SpectrumVector:
    """Naive transform by direct summation with exact rational phases."""
    M = a.matrix
    R, q = _phase_table(M)
    m = len(a)
    out = np.empty(m, dtype=complex)
    for start in range(0, m, _NAIVE_BLOCK):
        block = R[start:start + _NAIVE_BLOCK]
        out[start:start + _NAIVE_BLOCK] = np.exp((-2j * np.pi / q) * block) @ a.values
    return SpectrumVector(matrix=M, values=out)


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


@lru_cache(maxsize=None)
def _axis_plan(M: IntMat) -> tuple:
    """Steps over the non-unit Smith axes of a pattern with
    ``m > _DENSE_PATTERN``.  A step is ``(view, factors)``: the view of the
    cube that puts the axis in the middle, ``(lead, s, trail)``, or
    ``(lead, s)`` for the last axis, and for ``s <= _DENSE_AXIS`` the pair
    from :func:`_dense_factors` (a dense step), else ``None`` (an FFT step
    along axis 1)."""
    shape = [s for s in smith_normal_form(M).diagonal if s > 1]
    steps, lead = [], 1
    for i, s in enumerate(shape):
        trail = math.prod(shape[i + 1:])
        view = (lead, s, trail) if trail > 1 else (lead, s)
        steps.append((view, _dense_factors(s) if s <= _DENSE_AXIS else None))
        lead *= s
    return tuple(steps)


def _transform(steps: tuple, x: np.ndarray, inverse: bool) -> np.ndarray:
    """Run the plan's steps on the flat cube ``x``, which is never written:
    each step leaves a fresh array, which the FFT step after it transforms
    in place.  Only an FFT step touches ``np.fft``, whose first use imports
    it.  A dense step on the last axis is ``cube.dot(F)``, without the
    matmul-ufunc dispatch of ``@``; any other axis is the batched
    ``F @ cube``."""
    for n, (view, factors) in enumerate(steps):
        cube = x.reshape(view)
        if factors is None:
            fft = np.fft.ifft if inverse else np.fft.fft
            x = fft(cube, axis=1, out=cube if n else None)
        elif len(view) == 2:
            x = cube.dot(factors[inverse])
        else:
            x = factors[inverse] @ cube
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
    M = ahat.matrix
    R, q = _phase_table(M)
    m = len(ahat)
    out = np.empty(m, dtype=complex)
    for start in range(0, m, _NAIVE_BLOCK):
        block = R[:, start:start + _NAIVE_BLOCK]
        out[start:start + _NAIVE_BLOCK] = ahat.values @ np.exp((2j * np.pi / q) * block) / m
    return PatternVector(matrix=M, values=out)
