"""Discrete Fourier transform with respect to a regular integer matrix.

A coefficient vector lives on the pattern ``P(M)`` and its transform on
the generating set ``G(M^T)``, both in the canonical Smith-digit order
of :mod:`vpwave.intlat`.  The forward transform is

    a_hat[h] = sum_{y in P(M)} a[y] * exp(-2 pi i h.y),

the unitary Fourier matrix carries an extra ``1/sqrt(m)``.

Two implementations are provided: a naive summation with exact integer
phase arithmetic (the oracle) and a fast route that reduces the pattern
group to ``Z_{s_1} x ... x Z_{s_d}`` via the Smith normal form.  For
``m <= _DENSE_PATTERN`` the whole transform is one product with a cached
``m x m`` matrix (and the inverse one with its inverse) whose rows and
columns are already in canonical order, so no gather runs and
``numpy.fft`` is not imported.  A larger pattern takes the O(m log m)
route: its digit cube is transformed one cyclic axis at a time, leaving
out the unit Smith axes.  An axis of length ``s <= _DENSE_AXIS`` is one
BLAS product with a dense ``s x s`` DFT factor, cheaper at these lengths
than a pocketfft call; a longer axis is a pocketfft ``fft``/``ifft``, run
in place once the transform owns the array, so the caller's values are
never written.  The ``m <= _DENSE_PATTERN`` products and the last-axis
dense step call ``ndarray.dot``, which goes to BLAS without the dispatch of
the ``@`` (matmul) ufunc: at m = 64 that dispatch is about 0.5 us of a
2.5 us transform.  Both plans take
the position of every canonical frequency in the digit cube and the
inverse permutation from :func:`_positions`; the per-axis :func:`idft`
gathers the spectrum into a fresh array first.

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
from .intlat import (IntMat, _Frozen, apply_rows, digit_index, generating_set, pattern,
                     smith_normal_form, unimodular_inverse)

# Largest m for which the naive m x m phase table (naive DFT, Fourier matrix)
# is built; it holds m^2 Python integers, about 72 MB at m = 1024.
FOURIER_MATRIX_GUARD = 2 ** 10
_NAIVE_BLOCK = 256
# Largest m whose transform is one product with a dense m x m matrix.  Timed
# warm with single-threaded BLAS, the product beats the per-axis steps plus
# the gather up to m = 128 on every Smith shape tried and loses from m = 256.
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

    @property
    def pattern(self):
        return pattern(self.matrix)


class SpectrumVector(_IndexedValues):
    """Complex values indexed by ``G(M^T)`` in canonical order."""

    @property
    def frequencies(self):
        return generating_set(self.matrix.T)


@lru_cache(maxsize=None)
def _phase_table(M: IntMat) -> tuple[np.ndarray, int]:
    """Integer matrix R and modulus q with h_i . y_j = R[i, j] / q  (mod 1)."""
    m = M.require_regular().absdet
    if m > FOURIER_MATRIX_GUARD:
        raise TooLarge(f"refusing to build a {m}x{m} phase table")
    adj, q = M.scaled_adjugate()
    A = np.array(adj.entries, dtype=object)
    H = generating_set(M.T).rep_array.astype(object)
    G = generating_set(M).rep_array.astype(object)
    R = (H @ A @ G.T) % q
    return R.astype(np.int64), q


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
def _positions(M: IntMat) -> tuple[np.ndarray, np.ndarray]:
    """The position of each canonical frequency inside the digit cube, and
    the inverse permutation.  With ``M = U S V`` the digits of a frequency
    ``h`` are ``V^{-T} h mod diag(S)``, constant on its class as
    ``V^{-T} M^T Z^d = S Z^d``; canonical frequency ``i`` is the class of
    ``U' D_i`` (``M^T = U' S V'``, ``D_i`` of value ``i``)."""
    dec = smith_normal_form(M)
    digits = np.indices(dec.diagonal).reshape(M.dim, -1).T
    flat = digit_index(apply_rows(unimodular_inverse(dec.V).T @ smith_normal_form(M.T).U, digits),
                       dec.diagonal)
    inv = np.empty_like(flat)
    inv[flat] = np.arange(len(flat))
    flat.flags.writeable = inv.flags.writeable = False
    return flat, inv


@lru_cache(maxsize=None)
def _dense_plan(M: IntMat) -> tuple[np.ndarray, np.ndarray]:
    """The matrix ``F`` of :func:`dft_fast` for ``m <= _DENSE_PATTERN``,
    rows over ``G(M^T)`` and columns over ``P(M)`` in canonical order, and
    the matrix ``conj(F)^T / m`` of :func:`idft`; both read-only.  Pattern
    point ``j`` has the Smith digits ``c`` of value ``j`` and canonical
    frequency ``i`` the digits ``r`` of value ``flat[i]``; as every ``s_k``
    divides the last invariant ``s_d``, the phase ``sum_k r_k c_k / s_k``
    is ``sum_k (r_k c_k mod s_k) (s_d / s_k) mod s_d`` over ``s_d``, exactly.
    Both matrices gather from one table of the ``s_d`` roots of unity."""
    diag = smith_normal_form(M).diagonal
    flat, _ = _positions(M)
    digits = np.indices(diag).reshape(M.dim, -1)
    phase = np.zeros((len(flat), len(flat)), dtype=np.int64)
    for r, c, s in zip(digits[:, flat], digits, diag):
        if s > 1:
            phase += np.outer(r, c) % s * (diag[-1] // s)
    phase %= diag[-1]
    roots = np.exp((-2j * np.pi / diag[-1]) * np.arange(diag[-1]))
    F = roots[phase]
    # a gather takes the layout of its index array, so index by a C-ordered copy
    F_inv = (roots.conj() / len(flat))[np.ascontiguousarray(phase.T)]
    F.flags.writeable = F_inv.flags.writeable = False
    return F, F_inv


@lru_cache(maxsize=None)
def _axis_plan(M: IntMat) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Steps over the non-unit Smith axes of a pattern with
    ``m > _DENSE_PATTERN``, and the positions from :func:`_positions`.
    A step is ``(view, factors)``: the view of the cube that puts the axis
    in the middle, ``(lead, s, trail)``, or ``(lead, s)`` for the last axis,
    and for ``s <= _DENSE_AXIS`` the pair from :func:`_dense_factors` (a
    dense step), else ``None`` (an FFT step along axis 1)."""
    shape = [s for s in smith_normal_form(M).diagonal if s > 1]
    steps, lead = [], 1
    for i, s in enumerate(shape):
        trail = math.prod(shape[i + 1:])
        view = (lead, s, trail) if trail > 1 else (lead, s)
        steps.append((view, _dense_factors(s) if s <= _DENSE_AXIS else None))
        lead *= s
    return (tuple(steps), *_positions(M))


def _transform(steps: tuple, x: np.ndarray, owned: bool, inverse: bool) -> np.ndarray:
    """Run the plan's steps on the flat cube ``x``; ``owned`` says whether
    ``x`` may be written.  Each step leaves an array the transform owns.
    Only an FFT step touches ``np.fft``, whose first use imports it.  A
    dense step on the last axis is ``cube.dot(F)``, without the matmul-ufunc
    dispatch of ``@``; any other axis is the batched ``F @ cube``."""
    for view, factors in steps:
        cube = x.reshape(view)
        if factors is None:
            fft = np.fft.ifft if inverse else np.fft.fft
            x = fft(cube, axis=1, out=cube if owned else None)
        elif len(view) == 2:
            x = cube.dot(factors[inverse])
        else:
            x = factors[inverse] @ cube
        owned = True
    return x.reshape(-1)


def dft_fast(a: PatternVector) -> SpectrumVector:
    """Fast transform: one dense product for ``m <= _DENSE_PATTERN``, else
    one dense or FFT step per Smith axis of the digit cube and a gather."""
    M = a.matrix
    if M.absdet <= _DENSE_PATTERN:
        return SpectrumVector._own(M, _dense_plan(M)[0].dot(a.values))
    steps, flat, _ = _axis_plan(M)
    cube = _transform(steps, a.values, owned=False, inverse=False)
    return SpectrumVector._own(M, cube[flat])


def idft(ahat: SpectrumVector) -> PatternVector:
    """Inverse transform, ``a[y] = (1/m) sum_h ahat[h] exp(2 pi i h.y)``."""
    M = ahat.matrix
    if M.absdet <= _DENSE_PATTERN:
        return PatternVector._own(M, _dense_plan(M)[1].dot(ahat.values))
    steps, _, inv = _axis_plan(M)
    return PatternVector._own(M, _transform(steps, ahat.values[inv], owned=True, inverse=True))


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
