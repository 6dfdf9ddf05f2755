"""Exact integer lattice algebra.

Regular integer matrices, exact determinants, Smith normal form,
enumeration of patterns and generating sets, congruence reduction and
dilation chains.  Floating point never decides a congruence.

Conventions
-----------
For a regular ``M`` in Z^{dxd} with ``m = |det M|``:

* the *pattern* ``P(M)`` collects the ``m`` points of ``M^{-1} Z^d``
  that fall in the half-open box ``[-1/2, 1/2)^d``; they represent
  ``M^{-1} Z^d / Z^d``;
* the *generating set* ``G(M)`` collects the ``m`` integer vectors in
  ``M [-1/2,1/2)^d``; they represent ``Z^d / M Z^d`` and satisfy
  ``G(M) = M P(M)`` as sets.

Any other box of representatives gives the same spaces and transforms up
to a fixed permutation, so this symmetric box is the only one built.

Frequency classes of the DFT with respect to ``M`` live on ``G(M^T)``
with class lattice ``M^T Z^d``; ``generating_set(M.T).reduce`` reduces
into that set.

Both sets are ordered lexicographically by their Smith digits, so every
module and file format of this package agrees on element positions.
``G(M)`` takes the digits ``U^{-1} k`` of ``M = U S V``.  ``P(M)`` is dual
to ``G(M^T)``, with ``M^T = U' S V'``: point ``i`` is ``U'^{-T} S^{-1} c``
mod ``Z^d`` and frequency ``h_j`` has the digits ``r = U'^{-1} h_j``, for
``c``, ``r`` of values ``i``, ``j``, so ``h_j . y_i = sum_k r_k c_k / s_k``
mod 1 and the DFT is the tensor DFT of the digit cube.  ``U`` and ``U'``
are not unique: a change to :func:`smith_normal_form` may move both.

Integer arrays
--------------
Matrices hold Python integers; batches of lattice points are ``(n, d)``
integer arrays, one point per row.  With ``M^{-1} = A / q``, ``q = |det M|``
(:attr:`SmithDecomposition.scaled_inverse`, the one exact inverse; ``M^{-T}``
is that of ``M^T``), a batch ``K`` reduces into the box as

    K - M floor((2 A K + q) / (2 q))

by exact floor division.  ``G(M)`` is the Smith digit grid mapped by
``U`` and reduced in one such step, with ``A U = V^{-1} diag(q/s_k)`` for
``M = U S V`` (``P(M)`` takes ``U'^{-T} diag(q/s_k)``): each coordinate is
one contiguous row, an outer sum of a short array per Smith axis, reduced
in place and written once into its column of the ``(m, d)`` array.  As
``M Z^d = U S Z^d``, the class of ``k`` is the digit vector
``U^{-1} k mod diag(S)``, and its mixed-radix value is its position in
the canonical order.  :meth:`SmithDecomposition.class_index` computes it
for a whole ``(n, d)`` batch from ``U^{-1}`` and ``diag(S)`` alone, with no
set enumerated (``GeneratingSet.class_index`` and ``index_of``, its one-row
form, delegate to it), so a class vector over ``G(M)`` acts on many
frequencies by one gather.  Where only classes matter, as for the
two-scale values, :func:`class_representatives` gives one unreduced
representative ``U c`` per digit vector ``c``, in the same order.  A pattern
point ``y`` has the digits ``V'^{-T} M y = S U'^T y mod diag(S)``.  Both
sets are stored as integer arrays, the pattern as numerators over the
single denominator ``q``; the tuples ``reps`` and the ``Fraction`` points
are formed only on demand.

Lattice points: periodization shifts and the frequencies in a window's
support are lattice points around given rows in a closed box.  On the
lower-triangular Hermite basis (:attr:`IntMat.hermite`; H. Cohen, *A Course
in Computational Algebraic Number Theory*, 2.4) coordinate ``j`` of ``x + H w``
depends on ``w_0..w_j`` only: :func:`lattice_points` walks no bounding box.

Overflow rule: :func:`exact_dtype` is the package's one width rule.  Every
exact array computation, in any module, first bounds each entry, product
and partial sum it forms and asks ``exact_dtype(bound)`` for the width:
int64 below ``2^62``, else Python integers (``object``), so int64 never
wraps silently.  :func:`apply_rows` bounds ``max|B| max(max|X|, 1) d`` plus
any addend, the lattice walk its partial points from ``max|X|``, the box
and ``H``.  An enumeration bounds every entry from the coefficients and
digit ranges (:func:`_image_bound`) before it allocates, and adds one
narrower tier, int32 below ``2^31`` (:func:`_row_dtype`): under NumPy's
promotion rules (NEP 50) an int32 array times a Python int stays int32 and
wraps silently, so the bound, never a result, decides the width.  The
stored sets are int64, or Python integers on the object path.

An ``IntMat`` computes what depends on its entries alone once and keeps
it on the instance: the hash, the determinant, the transpose, and for
:func:`apply_rows` the largest ``|entry|`` and the transpose as a read-only
int64 array.  Each value class takes only its defining inputs, which its
one constructor validates, and derives the rest: ``IntMat`` its entries
(a tuple of tuples of Python ints, the form of every matrix the package
computes, is taken as it is), ``ChainSpec`` ``M0`` and the factors, and
``GeneratingSet`` and ``Pattern`` the matrix and the enumerated rows.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (ConditionViolated, DimensionMismatch, FrozenValue, IndexMismatch,
                     InexactInput, InvalidParameter, LevelOutOfRange, SingularMatrix, TooLarge)

Vec = tuple[int, ...]
FracVec = tuple[Fraction, ...]

# Most points that G(M), P(M) or one step of lattice_points may enumerate.
ENUMERATION_GUARD = 2 ** 20
# exact_dtype's bound on every entry of an int64 computation; above it, Python ints.
_INT64_SAFE = 2 ** 62
# Bound on every entry of an int32 enumeration row; above it, int64.
_INT32_SAFE = 2 ** 31


class _Frozen:
    """Base of the package's immutable objects: ``__init__`` writes the
    fields once with :meth:`_set`, and assignment or deletion raises
    :class:`~vpwave.errors.FrozenValue`.  ``cached_property`` and unpickling
    write the instance ``__dict__`` directly, so both keep working.  Equality
    and hashing are by identity."""

    def _set(self, **fields) -> None:
        vars(self).update(fields)

    def __setattr__(self, name, value):
        raise FrozenValue(f"cannot assign {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise FrozenValue(f"cannot delete {name!r} of an immutable {type(self).__name__}")


class _Value(_Frozen):
    """An immutable object that compares, and prints, by the fields named in
    ``_fields``; ``__init__`` stores the hash as ``_hash``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        state = vars(self)
        return tuple(state[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({args})"


def _exact_ints(k: Sequence) -> Vec:
    """``k`` as a tuple of Python integers; integral Fractions, floats and
    numpy integers are accepted, anything else raises ``InexactInput``."""
    k = tuple(k)
    try:
        row = tuple(map(int, k))
    except (TypeError, ValueError, OverflowError):
        row = None
    if row != k:
        raise InexactInput(f"{k} is not an integer vector")
    return row


def _exact_fraction(v) -> Fraction:
    """``v`` as an exact ``Fraction`` (a float converts exactly, as in
    ``Fraction(v)``); NaN, an infinity or a non-number raises ``InexactInput``."""
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InexactInput(f"cannot read {v!r} as an exact rational") from None


class IntMat(_Value):
    """Immutable square integer matrix.  The hash, the exact determinant and
    the transpose are cached on the instance, so a cache keyed by matrices
    hashes the entries once per matrix, and ``M.T is M.T``; equality
    compares the entries.  A non-integral entry raises ``InexactInput``;
    entries that are already a tuple of tuples of Python ints, the form of
    every matrix the package computes, are taken as they are."""

    _fields = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = entries
        if not (type(rows) is tuple and all([type(row) is tuple for row in rows])
                and {type(v) for row in rows for v in row} <= {int}):
            rows = tuple(map(_exact_ints, rows))
        if not rows:
            raise DimensionMismatch("matrix must be at least 1x1")
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("matrix must be square")
        self._set(entries=rows, _hash=hash(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMat":
        return cls(rows)

    @classmethod
    def identity(cls, d: int) -> "IntMat":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMat":
        d = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def det(self) -> int:
        return _bareiss_det(self.to_lists())

    @cached_property
    def absdet(self) -> int:
        return abs(self.det)

    def require_regular(self) -> "IntMat":
        if self.det == 0:
            raise SingularMatrix(f"matrix {self.entries} is singular")
        return self

    @cached_property
    def T(self) -> "IntMat":
        return IntMat(tuple(zip(*self.entries)))

    @cached_property
    def hermite(self) -> "IntMat":
        """The Hermite normal form ``H = M W`` (``W`` unimodular) of the column
        lattice of a regular ``M``: lower triangular, ``0 <= H[i][k] < H[i][i]``
        for ``k < i``; column operations by Euclid's algorithm, row by row."""
        cols = [list(c) for c in zip(*self.require_regular().entries)]
        for i, col in enumerate(cols):
            for other in cols[i + 1:]:
                while other[i]:
                    f = col[i] // other[i]
                    col[:], other[:] = other, [a - f * b for a, b in zip(col, other)]
            col[:] = [a if col[i] > 0 else -a for a in col]
            for left in cols[:i]:
                left[:] = [a - left[i] // col[i] * b for a, b in zip(left, col)]
        return IntMat(tuple(zip(*cols)))

    @cached_property
    def _max_entry(self) -> int:
        """The largest ``|entry|``, for the overflow bound of :func:`apply_rows`."""
        return max(abs(v) for row in self.entries for v in row)

    @cached_property
    def _int64_T(self) -> np.ndarray:
        """The transpose as a read-only int64 array; only read once
        :func:`apply_rows` has bounded the entries below ``2^62``."""
        T = np.array(self.entries, dtype=np.int64).T
        T.flags.writeable = False
        return T

    def __matmul__(self, other: "IntMat") -> "IntMat":
        """The product, entry by entry as row-column dot products."""
        if other.dim != self.dim:
            raise DimensionMismatch("matrix dimensions differ")
        return IntMat(_product(self.entries, other.entries))

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; works for int and Fraction entries."""
        if len(v) != self.dim:
            raise DimensionMismatch("vector length differs from matrix dimension")
        return tuple(sum(map(operator.mul, row, v)) for row in self.entries)

    def inv_apply(self, v: Sequence) -> FracVec:
        """``M^{-1} v`` exactly (entries of ``v``: ints, Fractions or floats)."""
        A, q = smith_normal_form(self).scaled_inverse
        return _divide_rows(A.entries, q, v)

    def inv_T_apply(self, v: Sequence) -> FracVec:
        """``M^{-T} v`` exactly."""
        B, q = smith_normal_form(self.T).scaled_inverse
        return _divide_rows(B.entries, q, v)

    def inv_T_rows(self, K: np.ndarray) -> tuple[np.ndarray, int]:
        """``M^{-T} k`` for every row ``k`` of the integer array ``K``, exactly: the
        numerators ``B k`` over ``q``, ``(B, q)`` the scaled inverse of ``M^T``."""
        B, q = smith_normal_form(self.T).scaled_inverse
        return apply_rows(B, K), q

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __str__(self) -> str:  # compact row-major form used in logs
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"


def _product(X: Sequence[Sequence[int]], Y: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """The matrix product of two square integer matrices, as a tuple of row tuples."""
    cols = tuple(zip(*Y))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in X)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SmithDecomposition(_Frozen):
    """``M = U S V`` with unimodular ``U, V`` and ``S = diag(s_1..s_d)``,
    ``s_i > 0`` and ``s_i | s_{i+1}``; ``U_inv`` and ``V_inv`` are the exact
    inverses of ``U`` and ``V``."""

    def __init__(self, U: IntMat, S: IntMat, V: IntMat, U_inv: IntMat, V_inv: IntMat):
        self._set(U=U, S=S, V=V, U_inv=U_inv, V_inv=V_inv)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S.entries[i][i] for i in range(self.S.dim))

    @cached_property
    def scaled_inverse(self) -> tuple[IntMat, int]:
        """``(A, q)`` with ``q = s_1 ... s_d = |det M|`` and the integer matrix
        ``A = V^{-1} diag(q / s_k) U^{-1} = q M^{-1}``; the one exact inverse
        of this package, kept on the decomposition."""
        diag = self.diagonal
        q = reduce(operator.mul, diag)
        scaled = [[v * (q // s) for v, s in zip(row, diag)] for row in self.V_inv.entries]
        return IntMat(_product(scaled, self.U_inv.entries)), q

    def class_index(self, K: np.ndarray) -> np.ndarray:
        """Positions in the canonical order of the classes modulo ``M Z^d`` of
        the rows of the ``(n, d)`` integer array ``K`` (:func:`_integer_rows`):
        the mixed-radix values of their digits ``U^{-1} k mod diag(S)``."""
        K = _integer_rows(K, self.S.dim, "frequencies")
        return digit_index(apply_rows(self.U_inv, K), self.diagonal)


@lru_cache(maxsize=None)
def smith_normal_form(M: IntMat) -> SmithDecomposition:
    """Smith normal form of a regular integer matrix.

    Each step moves the row-major first nonzero entry of least magnitude of
    the trailing block to the pivot and clears the pivot row and column.
    The divisor condition is met inside this elimination: while the pivot
    fails to divide an entry of the trailing block, that entry's row is
    added to the pivot row and the step repeats, with a pivot of strictly
    smaller magnitude.
    """
    d = M.require_regular().dim
    A = M.to_lists()
    # Maintain M = U @ A @ V; U, V collect inverse elementary ops, U_inv, V_inv the ops.
    eye = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    U, V, U_inv, V_inv = ([list(row) for row in eye] for _ in range(4))

    def row_add(i, j, c):
        # A <- L A with L adding c*row j to row i; U <- U L^{-1}, U_inv <- L U_inv
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        U_inv[i] = [x + c * y for x, y in zip(U_inv[i], U_inv[j])]
        for r in U:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        # col i += c * col j; V <- R^{-1} V, V_inv <- V_inv R with the matching op
        for r in A + V_inv:
            r[i] += c * r[j]
        V[j] = [x - c * y for x, y in zip(V[j], V[i])]

    for t in range(d):
        while True:
            _, bi, bj = min((abs(A[i][j]), i, j)
                            for i in range(t, d) for j in range(t, d) if A[i][j])
            A[t], A[bi] = A[bi], A[t]
            U_inv[t], U_inv[bi] = U_inv[bi], U_inv[t]
            for r in U:
                r[t], r[bi] = r[bi], r[t]
            for r in A + V_inv:
                r[t], r[bj] = r[bj], r[t]
            V[t], V[bj] = V[bj], V[t]
            p = A[t][t]
            for i in range(t + 1, d):
                row_add(i, t, -(A[i][t] // p))
            for j in range(t + 1, d):
                col_add(j, t, -(A[t][j] // p))
            if any(A[i][t] or A[t][i] for i in range(t + 1, d)):
                continue  # a nonzero remainder: it is the next, smaller pivot
            # divisor step: a row with an entry the pivot does not divide
            k = next((i for i in range(t + 1, d) if any(v % p for v in A[i][t + 1:])), None)
            if k is None:
                break
            row_add(t, k, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U_inv[t] = [-x for x in U_inv[t]]
            for r in U:
                r[t] = -r[t]

    U, A, V, U_inv, V_inv = (tuple(map(tuple, X)) for X in (U, A, V, U_inv, V_inv))
    if (_product(_product(U, A), V) != M.entries or _product(U, U_inv) != eye
            or _product(V_inv, V) != eye):
        raise ConditionViolated(f"Smith reconstruction of {M} failed")
    dec = SmithDecomposition(*map(IntMat, (U, A, V, U_inv, V_inv)))
    diag = dec.diagonal
    if any(s <= 0 for s in diag) or any(diag[i + 1] % diag[i] for i in range(d - 1)):
        raise ConditionViolated(f"Smith diagonal {diag} of {M} is not a divisor chain")
    return dec


def _divide_rows(rows: tuple[Vec, ...], q: int, v: Sequence) -> FracVec:
    """``rows v / q`` as exact Fractions."""
    if len(v) != len(rows):
        raise DimensionMismatch("vector length differs from matrix dimension")
    x = tuple(b if type(b) in (int, Fraction) else _exact_fraction(b) for b in v)
    return tuple(Fraction(sum(a * b for a, b in zip(row, x)), q) for row in rows)


def _absmax(X: np.ndarray) -> int:
    return int(np.abs(X).max()) if X.size else 0


def exact_dtype(bound: int):
    """The exact width for integers of magnitude at most ``bound``: int64
    below ``2^62``, else Python integers (``object``); the package's one rule."""
    return np.int64 if bound < _INT64_SAFE else object


def apply_rows(B: IntMat, X: np.ndarray, addend: int = 0) -> np.ndarray:
    """``B x`` for every row ``x`` of the integer array ``X``, exactly, in the
    :func:`exact_dtype` of ``max|B| max(max|X|, 1) d + addend`` (``addend`` reserves
    room for a later sum); ``max|B|`` and the int64 copy of ``B`` are cached on ``B``."""
    if exact_dtype(B._max_entry * max(_absmax(X), 1) * B.dim + addend) is np.int64:
        return X.astype(np.int64, copy=False) @ B._int64_T
    return X.astype(object) @ np.array(B.entries, dtype=object).T


def digit_index(D: np.ndarray, diag: Sequence[int]) -> np.ndarray:
    """Mixed-radix (C-order) value of the digits ``D mod diag`` of each row."""
    index = np.zeros(len(D), dtype=np.intp)
    for column, s in zip(D.T, diag):
        index = index * s + (column % s).astype(np.intp)
    return index


def _integer_row(k: Sequence) -> np.ndarray:
    """``k`` as a one-row ``dtype=object`` array of Python integers, by the
    rule of :func:`_exact_ints`."""
    return np.array([_exact_ints(k)], dtype=object)


def _integer_rows(K: np.ndarray, d: int, what: str) -> np.ndarray:
    """``K`` if it is an ``(n, d)`` integer array, int64 or Python ints, else
    ``DimensionMismatch`` (shape) or ``InexactInput`` (dtype) naming ``what``."""
    if K.ndim != 2 or K.shape[1] != d:
        raise DimensionMismatch(f"{what} must be (n, {d}) rows, not of shape {K.shape}")
    if K.dtype.kind not in "iO":
        raise InexactInput(f"{what} must be integers, not {K.dtype}")
    return K


def _reduce_box(M: IntMat, K: np.ndarray) -> np.ndarray:
    """Representatives in ``M [-1/2,1/2)^d`` of the rows of ``K`` modulo
    ``M Z^d``: ``K - M floor(M^{-1} K + 1/2)``.  With ``A = q M^{-1}`` from
    the Smith form of ``M``, ``floor((2 A k + q) / (2 q))`` equals
    ``floor((A k + floor(q/2)) / q)``, which is what is computed."""
    A, q = smith_normal_form(M).scaled_inverse
    F = (apply_rows(A, K, addend=q) + q // 2) // q
    return K - apply_rows(M, F, addend=_absmax(K))


class GeneratingSet(_Frozen):
    """Integer representatives of ``Z^d / M Z^d`` in canonical order.

    ``rep_array`` holds them as a read-only ``(m, d)`` integer array;
    ``reps`` gives them as tuples, built on first use.  For the Smith form
    ``M = U S V``, representative ``i`` has the Smith digits
    ``U^{-1} rep mod diag(S)`` of mixed-radix value ``i``.
    """

    def __init__(self, matrix: IntMat, rep_array: np.ndarray):
        self._set(matrix=matrix, rep_array=rep_array)

    def __len__(self) -> int:
        return len(self.rep_array)

    @cached_property
    def reps(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.rep_array.tolist()))

    def reduce(self, k: Sequence[int]) -> Vec:
        """Unique representative of ``k`` modulo ``M Z^d``; a non-integral
        entry raises ``InexactInput``."""
        if len(k) != self.matrix.dim:
            raise DimensionMismatch("vector length differs from matrix dimension")
        return tuple(_reduce_box(self.matrix, _integer_row(k))[0].tolist())

    def class_index(self, K: np.ndarray) -> np.ndarray:
        """Positions in ``reps`` of the classes of the rows of ``K``:
        :meth:`SmithDecomposition.class_index` of ``M``."""
        return smith_normal_form(self.matrix).class_index(K)

    def index_of(self, k: Sequence[int]) -> int:
        """Position of the class of ``k`` in ``reps``; a non-integral entry
        raises ``InexactInput``."""
        return int(self.class_index(_integer_row(k))[0])


class Pattern(_Frozen):
    """Rational representatives of ``M^{-1} Z^d / Z^d`` in the digit order
    of ``G(M^T)``: point ``i`` is ``numerators[i] / denominator``, with
    ``denominator = |det M|`` read from ``M`` by the constructor."""

    def __init__(self, matrix: IntMat, numerators: np.ndarray):
        self._set(matrix=matrix, numerators=numerators, denominator=matrix.absdet)

    def __len__(self) -> int:
        return len(self.numerators)

    @cached_property
    def points(self) -> tuple[FracVec, ...]:
        q = self.denominator
        return tuple(tuple(Fraction(n, q) for n in row) for row in self.numerators.tolist())

    def index_of(self, y: Sequence) -> int:
        """Position of the point congruent to ``y`` mod ``Z^d``; ``y`` must
        lie on ``M^{-1} Z^d`` (entries: ints, Fractions or finite floats)."""
        k = self.matrix.apply(tuple(map(_exact_fraction, y)))
        if any(v.denominator != 1 for v in k):
            raise IndexMismatch(f"point {tuple(y)} is not on the lattice of {self.matrix}")
        snf = smith_normal_form(self.matrix.T)
        return int(digit_index(apply_rows(snf.V_inv.T, _integer_row(k)),
                               snf.diagonal)[0])

    def reduce(self, y: Sequence) -> FracVec:
        """The point of the pattern congruent to ``y`` mod ``Z^d``, built
        from its one row of numerators."""
        row = self.numerators[self.index_of(y)].tolist()
        return tuple(Fraction(n, self.denominator) for n in row)


def lattice_points(H: Sequence[Sequence[int]], X: np.ndarray, lo: Sequence[int],
                   hi: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The row positions and the points ``x + H w`` (``w`` in ``Z^d``) in the
    closed box ``[lo, hi]``, ``lo <= hi``, of the rows ``x`` of ``X``, by row,
    then in lexicographic order; ``H`` (rows of ints) lower triangular with
    ``H_jj > 0``.  Step ``j`` repeats each partial point ``p`` once per ``w_j``
    in ``ceil((lo_j - p_j) / H_jj) .. floor((hi_j - p_j) / H_jj)``; with these
    counts clipped (no cast or sum wraps), a step of over ``ENUMERATION_GUARD``
    points raises ``TooLarge`` before it allocates them."""
    box = max(map(abs, [*lo, *hi])) + 1
    bound = _absmax(X)  # on |partial point|, as |w_j| <= (bound + box) / H_jj + 1
    for j, column in enumerate(zip(*H)):
        bound += max(map(abs, column)) * ((bound + box) // column[j] + 1)
    dtype = exact_dtype(bound + box)
    P, index = X.astype(dtype, copy=False), np.arange(len(X))
    for j, column in enumerate(zip(*H)):
        h, p = column[j], P[:, j]
        first = (p - lo[j]) // h  # minus the least w_j
        count = np.minimum((hi[j] + h - p) // h + first, ENUMERATION_GUARD + 1).astype(np.intp)
        if (total := int(count.sum())) > ENUMERATION_GUARD:
            raise TooLarge(f"refusing to enumerate more than {ENUMERATION_GUARD} lattice points")
        w = np.arange(total) - np.repeat(np.cumsum(count) - count + first, count)
        P, index = np.repeat(P, count, axis=0), np.repeat(index, count)
        P[:, j:] += w[:, None] * np.array(column[j:], dtype=dtype)
    return index, P


def _image_bound(B: Sequence[Sequence[int]], x: Sequence) -> list:
    """Per row ``j``, ``sum_k |B[j][k]| x_k``: a bound on ``|(B y)_j|``, and on
    every partial sum of its terms, for every ``y`` with ``|y_k| <= x_k``
    (``x`` of ints or Fractions)."""
    return [sum(abs(b) * v for b, v in zip(row, x)) for row in B]


def _row_dtype(bound: int):
    """The narrowest exact width for integers of magnitude at most ``bound``:
    int32 below ``2^31``, else :func:`exact_dtype`."""
    return np.int32 if bound < _INT32_SAFE else exact_dtype(bound)


def _grid_rows(B: Sequence[Sequence[int]], diag: Vec, addend: int, dtype) -> np.ndarray:
    """The ``(len(B), m)`` array, ``m = prod(diag)``, whose row ``j`` is
    ``sum_k B[j][k] c_k + addend`` over the digit vectors ``c`` of ``diag`` in
    C order, each row contiguous: the short terms of the leading axes with
    ``s_k > 1`` (a suffix of the Smith diagonal) are summed by broadcasting,
    and the last axis's term is added to them in one pass.  ``dtype``, int32,
    int64 or ``object`` (:func:`_row_dtype`), must hold ``|addend|`` plus
    :func:`_image_bound` of ``B`` over the digit ranges ``s_k - 1``, which
    bounds every coefficient read, product and partial sum, so a fixed-width
    row never wraps; the coefficients of the axes with ``s_k = 1`` are not
    read, as nothing bounds them."""
    axes = [k for k, s in enumerate(diag) if s > 1]
    if not axes:
        return np.full((len(B), 1), addend, dtype)
    shape = [diag[k] for k in axes]
    n = len(shape)
    coefs = np.array([[row[k] for row in B] for k in axes], dtype).reshape(n, len(B), *[1] * n)
    last = coefs[-1] * np.arange(shape[-1], dtype=dtype)
    if n == 1:
        last += addend
        return last
    partial = sum((coefs[i] * np.arange(s, dtype=dtype).reshape([-1] + [1] * (n - 1 - i))
                   for i, s in enumerate(shape[:-1])), addend)
    return np.add(partial, last).reshape(len(B), -1)


def _add_multiple(out: np.ndarray, b: int, row: np.ndarray, scratch: np.ndarray) -> None:
    """``out += b * row`` in place, with the product in ``scratch`` unless
    ``b`` is 0 or +-1."""
    if b == 1:
        out += row
    elif b == -1:
        out -= row
    elif b:
        np.multiply(row, b, out=scratch)
        out += scratch


def _stored(rows: np.ndarray, addend: int = 0) -> np.ndarray:
    """The ``(d, m)`` rows minus ``addend`` as the read-only, C-contiguous
    ``(m, d)`` array of a set, written one coordinate at a time: int64 after
    an int32 or int64 computation, ``object`` on the Python-int path."""
    out = np.empty(rows.shape[::-1], object if rows.dtype == object else np.int64)
    for j, row in enumerate(rows):
        if addend:
            np.subtract(row, addend, out=out[:, j])
        else:
            out[:, j] = row
    out.flags.writeable = False
    return out


def class_representatives(M: IntMat) -> np.ndarray:
    """Unreduced representatives of ``Z^d / M Z^d`` in the canonical order:
    the read-only ``(m, d)`` array of ``U c`` over the digit vectors ``c`` of
    ``M = U S V``, whose digits ``U^{-1} U c = c`` are those of its position.
    Where a value is ``M Z^d`` periodic any representative serves, so this
    is ``G(M)`` without its reduction into the box and its order check:
    :func:`_grid_rows` of ``U`` alone, in the width of :func:`_image_bound`
    over the digit ranges."""
    m = M.require_regular().absdet
    if m > ENUMERATION_GUARD:
        raise TooLarge(f"refusing to enumerate {m} > {ENUMERATION_GUARD} lattice points")
    snf = smith_normal_form(M)
    U, diag = snf.U.entries, snf.diagonal
    return _stored(_grid_rows(U, diag, 0, _row_dtype(max(_image_bound(U, [s - 1 for s in diag])))))


@lru_cache(maxsize=None)
def generating_set(M: IntMat) -> GeneratingSet:
    """Canonically ordered generating set ``G(M)`` (reps of ``Z^d / M Z^d``):
    per digit vector ``c`` of ``M = U S V``, ``q = |det M|``,
    ``R = U c - M F`` with ``F = floor((V^{-1} diag(q/s_k) c + floor(q/2)) / q)``.

    Each coordinate is one contiguous row.  The rows of ``F`` and of ``U c``
    come from :func:`_grid_rows`; ``F`` is floor-divided in place, and
    ``R_i -= M_ij F_j`` accumulates into ``U c`` through one scratch row.
    Every point must carry the Smith digits of its position:
    ``E = (U^{-1} R)_j - c_j`` satisfies ``E // s_j * s_j == E``, computed in
    a row of ``F`` (no longer needed) and the scratch row.

    The width is the narrowest of int32, int64 and Python ints
    (:func:`_row_dtype`) that holds one bound on every entry computed: on
    the rows of ``F`` before the division, :func:`_image_bound` over the
    digit ranges plus ``floor(q/2)``; on every product and partial sum of
    ``R``, ``|U c|`` plus ``|M|`` times the bound on ``|F|``; for the check,
    ``|U^{-1}|`` times that bound plus ``2 q``, as ``|E // s_j * s_j| < |E| + s_j``.
    The stored ``(m, d)`` array is int64, or ``object`` on the Python-int path."""
    m = M.require_regular().absdet
    if m > ENUMERATION_GUARD:
        raise TooLarge(f"refusing to enumerate {m} > {ENUMERATION_GUARD} lattice points")
    snf = smith_normal_form(M)
    diag, d, h = snf.diagonal, M.dim, m // 2
    A = [[v * (m // s) for v, s in zip(row, diag)] for row in snf.V_inv.entries]
    top = [s - 1 for s in diag]
    bound_A = max(_image_bound(A, top)) + h
    bound_F = bound_A // m + 1
    bound_R = max(_image_bound(snf.U.entries, top)) + max(_image_bound(M.entries, [bound_F] * d))
    dtype = _row_dtype(max(bound_A, max(_image_bound(snf.U_inv.entries, [bound_R] * d)) + 2 * m))
    F = _grid_rows(A, diag, h, dtype)
    F //= m
    R = _grid_rows(snf.U.entries, diag, 0, dtype)
    scratch = np.empty(m, dtype)
    for r, row in zip(R, M.entries):
        for b, f in zip(row, F):
            _add_multiple(r, -b, f, scratch)
    shape = [s for s in diag if s > 1]
    E = F[0]
    for j, (row, s) in enumerate(zip(snf.U_inv.entries, diag)):
        if s > 1:
            (b0, r0), *terms = [(b, r) for b, r in zip(row, R) if b]
            np.multiply(r0, b0, out=E)
            for b, r in terms:
                _add_multiple(E, b, r, scratch)
            axis = j - (d - len(shape))  # the axes with s > 1 are a suffix
            grid = E.reshape(shape)
            grid -= np.arange(s, dtype=dtype).reshape([-1] + [1] * (len(shape) - 1 - axis))
            np.floor_divide(E, s, out=scratch)
            scratch *= s
            if (scratch != E).any():
                raise ConditionViolated(f"representatives of {M} leave the canonical class order")
    return GeneratingSet(matrix=M, rep_array=_stored(R))


@lru_cache(maxsize=None)
def pattern(M: IntMat) -> Pattern:
    """Pattern ``P(M)`` in the digit order of ``G(M^T)``, ``M^T = U' S V'``: over
    ``q = |det M|``, the numerators ``n = U'^{-T} diag(q/s_k) c`` of each digit
    vector ``c``, centred into ``[-q/2, q/2)`` as ``n - q floor((n + floor(q/2)) / q)``.

    The rows ``N = n + floor(q/2)`` come from :func:`_grid_rows`, ``N -= q (N // q)``
    runs in place, and ``N - floor(q/2)`` is written into the stored ``(q, d)``
    array, int64 or ``object`` on the Python-int path.  The width is the
    narrowest of int32, int64 and Python ints (:func:`_row_dtype`) that holds
    :func:`_image_bound` of ``n`` plus ``2 q``, a bound on ``N`` and on
    ``q (N // q)``."""
    q = M.require_regular().absdet
    if q > ENUMERATION_GUARD:
        raise TooLarge(f"refusing to enumerate {q} > {ENUMERATION_GUARD} lattice points")
    snf = smith_normal_form(M.T)
    diag, h = snf.diagonal, q // 2
    B = [[v * (q // s) for v, s in zip(col, diag)] for col in zip(*snf.U_inv.entries)]
    N = _grid_rows(B, diag, h, _row_dtype(max(_image_bound(B, [s - 1 for s in diag])) + 2 * q))
    wraps = N // q
    wraps *= q
    N -= wraps
    return Pattern(matrix=M, numerators=_stored(N, h))


def _in_range(value, lo: int, hi: float = float("inf")) -> bool:
    """Whether ``value`` is an integer (``operator.index`` takes it), not a bool, in ``lo..hi``."""
    try:
        return not isinstance(value, bool) and lo <= operator.index(value) <= hi
    except TypeError:
        return False


def _check_level(level: int, top: int) -> None:
    """Raise ``LevelOutOfRange`` unless ``level`` is an integer in ``0..top``."""
    if not _in_range(level, 0, top):
        raise LevelOutOfRange(f"level {level!r} outside 0..{top}")


class ChainSpec(_Value):
    """The dilation chain ``M_l = J_l ... J_1 M_0`` of ``M0`` and ``factors``,
    which alone define it, compare and hash.  ``M0`` and each factor must be
    regular, a factor of the same dimension with ``|det| > 1``.  Derived:
    ``products[l] = M_l`` and ``sizes[l] = |det M_l|``, ``l = 0..n``, read
    through :meth:`matrix` and :meth:`size` (``LevelOutOfRange`` for any
    other ``l``), and ``dyadic``, set when every factor has ``|det| = 2``.
    """

    _fields = ("M0", "factors")

    def __init__(self, M0: IntMat, factors: Sequence[IntMat] = ()):
        M0.require_regular()
        factors = tuple(factors)
        products = [M0]
        for J in factors:
            if J.dim != M0.dim:
                raise DimensionMismatch("factor dimension differs from M0")
            if J.require_regular().absdet <= 1:
                raise SingularMatrix(f"factor {J} must have |det| > 1")
            products.append(J @ products[-1])
        self._set(M0=M0, factors=factors, products=tuple(products),
                  sizes=tuple(P.absdet for P in products),
                  dyadic=all(J.absdet == 2 for J in factors), _hash=hash((M0, factors)))

    @property
    def n_levels(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return self.M0.dim

    def matrix(self, level: int) -> IntMat:
        _check_level(level, self.n_levels)
        return self.products[level]

    def size(self, level: int) -> int:
        _check_level(level, self.n_levels)
        return self.sizes[level]

    def subchain(self, n: int) -> "ChainSpec":
        """Chain truncated to the first ``n`` factors, ``n`` in ``0..n_levels``."""
        _check_level(n, self.n_levels)
        return ChainSpec(self.M0, self.factors[:n])


def chain(M0: IntMat, factors: Sequence[IntMat] = ()) -> ChainSpec:
    """The dilation chain ``M_l = J_l ... J_1 M_0``: ``ChainSpec(M0, factors)``."""
    return ChainSpec(M0, factors)


# The three determinant-2 matrices of the plane: quincunx rotation and the
# two axis doublings.
J_D = IntMat.from_rows([[1, -1], [1, 1]])
J_X = IntMat.from_rows([[2, 0], [0, 1]])
J_Y = IntMat.from_rows([[1, 0], [0, 2]])


def axis_doubling(d: int, i: int) -> IntMat:
    """d-dimensional factor scaling axis ``i`` by 2."""
    if not _in_range(i, 0, d - 1):
        raise InvalidParameter(f"axis {i!r} outside 0..{d - 1}")
    rows = IntMat.identity(d).to_lists()
    rows[i][i] = 2
    return IntMat.from_rows(rows)


def plane_rotation(d: int, i: int, j: int) -> IntMat:
    """d-dimensional factor rotating the (i,j) plane by pi/4 with sqrt(2) scale."""
    if not (_in_range(i, 0, d - 1) and _in_range(j, 0, d - 1)):
        raise InvalidParameter(f"plane axes {i!r}, {j!r} outside 0..{d - 1}")
    if i == j:
        raise InvalidParameter("plane axes must differ")
    rows = IntMat.identity(d).to_lists()
    rows[i][i] = 1
    rows[i][j] = -1
    rows[j][i] = 1
    rows[j][j] = 1
    return IntMat.from_rows(rows)
