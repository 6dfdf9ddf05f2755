"""Admissible window functions.

An admissible function is nonnegative, strictly positive on the half-open
unit cube ``Q_d = [-1/2, 1/2)^d``, and its integer translates sum to one.
Sampling such a window (and products built from it) yields the Fourier
coefficients of all scaling functions and wavelets in this package.

Two tensor-product families are implemented, per axis:

* ``characteristic`` -- the half-open indicator of ``[-1/2, 1/2)``; exact
  0/1 values, reproducing the Dirichlet kernels.
* ``tensor_smoothed`` -- the indicator of ``[-1/2, 1/2]`` convolved with
  an r-fold self-convolution of a unit-mass box of halfwidth ``p/r``
  (a centered B-spline kernel supported on ``[-p, p]``); ``r - 1``
  continuous derivatives.  ``p`` lies in ``[0, 1/2]``; the ramps meet at
  ``p = 1/2``, which only order 1 admits: the de la Vallee Poussin linear
  ramp (:meth:`AdmissibleFn.tensor_linear`), Fejer's window at ``p = 1/2``.
  ``p = 0`` is the modified Dirichlet limit, 1/2 at ``|t| = 1/2``.

All parameters are exact rationals.  Windows and their periodizations
``g^J(x) = sum_z g(x + J^T z)`` are evaluated on two paths:

* the scalar oracle -- ``g(x)`` and :func:`periodized_sum` at one point,
  exact on Fraction or int input (float input is converted exactly with
  ``Fraction(v)``; NaN and infinities raise ``InexactInput``); the tests
  and the direct profiles of ``dlvp`` use it;
* the exact batched path -- :meth:`AdmissibleFn.eval_exact` and
  :func:`periodized_sum_exact` at the rows of ``N / q`` for an ``(n, d)``
  integer array ``N`` and an integer ``q >= 1`` (another ``q`` raises
  ``InvalidParameter``), as integer numerators over one denominator that
  depends on ``q`` only; every spectrum and every identity check is built
  from it, so half-open support boundaries, zero tests and equalities are
  decided exactly.  Per axis, with ``alpha = p / s``, the numerators are
  ``[-q <= 2 N < q]`` over 1 (characteristic), ``2, 1, 0`` for ``2 |N|``
  below, at or above ``q`` over 2 (``alpha = 0``), and the one-sided B-spline
  sum ``sum_j (-1)^j C(r, j) max(r s (q - 2 |N|) + 2 (r - 2 j) p q, 0)^r`` over
  ``r! (4 p q)^r`` (smoothed); the axes multiply.  Every array takes the
  width that :func:`vpwave.intlat.exact_dtype` gives a bound on its entries.

Both paths sum ``g`` only at the points ``x + J^T z`` in its support box
``[-hw, hw]``: over the common denominator ``q`` of the point (oracle) or
the rows (batched), :func:`vpwave.intlat.lattice_points` walks them on
``q`` times the Hermite basis of ``J^T``.  The oracle evaluates ``g`` on
Fractions; the batched path evaluates each block of rows in one call.

A window keeps its ramps once more as the integer pairs ``(p, s)``, so
the batched path runs on integers alone: the support reach
``floor(hw q)`` is ``(s + 2 p) q // (2 s)`` per axis, and the denominator
for ``q`` is the product of one per-axis formula (1, 2 or
``r! (4 p q)^r``, as above), which the axis numerators and
:func:`periodized_sum_exact` read as well, without evaluating anything.

:func:`exact_floats` turns exact numerators into float64, each correctly
rounded, as ``float(Fraction(n, q))`` is; :func:`exact_gap` gives the
largest difference of two such arrays, decided exactly, rounded once;
:func:`lowest_terms` divides numerators and denominator by their gcd.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import intlat
from .errors import DimensionMismatch, InvalidParameter, MalformedDescriptor
from .intlat import (IntMat, _absmax, _exact_fraction, _in_range, _integer_row, _integer_rows,
                     _Value, exact_dtype, lattice_points)

HALF = Fraction(1, 2)

KIND_CHARACTERISTIC = "characteristic"
KIND_SMOOTHED = "tensor_smoothed"

# Largest smoothing order: a report's cost grows faster than r^2; build_report on
# diag(8, 8) with J_D, J_X, J_D, J_Y and p = 1/10 takes 2.1 s at order 100 (x86-64).
MAX_ORDER = 100


def _whole(value, least: int, what: str) -> int:
    """``value`` as an ``int`` if an integer (no bool) >= ``least``, else ``InvalidParameter``."""
    if not _in_range(value, least):
        raise InvalidParameter(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _halfwidths(values) -> tuple[Fraction, ...]:
    """Per-axis halfwidths as exact Fractions; a scalar raises ``InvalidParameter``."""
    if not isinstance(values, Iterable):
        raise InvalidParameter(f"window halfwidths must be a sequence, got {values!r}")
    return tuple(map(_exact_fraction, values))


class AdmissibleFn(_Value):
    """Tensor-product admissible window on R^d: ``alpha`` holds the per-axis
    ramp halfwidths (0 for the characteristic window), and ``_ramps`` the
    same as integer pairs ``(p, s)`` with ``alpha = p / s`` in lowest terms.
    The one check of the parameters: another kind, a ``dim`` that is not an
    integer >= 1, a halfwidth outside ``[0, 1/2]``, 1/2 above order 1 or
    nonzero for the characteristic kind, and an order that is not an integer
    in ``[1, MAX_ORDER]``, or not 1 for the characteristic kind, raise
    ``InvalidParameter``, ``len(alpha) != dim`` ``DimensionMismatch``.
    Equality compares every field; the hash is cached on the instance."""

    _fields = ("kind", "dim", "alpha", "order")

    def __init__(self, kind: str, dim: int, alpha: tuple[Fraction, ...], order: int = 1):
        if kind not in (KIND_CHARACTERISTIC, KIND_SMOOTHED):
            raise InvalidParameter(f"unknown window kind {kind!r}")
        if not (isinstance(order, numbers.Real) and 1 <= order <= MAX_ORDER and order % 1 == 0):
            raise InvalidParameter(f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
        dim, alpha, order = _whole(dim, 1, "dim"), _halfwidths(alpha), int(order)
        if len(alpha) != dim:
            raise DimensionMismatch(f"{len(alpha)} halfwidths for a {dim}-D window")
        # _axis_exact needs ramps that do not overlap; at 1/2 they meet (Fejer)
        if any(a < 0 or a > HALF or a == HALF and order > 1 for a in alpha):
            raise InvalidParameter("halfwidths must lie in [0, 1/2], below 1/2 above order 1")
        if kind == KIND_CHARACTERISTIC and any(alpha):
            raise InvalidParameter("a characteristic window has halfwidths 0")
        if kind == KIND_CHARACTERISTIC and order != 1:
            raise InvalidParameter("a characteristic window has order 1")
        self._set(kind=kind, dim=dim, alpha=alpha, order=order,
                  _ramps=tuple((a.numerator, a.denominator) for a in alpha),
                  _hash=hash((kind, dim, alpha, order)))

    def __reduce__(self):
        # rebuilt through __init__: a str hashes differently in each process,
        # so the stored hash must not travel with a pickle
        return AdmissibleFn, (self.kind, self.dim, self.alpha, self.order)

    @classmethod
    def characteristic(cls, dim: int) -> "AdmissibleFn":
        return cls(kind=KIND_CHARACTERISTIC, dim=dim, alpha=(Fraction(0),) * _whole(dim, 1, "dim"))

    @classmethod
    def tensor_linear(cls, alpha: Sequence) -> "AdmissibleFn":
        """The linear ramp ``tensor_smoothed(alpha, order=1)``, with ``alpha`` in ``[0, 1/2]``."""
        return cls.tensor_smoothed(alpha, order=1)

    @classmethod
    def tensor_smoothed(cls, p: Sequence, order: int = 2) -> "AdmissibleFn":
        """Per-axis halfwidths ``p`` in ``[0, 1/2]``, and 1/2 only at order 1."""
        a = _halfwidths(p)
        return cls(kind=KIND_SMOOTHED, dim=len(a), alpha=a, order=order)

    # -- support geometry ------------------------------------------------

    @property
    def support_halfwidths(self) -> tuple[Fraction, ...]:
        """Per-axis halfwidth of the closed support box."""
        return tuple(HALF + a for a in self.alpha)

    def breakpoints_1d(self, axis: int) -> tuple[Fraction, ...]:
        """Knots of the per-axis piecewise-polynomial structure."""
        a = self.alpha[axis]
        if a == 0:
            return (-HALF, HALF)
        r = self.order
        step = 2 * a / r
        knots = {s * HALF + (Fraction(j) - Fraction(r, 2)) * step
                 for s in (-1, 1) for j in range(r + 1)}
        return tuple(sorted(knots))

    # -- evaluation --------------------------------------------------------

    def eval_axis(self, axis: int, t):
        """One axis factor; exact on Fraction input."""
        a = self.alpha[axis]
        if self.kind == KIND_CHARACTERISTIC:
            return 1 if -HALF <= t < HALF else 0
        if a == 0:  # the modified Dirichlet limit
            at = abs(t)
            return 1 if at < HALF else HALF if at == HALF else 0
        return _smoothed_axis(a, self.order, t)

    def __call__(self, x: Sequence):
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension differs from window dimension")
        out = 1
        for i, t in enumerate(x):
            f = self.eval_axis(i, t)
            if f == 0:
                return 0
            out = out * f
        return out

    def eval_exact(self, N: np.ndarray, q: int) -> tuple[np.ndarray, int]:
        """Exact values at the rows of ``N / q`` for an ``(n, d)`` integer
        array ``N`` and an integer ``q >= 1`` (else ``InvalidParameter``): the
        numerators, and their common denominator, which depends on ``q`` only."""
        N = _integer_rows(N, self.dim, "numerators")
        q = _whole(q, 1, "the denominator q")
        den = self._denominator(q)
        # every factor is at most 1, so |num| <= den
        num = np.ones(len(N), dtype=exact_dtype(den))
        for axis, n in enumerate(N.T):
            num = num * self._axis_exact(axis, n, q)
        return num, den

    def _denominator(self, q: int) -> int:
        """The denominator of :meth:`eval_exact` for ``q``: the product of
        the per-axis ones."""
        return math.prod(self._axis_denominator(axis, q) for axis in range(self.dim))

    def _axis_denominator(self, axis: int, q: int) -> int:
        """The denominator of one axis factor at the points ``n / q``."""
        p, r = self._ramps[axis][0], self.order
        if self.kind == KIND_CHARACTERISTIC:
            return 1
        if p == 0:
            return 2
        return math.factorial(r) * (4 * p * q) ** r

    def support_reach(self, q: int) -> list[int]:
        """Per axis ``floor(hw q)``: an integer ``n`` has ``n / q`` inside
        ``[-hw, hw]`` exactly when ``|n| <= floor(hw q)``; with
        ``hw = 1/2 + p/s`` that is ``(s + 2 p) q // (2 s)``."""
        return [(s + 2 * p) * q // (2 * s) for p, s in self._ramps]

    def _axis_exact(self, axis: int, n: np.ndarray, q: int) -> np.ndarray:
        """One axis factor at ``n / q``: the numerators over
        :meth:`_axis_denominator`.  A smoothed window is even with ramps that do not
        overlap (``p / s <= 1/2``): ``F(r s (1/2 - |t|) / (2 p))``, ``F`` the B-spline CDF."""
        (p, s), r = self._ramps[axis], self.order
        # bounds 2|n| + q and each term of the B-spline sum
        bound = r * s * (2 * _absmax(n) + q) + 2 * r * p * q
        if n.dtype != object:  # only ever cast up
            n = n.astype(exact_dtype(2 ** (r + 1) * bound ** r), copy=False)
        if self.kind == KIND_CHARACTERISTIC:
            return ((-q <= 2 * n) & (2 * n < q)).astype(np.int64)
        if p == 0:
            twice = 2 * np.abs(n)
            return (twice < q).astype(np.int64) + (twice <= q)
        w = 2 * r * s * np.abs(n)
        for j in range(r + 1):
            base = (r * s + 2 * (r - 2 * j) * p) * q - w
            np.maximum(base, 0, out=base)
            # base ** r by square-and-multiply: numpy's int64 power is slow even at r = 1
            t = base
            for bit in bin(r)[3:]:
                t = t * t * base if bit == "1" else t * t
            if 0 < j < r:
                t *= math.comb(r, j)
            acc = t if j == 0 else acc - t if j % 2 else acc + t
        return acc


def _smoothed_axis(p: Fraction, r: int, t):
    """chi_[-1/2,1/2] convolved with the B-spline kernel on [-p, p]."""
    s = Fraction(r) / (2 * p)
    return _bspline_cdf_scalar(s * (t + HALF), r) - _bspline_cdf_scalar(s * (t - HALF), r)


def _bspline_cdf_scalar(y, r: int):
    """Integral of the centered cardinal B-spline of order r up to y."""
    half_r = Fraction(r, 2)
    if y <= -half_r:
        return 0
    if y >= half_r:
        return 1
    acc = 0
    sign = 1
    for j in range(r + 1):
        u = y + half_r - j
        if u > 0:
            acc = acc + sign * math.comb(r, j) * u ** r
        sign = -sign
    return acc / math.factorial(r)


# -- periodization ----------------------------------------------------------


def periodized_sum(g: AdmissibleFn, J: IntMat, x: Sequence):
    """``sum_z g(x + J^T z)`` over the points in the support box, exact; float
    input is converted with ``Fraction(v)``."""
    xv = tuple(map(_exact_fraction, x))
    if not len(xv) == g.dim == J.dim:
        raise DimensionMismatch("point, window and factor dimensions differ")
    q = math.lcm(*(v.denominator for v in xv))
    reach = g.support_reach(q)
    H = [[q * v for v in row] for row in J.T.hermite.entries]
    _, Y = lattice_points(H, _integer_row([v * q for v in xv]), [-r for r in reach], reach)
    return sum((g(tuple(Fraction(v, q) for v in y)) for y in Y.tolist()), 0)


def periodized_sum_exact(g: AdmissibleFn, J: IntMat, N: np.ndarray,
                         q: int) -> tuple[np.ndarray, int]:
    """Exact ``sum_z g(N_i / q + J^T z)`` for every row ``N_i`` of an
    ``(n, d)`` integer array, as numerators over one denominator (that of
    :meth:`AdmissibleFn.eval_exact` for ``q``), from the points
    ``N_i + q J^T z`` with ``|Y| <= floor(hw q)``.  A walk step holds at most
    ``prod_j (2 floor(hw_j q) // (q H_jj) + 1)`` points per row, so each block
    of rows, one at least, holds at most ``ENUMERATION_GUARD`` by that bound."""
    N = _integer_rows(N, g.dim, "numerators")
    if J.dim != g.dim:
        raise DimensionMismatch("factor and window dimensions differ")
    q = _whole(q, 1, "the denominator q")
    den = g._denominator(q)
    # partition of unity: the sum is at most 1, so |total| <= den
    total = np.zeros(len(N), dtype=exact_dtype(den))
    reach = g.support_reach(q)
    H = [[q * v for v in row] for row in J.T.hermite.entries]
    per_row = math.prod(2 * r // H[j][j] + 1 for j, r in enumerate(reach))
    block = max(1, intlat.ENUMERATION_GUARD // per_row)
    for start in range(0, len(N), block):
        i, Y = lattice_points(H, N[start:start + block], [-r for r in reach], reach)
        np.add.at(total, start + i, g.eval_exact(Y, q)[0].astype(total.dtype, copy=False))
    return total, den


def exact_floats(num: np.ndarray, den: int) -> np.ndarray:
    """``num / den`` as float64, each entry correctly rounded (as
    ``float(Fraction(n, den))``): one float division when both sides are
    exact floats (at most ``2^53``), Python-int division otherwise."""
    if den <= 2 ** 53 and _absmax(num) <= 2 ** 53:
        return num.astype(np.float64) / den
    return np.array([n / den for n in num.tolist()], dtype=np.float64)


def exact_product(x: np.ndarray, x_den: int, y: np.ndarray, y_den: int) -> tuple[np.ndarray, int]:
    """Exact product of two arrays of values in ``[0, 1]``, numerators over
    ``x_den * y_den``, in the :func:`~vpwave.intlat.exact_dtype` of that bound on them."""
    den = x_den * y_den
    return x.astype(exact_dtype(den), copy=False) * y, den


def lowest_terms(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """The same values in ``[0, 1]`` with the numerators and the denominator
    divided by their greatest common divisor, the numerators in the
    :func:`~vpwave.intlat.exact_dtype` of the new denominator; an empty
    array comes back over 1."""
    f = math.gcd(int(np.gcd.reduce(num)), den)
    if f > 1:
        num, den = num // f, den // f
    return num.astype(exact_dtype(den), copy=False), den


def exact_gap(x: np.ndarray, x_den: int, y: np.ndarray, y_den: int) -> float:
    """``max |x / x_den - y / y_den|`` over two arrays of values in ``[0, 1]``,
    decided on the numerators over ``lcm(x_den, y_den)``, in the
    :func:`~vpwave.intlat.exact_dtype` of that bound, and returned correctly rounded."""
    den = math.lcm(x_den, y_den)
    x, y = x.astype(exact_dtype(den), copy=False), y.astype(exact_dtype(den), copy=False)
    return int(np.max(np.abs(x * (den // x_den) - y * (den // y_den)), initial=0)) / den


def check_partition_of_unity(g: AdmissibleFn, n_samples: int = 10_000,
                             seed: int = 0) -> float:
    """Max deviation of ``sum_z g(x + z)`` from 1 at ``n_samples >= 0`` random
    points of ``[-1, 1]^d`` on the grid ``2^-20 Z^d``, decided exactly and returned
    correctly rounded: 0.0 exactly when the identity holds at every point."""
    n_samples = _whole(n_samples, 0, "n_samples")
    q = 2 ** 20
    N = np.random.default_rng(seed).integers(-q, q, size=(n_samples, g.dim), endpoint=True)
    total, den = periodized_sum_exact(g, IntMat.identity(g.dim), N, q)
    return int(np.max(np.abs(total - den), initial=0)) / den


# -- config grammar ----------------------------------------------------------

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$", re.S)
# keywords each descriptor takes; tensor_linear builds an order-1 tensor_smoothed window
_KEYWORDS = {KIND_CHARACTERISTIC: (), "tensor_linear": ("alpha",), KIND_SMOOTHED: ("p", "order")}


def parse_admissible(text: str, dim: int) -> AdmissibleFn:
    """Parse a window descriptor like ``tensor_linear(alpha = [1/10, 1/10])``.

    Scalars are broadcast across axes; rationals may be written as
    fractions (``1/10``) or decimal strings (``0.1``), both exact.  An
    unknown kind, a keyword the kind does not take (or given twice) and a
    malformed value, such as a list with unbalanced brackets, raise
    ``MalformedDescriptor`` (a ``ValueError``).
    """
    m = _CALL_RE.match(text)
    if not m:
        raise MalformedDescriptor(f"cannot parse window descriptor {text!r}")
    kind, argtext = m.group(1), m.group(2) or ""
    if kind not in _KEYWORDS:
        raise MalformedDescriptor(f"unknown window kind {kind!r}")
    args = {}
    if argtext:
        for part in _split_args(argtext):
            key, eq, val = (v.strip() for v in part.partition("="))
            if not eq or key not in _KEYWORDS[kind] or key in args:
                raise MalformedDescriptor(f"bad argument {part.strip()!r} for {kind}")
            args[key] = val
    if kind == KIND_CHARACTERISTIC:
        return AdmissibleFn.characteristic(dim)
    if kind == "tensor_linear":
        return AdmissibleFn.tensor_linear(_rational_list(args.get("alpha", "0"), dim))
    return AdmissibleFn.tensor_smoothed(
        _rational_list(args.get("p", "0"), dim), order=_literal(int, args.get("order", "2")))


def _split_args(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _literal(cast, text: str):
    """``cast(text)``; a malformed literal raises ``MalformedDescriptor``."""
    try:
        return cast(text)
    except (ValueError, ZeroDivisionError):
        raise MalformedDescriptor(f"malformed number {text!r} in window descriptor") from None


def _rational_list(text: str, dim: int) -> list[Fraction]:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        items = [_literal(Fraction, tok.strip()) for tok in text[1:-1].split(",")]
    else:
        items = [_literal(Fraction, text)]
    if len(items) == 1:
        items = items * dim
    if len(items) != dim:
        raise MalformedDescriptor(f"expected {dim} per-axis values, got {len(items)}")
    return items
