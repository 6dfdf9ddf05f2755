"""Scaling functions and dyadic wavelets of de la Vallee Poussin type.

A dilation chain ``M_l = J_l ... J_1 M_0`` and an admissible window ``g``
define one trigonometric scaling function per level through its Fourier
coefficients, the samples of a window product ``P_l``:

    P_n = g,   P_l(x) = g^J(x) * P_{l+1}(J^{-T} x),   g^J(x) = sum_z g(x + J^T z),

    c_k(phi_l) = P_l(M_l^{-T} k) / sqrt(m_l),   k in Z^d,

with ``J`` the factor from level ``l`` to ``l + 1``.  Since
``J^{-T} M_l^{-T} k = M_{l+1}^{-T} k`` and ``g^J`` is ``J^T Z^d``
periodic, the value ``g^J(M_l^{-T} k)`` depends only on the class of
``k`` modulo ``M_{l+1}^T`` (the two-scale relation).  The spectra are
built from it:

* the top level samples ``g`` once, at ``M_n^{-T} k`` for every ``k``
  whose ``M_n^{-T} k`` lies in the support box ``[-hw, hw]`` (``hw`` the
  support halfwidths): the lattice points of ``M_n^{-T} Z^d`` in that box;
* each lower level multiplies the level above by ``g^J`` evaluated once
  per class of ``G(M_{l+1}^T)``, at one unreduced representative per class,
  ``U c`` for the Smith digit vectors ``c`` of ``M_{l+1}^T = U S V``
  (:func:`~vpwave.intlat.class_representatives`); no generating set is
  enumerated, and the class sums of every level are one exact batch
  per chain;
* for a dyadic factor (``|det J| = 2``) the wavelet, whose translates
  span the orthogonal complement between consecutive spaces, multiplies
  the level-``(l+1)`` samples by ``g^J`` shifted by ``J^T v`` and by one
  unit phase per class.

:func:`coarse_of_fine` maps each class of ``G(M_{l+1}^T)`` to its class in
``G(M_l^T)``; a dyadic factor makes each fiber of that map a pair, and the
shift by ``J^T v`` moves a class onto the other member, its :func:`fiber_partner`.

Frequency arguments ``M_l^{-T} k`` are integer numerators over
``q = |det M_l|``; windows are evaluated on them in exact batches, and
samples stay integer numerators over one denominator until each float is
one correctly rounded division, so half-open support boundaries (the
Dirichlet window) and zero tests are decided exactly.  Each level's
samples and each class-sum table are kept in lowest terms, which keeps
their products on int64 where the unreduced denominators would need
Python integers; no value, and so no rounded float, changes.  Every class
vector (two-scale values, phases, class powers, filters) is a plain array
indexed by ``G(M^T)`` in the canonical order of :mod:`vpwave.intlat`; the
filters of step ``l`` are complex arrays over ``G(M_{l+1}^T)``.  A
spectrum is a sorted key array with a value array; a class vector acts
on it by one gather over the class indices of its keys, which
:meth:`~vpwave.intlat.SmithDecomposition.class_index` reads from the
Smith form of ``M^T`` alone.  The exact samples carry these indices: the
top level computes them once, and each level down gathers them through
:func:`coarse_of_fine`.  Per-class sums are one ``np.bincount``.
:func:`scaling_profile` and :func:`wavelet_profile` evaluate the product
directly at one point, exactly (float input is converted with
``Fraction(v)``; NaN and infinities raise ``InexactInput``); they are the
reference the spectra are tested against.  A level outside the chain, or
not an integer, raises ``LevelOutOfRange``; a NumPy integer level is
cached as the Python int it equals.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from typing import Sequence

import numpy as np

from . import tol
from .admissible import (AdmissibleFn, exact_floats, exact_product, lowest_terms, periodized_sum,
                         periodized_sum_exact)
from .errors import DegenerateClass, DimensionMismatch, IndexMismatch, NotDyadic
from .intlat import (ChainSpec, IntMat, Vec, _absmax, _check_level, _exact_fraction,
                     _exact_ints, _Frozen, _in_range, apply_rows, class_representatives,
                     exact_dtype, generating_set, lattice_points, smith_normal_form)

DEGENERATE_REL = 1e-18


def _degenerate(powers: np.ndarray) -> bool:
    """Whether some frequency class carries no usable mass: its power is at
    most ``DEGENERATE_REL`` times the largest (also when every power is 0)."""
    return float(np.min(powers)) <= DEGENERATE_REL * float(np.max(powers))


def _lexicographic(K: np.ndarray) -> bool:
    """Whether the rows of ``K`` strictly increase in lexicographic order,
    decided for all pairs of neighbouring rows at once, from the last
    column to the first: a row follows its predecessor when it is larger
    in a column, or equal there and larger on the later columns."""
    a, b = K[:-1].T, K[1:].T
    ok = b[-1] > a[-1]
    for x, y in zip(a[-2::-1], b[-2::-1]):
        ok &= y >= x
        ok |= y > x
    return bool(ok.all())


class SparseSpectrum(_Frozen):
    """Finite map from integer frequencies to Fourier coefficients: the
    distinct ``keys`` as an ``(n, d)`` int64 array and the matching
    ``values``, sorted lexicographically by the constructor (keys already
    in that order, as the spectra of this module build them, are only
    copied) and read-only.  A non-integral key raises ``InexactInput``, a
    repeated one ``IndexMismatch``, and a key that is not a ``dim``-vector,
    here or in a lookup, or not one value per key ``DimensionMismatch``.
    A class vector ``a`` over ``G(M^T)`` acts by the gather
    ``a[smith_normal_form(M^T).class_index(keys)]``.  ``coeffs`` is a dict view
    ``{k: c}`` of the same data, built on first use."""

    def __init__(self, dim: int, keys: np.ndarray, values: np.ndarray):
        keys = np.asarray(keys)
        if keys.size and (keys.ndim != 2 or keys.shape[1] != dim):
            raise DimensionMismatch(f"spectrum keys of shape {keys.shape} are not {dim}-vectors")
        if keys.size and keys.dtype.kind not in "iu":
            keys = [_exact_ints(k) for k in keys.tolist()]
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, dim)
        values = np.asarray(values)
        if values.shape != (len(keys),):
            raise DimensionMismatch("a spectrum needs one coefficient per frequency")
        if _lexicographic(keys):
            keys, values = keys.copy(), values.copy()
        else:
            order = np.lexsort(keys.T[::-1])
            keys, values = keys[order], values[order]
            if not _lexicographic(keys):
                raise IndexMismatch("a spectrum key is given twice")
        keys.flags.writeable = values.flags.writeable = False
        self._set(dim=dim, keys=keys, values=values)

    @cached_property
    def coeffs(self) -> dict[Vec, complex]:
        return dict(zip(map(tuple, self.keys.tolist()), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k: Sequence[int]) -> complex:
        k = _exact_ints(k)
        if len(k) != self.dim:
            raise DimensionMismatch(f"a {len(k)}-vector is not a key of a {self.dim}-d spectrum")
        return self.coeffs.get(k, 0.0)


class ScalingFunction(_Frozen):
    """``samples`` is a read-only float array of the unscaled profile values
    ``P(M_l^{-T} k)`` on the rows of ``spectrum.keys`` (another length raises
    ``DimensionMismatch``), so ``spectrum.values == samples / sqrt(m_l)``; it
    is ``None`` when the coefficients are not plain profile samples (after
    :func:`orthonormalize`, or for a hand-built spectrum)."""

    def __init__(self, chain: ChainSpec, level: int, g: AdmissibleFn, spectrum: SparseSpectrum,
                 samples: np.ndarray | None = None):
        if samples is not None:
            if samples.shape != (len(spectrum),):
                raise DimensionMismatch("a scaling function needs one sample per frequency")
            samples.flags.writeable = False
        self._set(chain=chain, level=level, g=g, spectrum=spectrum, samples=samples)

    @property
    def matrix(self) -> IntMat:
        return self.chain.matrix(self.level)

    @property
    def size(self) -> int:
        return self.chain.size(self.level)

    @cached_property
    def powers(self) -> np.ndarray:
        """:func:`class_powers` of this function, computed on first use and
        kept read-only, so a cached spectrum is summed once."""
        powers = class_powers(self)
        powers.flags.writeable = False
        return powers


class Wavelet(ScalingFunction):
    """A level-``level`` wavelet; its ``samples`` are ``None``."""


class TwoScaleCoeffs(_Frozen):
    """Coefficients linking a level-l function to the level-(l+1) scaling
    basis: ``values`` is a read-only complex array over ``G(M_{l+1}^T)``.
    Raw vectors also keep ``samples``: the real periodization samples behind
    ``values``, which are ``sqrt(|det J|) * samples`` times unit phases."""

    def __init__(self, chain: ChainSpec, level: int, values: np.ndarray,
                 samples: np.ndarray | None = None):
        values.flags.writeable = False
        self._set(chain=chain, level=level, values=values, samples=samples)


def _require_dyadic_factor(J: IntMat) -> None:
    if J.absdet != 2:
        raise NotDyadic(f"factor {J} has |det| = {J.absdet}, need 2")


def periodized_product(g: AdmissibleFn, J: IntMat, f2, x: Sequence):
    """``[sum_z g(x + J^T z)] * f2(J^{-T} x)`` -- one refinement step."""
    first = periodized_sum(g, J, x)
    if first == 0:
        return 0
    return first * f2(J.inv_T_apply(x))


def scaling_profile(chain: ChainSpec, level: int, g: AdmissibleFn, x: Sequence):
    """The window product whose samples are the level-``level`` scaling
    coefficients; exact, float input is converted with ``Fraction(v)``."""
    _check_level(level, chain.n_levels)
    cur = tuple(map(_exact_fraction, x))
    val = 1
    for J in chain.factors[level:]:
        first = periodized_sum(g, J, cur)
        if first == 0:
            return 0
        val = val * first
        cur = J.inv_T_apply(cur)
    return val * g(cur)


def wavelet_shift_vectors(J: IntMat) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The unique nonzero points of ``P(J^T)`` and ``P(J)`` of a
    determinant-2 factor, reduced mod 1 into ``[0, 1)^d``.  For ``M = U S V``
    with ``S = diag(1, .., 1, 2)``, ``M^{-1} Z^d = V^{-1} S^{-1} Z^d``, so the
    point is the last column of ``V^{-1}``, halved, mod 1."""
    _require_dyadic_factor(J)
    return tuple(tuple(Fraction(row[-1], 2) % 1
                       for row in smith_normal_form(M).V_inv.entries)
                 for M in (J.T, J))


def wavelet_profile(chain: ChainSpec, level: int, g: AdmissibleFn, x: Sequence) -> complex:
    """Shifted and modulated window product sampled by the wavelet
    coefficients, evaluated directly at one point.  The window is
    translated by an integer representative of ``J^T v``, the nonzero class
    of ``G(J^T)``; any one serves, as ``g^J`` is ``J^T Z^d`` periodic (the
    pattern point ``v`` itself would pair wrong frequency classes and break
    orthogonality of the complement)."""
    _check_level(level, chain.n_levels - 1)
    J = chain.factors[level]
    _, w = wavelet_shift_vectors(J)
    gt = generating_set(J.T).rep_array[1].tolist()
    xv = tuple(map(_exact_fraction, x))
    first = periodized_sum(g, J, tuple(a - b for a, b in zip(xv, gt)))
    if first == 0:
        return 0j
    rest = scaling_profile(chain, level + 1, g, J.inv_T_apply(xv))
    if rest == 0:
        return 0j
    turns = sum(a * b for a, b in zip(xv, w))
    phase = cmath.exp(-2j * math.pi * float(turns - math.floor(turns)))
    return phase * float(first) * float(rest)


def _level_cache(fn):
    """``lru_cache(maxsize=None, typed=True)`` of ``fn(chain, level, ...)`` that
    keys an integer level other than a bool, a NumPy integer too, as the
    Python int, so it shares that int's entry; any other level is passed on
    as given, and keyed by its type, for :func:`_check_level` to reject
    (``1.0`` never hits the entry of ``1``).  ``__wrapped__``, ``cache_info``
    and ``cache_clear`` are those of the cache."""
    cached = lru_cache(maxsize=None, typed=True)(fn)

    @wraps(fn)
    def call(chain, level, *rest):
        if type(level) is not int and _in_range(level, 0):
            level = operator.index(level)
        return cached(chain, level, *rest)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_level_cache
def _class_points(chain: ChainSpec, level: int) -> tuple:
    """One unreduced representative ``h`` of each class of ``G(M_{l+1}^T)``,
    in its order (:func:`~vpwave.intlat.class_representatives`), and the
    numerators of ``M_l^{-T} h`` over ``q``: the rows :func:`coarse_of_fine`
    classifies and the points where :func:`_class_sums` and
    :func:`complement_phases` evaluate, whose values are class functions."""
    _check_level(level, chain.n_levels - 1)
    H = class_representatives(chain.matrix(level + 1).T)
    N, q = chain.matrix(level).inv_T_rows(H)
    N.flags.writeable = False
    return H, N, q


def _class_sums(chain: ChainSpec, level: int, g: AdmissibleFn) -> tuple:
    """Exact ``g^J(M_l^{-T} h)`` over the classes ``h`` of ``G(M_{l+1}^T)``, as
    read-only numerators and their denominator in lowest terms; the value of
    every frequency of the class.  The wavelet modulus ``g^J(M_l^{-T} h - J^T v)``
    is the value of the partner class, which ``M_l^T J^T v`` pairs with ``h``.
    The level is read from :func:`_chain_class_sums`, one exact batch per chain."""
    _check_level(level, chain.n_levels - 1)
    return _chain_class_sums(chain, g)[level]


@lru_cache(maxsize=None)
def _chain_class_sums(chain: ChainSpec, g: AdmissibleFn) -> tuple:
    """:func:`_class_sums` of every level, from one exact periodization of the
    points of every level's :func:`_class_points`."""
    points = [_class_points(chain, level) for level in range(chain.n_levels)]
    sums, den = periodized_sum_exact(g, [(J, N, q) for J, (_, N, q) in zip(chain.factors, points)])
    out = tuple(lowest_terms(num, den) for num in sums)
    for num, _ in out:
        num.flags.writeable = False
    return out


@_level_cache
def complement_phases(chain: ChainSpec, level: int) -> np.ndarray:
    """Unit phases ``exp(-2 pi i h . M_l^{-1} w)`` over ``G(M_{l+1}^T)``, read-only;
    they flip sign between the two classes a dyadic factor pairs.  With
    ``M_l^{-T} h = N / q`` and ``2 w`` integral, the turns ``N . (2 w) / (2 q)``
    are reduced mod 1 exactly in integers, in the :func:`~vpwave.intlat.exact_dtype`
    of ``max|N| max|2 w| d``; as ``J w`` is integral, any representative ``h``
    of a class gives its phase."""
    _check_level(level, chain.n_levels - 1)
    _, w = wavelet_shift_vectors(chain.factors[level])
    _, N, q = _class_points(chain, level)
    two_w = [int(2 * c) for c in w]
    dtype = exact_dtype(_absmax(N) * max(map(abs, two_w)) * len(w))
    turns = (N.astype(dtype) @ np.array(two_w, dtype=dtype) % (2 * q)).astype(float) / (2 * q)
    phases = np.exp(-2j * math.pi * turns)
    phases.flags.writeable = False
    return phases


@_level_cache
def coarse_of_fine(chain: ChainSpec, level: int) -> np.ndarray:
    """For each class of ``G(M_{l+1}^T)``, the position of its class in
    ``G(M_l^T)``, as a read-only intp array: the class index of its
    representative, read from the Smith form of ``M_l^T``."""
    H, _, _ = _class_points(chain, level)
    index = smith_normal_form(chain.matrix(level).T).class_index(H)
    index.flags.writeable = False
    return index


@_level_cache
def fiber_partner(chain: ChainSpec, level: int) -> np.ndarray:
    """For each class of ``G(M_{l+1}^T)``, the index of the other class of
    its :func:`coarse_of_fine` fiber, which a dyadic factor makes a pair; a
    read-only involution."""
    _check_level(level, chain.n_levels - 1)
    _require_dyadic_factor(chain.factors[level])
    pairs = np.argsort(coarse_of_fine(chain, level), kind="stable").reshape(-1, 2)
    partner = np.empty(pairs.size, dtype=np.intp)
    partner[pairs] = pairs[:, ::-1]
    partner.flags.writeable = False
    return partner


def _complement(chain: ChainSpec, level: int, a: np.ndarray) -> np.ndarray:
    """The complement of a class vector ``a`` over ``G(M_{l+1}^T)``: the
    conjugated partner-class value times the sign-flipping unit phase."""
    return complement_phases(chain, level) * np.conj(a[fiber_partner(chain, level)])


@_level_cache
def _exact_samples(chain: ChainSpec, level: int, g: AdmissibleFn) -> tuple:
    """The nonzero exact samples ``P_l(M_l^{-T} k)``: read-only arrays of the
    keys ``k`` in lexicographic order and of the numerators, their
    denominator in lowest terms, and the read-only class indices of the
    keys in ``G(M_l^T)``.  ``g`` is sampled once at the top level, at the
    points ``N = B k``, ``(B, q)`` the scaled inverse of ``M_n^T``, with
    ``|N| <= floor(hw q)``, keyed by ``k = M_n^T N / q``, whose classes are
    read from the Smith form of ``M_n^T``; each level down is the level
    above times the two-scale value of each key's class, and the classes
    one level down are the :func:`coarse_of_fine` gather of those above."""
    if level == chain.n_levels:
        if g.dim != chain.dim:
            raise DimensionMismatch(f"window of dimension {g.dim} on a chain of dimension {chain.dim}")
        M = chain.matrix(level)
        snf = smith_normal_form(M.T)
        B, q = snf.scaled_inverse
        reach = g.support_reach(q)
        _, N = lattice_points(B.hermite.entries, np.zeros((1, chain.dim), dtype=np.int64),
                              [-r for r in reach], reach)
        K = apply_rows(M.T, N) // q
        order = np.lexsort(K.T[::-1])
        K, (P, den) = K[order], g.eval_exact(N[order], q)
        keep = P != 0
        K, P = K[keep], P[keep]
        index = snf.class_index(K)
    else:
        K, P, den, fine = _exact_samples(chain, level + 1, g)
        a, a_den = _class_sums(chain, level, g)
        P, den = exact_product(a[fine], a_den, P, den)
        keep = P != 0
        K, P, index = K[keep], P[keep], coarse_of_fine(chain, level)[fine[keep]]
    P, den = lowest_terms(P, den)
    K.flags.writeable = P.flags.writeable = index.flags.writeable = False
    return K, P, den, index


@_level_cache
def scaling_spectrum(chain: ChainSpec, level: int, g: AdmissibleFn) -> ScalingFunction:
    """Fourier coefficients of the level-``level`` scaling function."""
    _check_level(level, chain.n_levels)
    K, P, den, _ = _exact_samples(chain, level, g)
    p = exact_floats(P, den)
    c = p / math.sqrt(chain.size(level))
    keep = np.abs(c) > tol.ZERO_TRIM
    return ScalingFunction(chain=chain, level=level, g=g, samples=p[keep],
                           spectrum=SparseSpectrum(dim=chain.dim, keys=K[keep], values=c[keep]))


@_level_cache
def wavelet_spectrum(chain: ChainSpec, level: int, g: AdmissibleFn) -> Wavelet:
    """Fourier coefficients of the level-``level`` wavelet (dyadic factor):
    per frequency the wavelet class value times ``P_{l+1}`` times the
    class phase, gathered by the class indices of the level-``(l+1)`` samples."""
    _check_level(level, chain.n_levels - 1)
    K, P, den, idx = _exact_samples(chain, level + 1, g)
    a, a_den = _class_sums(chain, level, g)
    modulus = (exact_floats(*exact_product(a[fiber_partner(chain, level)[idx]], a_den, P, den))
               / math.sqrt(chain.size(level)))
    keep = np.abs(modulus) > tol.ZERO_TRIM
    values = modulus[keep] * complement_phases(chain, level)[idx[keep]]
    return Wavelet(chain=chain, level=level, g=g,
                   spectrum=SparseSpectrum(dim=chain.dim, keys=K[keep], values=values))


def two_scale(chain: ChainSpec, level: int, g: AdmissibleFn) -> TwoScaleCoeffs:
    """Raw two-scale vector: ``sqrt(|det J|) * g^J`` sampled on
    ``M_l^{-T} G(M_{l+1}^T)``; the unscaled samples ``g^J`` are kept too."""
    samples = exact_floats(*_class_sums(chain, level, g))
    level = operator.index(level)  # a Python int, as the cached entry points store
    vals = (math.sqrt(chain.factors[level].absdet) * samples).astype(complex)
    return TwoScaleCoeffs(chain=chain, level=level, samples=samples, values=vals)


def wavelet_two_scale(chain: ChainSpec, level: int, g: AdmissibleFn) -> TwoScaleCoeffs:
    """Raw wavelet two-scale vector over ``G(M_{l+1}^T)``; its real moduli
    before the ``sqrt(2)`` factor and the unit phases are kept as
    ``samples``."""
    a = two_scale(chain, level, g)
    # real, as conj(+0j) = -0j would flip the sign of zeros among the products
    return TwoScaleCoeffs(chain=chain, level=a.level,
                          values=_complement(chain, level, a.values.real),
                          samples=a.samples[fiber_partner(chain, level)])


# -- orthonormalization ------------------------------------------------------


def class_powers(fn: ScalingFunction) -> np.ndarray:
    """Per-class sums ``sum_z |c_{h + M_l^T z}|^2`` over ``G(M_l^T)``, in key
    order, with the C library's ``hypot`` and ``pow`` as in ``abs(c) ** 2``."""
    c = fn.spectrum.values
    return np.bincount(smith_normal_form(fn.matrix.T).class_index(fn.spectrum.keys),
                       minlength=fn.size, weights=np.float_power(np.hypot(c.real, c.imag), 2.0))


def orthonormalize(fn: ScalingFunction):
    """Scale each frequency class so the translates over ``P(M_l)`` become
    orthonormal: ``m_l * sum_z |c|^2 = 1`` per class afterwards."""
    powers = fn.powers
    if _degenerate(powers):
        raise DegenerateClass("a frequency class carries no coefficient mass")
    scale = 1.0 / np.sqrt(fn.size * powers)
    s = fn.spectrum
    spec = SparseSpectrum(dim=s.dim, keys=s.keys,
                          values=s.values * scale[smith_normal_form(fn.matrix.T).class_index(s.keys)])
    return type(fn)(fn.chain, fn.level, fn.g, spec)


@_level_cache
def normalized_filters(chain: ChainSpec, level: int,
                       g: AdmissibleFn) -> tuple[TwoScaleCoeffs, TwoScaleCoeffs]:
    """Orthonormal two-scale filter pair of one dyadic refinement step.

    The scaling filter is the raw one rescaled by the class powers of the
    orthonormalized functions on both levels.  The wavelet filter is built
    from it by the complement construction: conjugate the partner-class
    value and apply the sign-flipping unit phases.  Per merged class pair
    both filters have squared norm 2 and are exactly orthogonal, which is
    what makes the decomposition an orthogonal projection.  (Normalizing
    the raw wavelet per class keeps its translates orthonormal but does
    not give the orthogonal complement unless the raw translates already
    were orthonormal, as in the Dirichlet case.)
    """
    a_raw = two_scale(chain, level, g)
    p_fine = scaling_spectrum(chain, level + 1, g).powers
    q_phi = scaling_spectrum(chain, level, g).powers
    for arr, who in ((p_fine, "fine scaling"), (q_phi, "coarse scaling")):
        if _degenerate(arr):
            raise DegenerateClass(f"{who} spectrum has an empty frequency class")
    a_vals = (a_raw.values * np.sqrt(chain.size(level + 1) * p_fine)
              / np.sqrt(chain.size(level) * q_phi[coarse_of_fine(chain, level)]))
    return (TwoScaleCoeffs(chain=chain, level=level, values=a_vals),
            TwoScaleCoeffs(chain=chain, level=level, values=_complement(chain, level, a_vals)))


@_level_cache
def orthonormal_wavelet(chain: ChainSpec, level: int, g: AdmissibleFn) -> Wavelet:
    """The wavelet spanning the orthogonal complement of the level space
    inside the next one, with orthonormal translates: the complement
    filter applied to the orthonormalized next-level scaling function."""
    _, b2 = normalized_filters(chain, level, g)
    fine = orthonormalize(scaling_spectrum(chain, level + 1, g)).spectrum
    idx = smith_normal_form(chain.matrix(level + 1).T).class_index(fine.keys)
    vals = b2.values[idx] * fine.values
    keep = np.abs(vals) > tol.ZERO_TRIM
    return Wavelet(chain=chain, level=level, g=g,
                   spectrum=SparseSpectrum(dim=chain.dim, keys=fine.keys[keep], values=vals[keep]))


# -- series evaluation ----------------------------------------------------------


def evaluate_series(s: SparseSpectrum, x: Sequence[float]) -> complex:
    """``sum_k c_k exp(i k . x)`` at a point of the torus ``[0, 2pi)^d``."""
    if len(x) != s.dim:
        raise DimensionMismatch(f"a {len(x)}-vector is not a point of the {s.dim}-torus")
    if len(s) == 0:
        return 0j
    return complex(np.sum(s.values * np.exp(1j * (s.keys @ np.asarray(x, dtype=float)))))
