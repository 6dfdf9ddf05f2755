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

* the top level samples ``g`` once, at ``M_n^{-T} k`` for every ``k`` in
  the bounding box of ``M_n^T [-hw, hw]`` (``hw`` the support halfwidths);
* each lower level multiplies the level above by ``g^J`` evaluated once
  per class of ``G(M_{l+1}^T)``;
* for a dyadic factor (``|det J| = 2``) the wavelet, whose translates
  span the orthogonal complement between consecutive spaces, multiplies
  the level-``(l+1)`` samples by ``g^J`` shifted by ``J^T v`` and by one
  unit phase per class.

Frequency arguments and samples stay exact rationals until the float
coefficients are formed, so half-open support boundaries (the Dirichlet
window) and zero tests are decided exactly.  Every class vector (two-scale
values, phases, class powers, filters) is indexed by ``G(M^T)`` in the
canonical order of the symmetric box (variant ``S``).
:func:`scaling_profile` and :func:`wavelet_profile` evaluate the product
directly at one point, exactly (float input is converted with
``Fraction(v)``); they are the reference the spectra are tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from . import tol
from .admissible import AdmissibleFn, periodized_sum
from .errors import ConditionViolated, DegenerateClass, LevelOutOfRange, NotDyadic, TooLarge
from .intlat import ENUMERATION_GUARD, ChainSpec, IntMat, generating_set, pattern
from .latfft import SpectrumVector

Vec = tuple[int, ...]

DEGENERATE_REL = 1e-18


@dataclass(frozen=True)
class SparseSpectrum:
    """Finite map from integer frequencies to Fourier coefficients."""

    dim: int
    coeffs: dict[Vec, complex]
    all_real: bool = False

    def __len__(self) -> int:
        return len(self.coeffs)

    def support(self) -> set[Vec]:
        return set(self.coeffs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies as an (n, d) int array plus matching coefficients."""
        keys = sorted(self.coeffs)
        K = np.array(keys, dtype=np.int64).reshape(len(keys), self.dim)
        c = np.array([self.coeffs[k] for k in keys], dtype=complex)
        return K, c

    def __getitem__(self, k: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(int(v) for v in k), 0.0)


@dataclass(frozen=True)
class ScalingFunction:
    """``samples`` holds the unscaled profile value ``P(M_l^{-T} k)`` of each
    stored frequency, so that ``coeffs[k] == samples[k] / sqrt(m_l)``; it is
    ``None`` when the coefficients are not plain profile samples (after
    :func:`orthonormalize`, or for a hand-built spectrum)."""

    chain: ChainSpec
    level: int
    g: AdmissibleFn
    spectrum: SparseSpectrum
    normalized: bool = False
    samples: dict[Vec, float] | None = None

    @property
    def matrix(self) -> IntMat:
        return self.chain.matrix(self.level)

    @property
    def size(self) -> int:
        return self.chain.size(self.level)


@dataclass(frozen=True)
class Wavelet:
    chain: ChainSpec
    level: int
    g: AdmissibleFn
    spectrum: SparseSpectrum
    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    normalized: bool = False

    @property
    def matrix(self) -> IntMat:
        return self.chain.matrix(self.level)

    @property
    def size(self) -> int:
        return self.chain.size(self.level)


@dataclass(frozen=True)
class TwoScaleCoeffs:
    """Coefficients linking a level-l function to the level-(l+1) scaling
    basis, one value per frequency class of ``G(M_{l+1}^T)``."""

    chain: ChainSpec
    level: int
    kind: str  # "scaling" or "wavelet"
    values: SpectrumVector
    normalized: bool = False
    # raw vectors only: the real periodization samples behind ``values``,
    # which are ``sqrt(|det J|) * samples`` times unit phases
    samples: np.ndarray | None = field(default=None, compare=False)


def _check_level(chain: ChainSpec, level: int, *, top: int) -> None:
    if not 0 <= level <= top:
        raise LevelOutOfRange(f"level {level} outside 0..{top}")


def _require_dyadic_factor(J: IntMat) -> IntMat:
    if J.absdet != 2:
        raise NotDyadic(f"factor {J} has |det| = {J.absdet}, need 2")
    return J


def periodized_product(g: AdmissibleFn, J: IntMat, f2, x: Sequence):
    """``[sum_z g(x + J^T z)] * f2(J^{-T} x)`` -- one refinement step."""
    first = periodized_sum(g, J, x)
    if first == 0:
        return 0
    return first * f2(J.inv_T_apply(x))


def scaling_profile(chain: ChainSpec, level: int, g: AdmissibleFn, x: Sequence):
    """The window product whose samples are the level-``level`` scaling
    coefficients; exact, float input is converted with ``Fraction(v)``."""
    _check_level(chain, level, top=chain.n_levels)
    cur = tuple(Fraction(v) for v in x)
    val = 1
    for J in chain.factors[level:]:
        first = periodized_sum(g, J, cur)
        if first == 0:
            return 0
        val = val * first
        cur = J.inv_T_apply(cur)
    return val * g(cur)


def wavelet_shift_vectors(J: IntMat) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The unique nonzero points of ``P_I(J^T)`` and ``P_I(J)`` of a
    determinant-2 factor."""
    _require_dyadic_factor(J)
    v = next((p for p in pattern(J.T, "I").points if any(p)), None)
    w = next((p for p in pattern(J, "I").points if any(p)), None)
    if v is None or w is None:
        raise NotDyadic(f"a pattern of factor {J} has no nonzero point")
    return v, w


def _wavelet_frequency_shift(J: IntMat) -> Vec:
    """Integer congruence representative ``J^T v`` pairing the two
    frequency classes that a dyadic factor splits."""
    v, _ = wavelet_shift_vectors(J)
    gt = J.apply_T(v)
    if any(Fraction(c).denominator != 1 for c in gt):
        raise ConditionViolated(f"J^T v = {gt} is not an integer vector for factor {J}")
    return tuple(int(c) for c in gt)


def wavelet_profile(chain: ChainSpec, level: int, g: AdmissibleFn, x: Sequence) -> complex:
    """Shifted and modulated window product sampled by the wavelet
    coefficients, evaluated directly at one point.  The window is
    translated by the integer class representative ``J^T v`` (the pattern
    point ``v`` itself would pair wrong frequency classes and break
    orthogonality of the complement)."""
    _check_level(chain, level, top=chain.n_levels - 1)
    J = _require_dyadic_factor(chain.factors[level])
    _, w = wavelet_shift_vectors(J)
    gt = _wavelet_frequency_shift(J)
    xv = tuple(Fraction(v) for v in x)
    first = periodized_sum(g, J, tuple(a - b for a, b in zip(xv, gt)))
    if first == 0:
        return 0j
    rest = scaling_profile(chain, level + 1, g, J.inv_T_apply(xv))
    if rest == 0:
        return 0j
    phase = cmath.exp(-2j * math.pi * float(_dot_mod1(xv, w)))
    return phase * float(first) * float(rest)


def _dot_mod1(x: Sequence, y: Sequence) -> Fraction:
    r = sum(Fraction(a) * b for a, b in zip(x, y))
    return r - (r.numerator // r.denominator)


def _frequency_candidates(M: IntMat, hw: Sequence[Fraction]):
    """Integer points of the bounding box of ``M^T [-hw, hw]``."""
    d = M.dim
    bounds = []
    for i in range(d):
        b = sum(abs(M.entries[j][i]) * hw[j] for j in range(d))
        bounds.append(int(math.floor(b)))
    count = math.prod(2 * b + 1 for b in bounds)
    if count > ENUMERATION_GUARD:
        raise TooLarge(f"refusing to sample the window at {count} > {ENUMERATION_GUARD} frequencies")
    return product(*(range(-b, b + 1) for b in bounds))


@lru_cache(maxsize=None)
def _class_sums(chain: ChainSpec, level: int, g: AdmissibleFn, kind: str) -> tuple:
    """Exact two-scale values over the classes ``h`` of ``G(M_{l+1}^T)``:
    ``g^J(M_l^{-T} h)`` for ``kind == "scaling"``, and the wavelet modulus
    ``g^J(M_l^{-T} h - J^T v)`` for ``kind == "wavelet"``; each holds for
    every frequency of its class."""
    J = chain.factors[level]
    M = chain.matrix(level)
    shift = _wavelet_frequency_shift(J) if kind == "wavelet" else (0,) * chain.dim
    gs = generating_set(chain.matrix(level + 1).T)
    return tuple(periodized_sum(g, J, tuple(a - b for a, b in zip(M.inv_T_apply(h), shift)))
                 for h in gs.reps)


@lru_cache(maxsize=None)
def _class_phases(chain: ChainSpec, level: int) -> tuple[complex, ...]:
    """Unit phases ``exp(-2 pi i h . M_l^{-1} w)`` of the classes ``h`` of
    ``G(M_{l+1}^T)``; a dyadic factor's ``w`` makes them constant on each
    class."""
    _, w = wavelet_shift_vectors(chain.factors[level])
    u = chain.matrix(level).inv_apply(w)
    gs = generating_set(chain.matrix(level + 1).T)
    return tuple(cmath.exp(-2j * math.pi * float(_dot_mod1(h, u))) for h in gs.reps)


@lru_cache(maxsize=None)
def _exact_samples(chain: ChainSpec, level: int, g: AdmissibleFn) -> dict:
    """The nonzero exact samples ``P_l(M_l^{-T} k)``, keys in lexicographic
    order: ``g`` sampled once at the top level, then per level down the
    level above times the two-scale value of each key's class."""
    if level == chain.n_levels:
        M = chain.matrix(level)
        samples = ((k, g(M.inv_T_apply(k)))
                   for k in _frequency_candidates(M, g.support_halfwidths))
    else:
        a = _class_sums(chain, level, g, "scaling")
        gs = generating_set(chain.matrix(level + 1).T)
        samples = ((k, a[gs.index_of(k)] * p)
                   for k, p in _exact_samples(chain, level + 1, g).items())
    return {k: p for k, p in samples if p != 0}


@lru_cache(maxsize=None)
def scaling_spectrum(chain: ChainSpec, level: int, g: AdmissibleFn) -> ScalingFunction:
    """Fourier coefficients of the level-``level`` scaling function."""
    _check_level(chain, level, top=chain.n_levels)
    root = math.sqrt(chain.size(level))
    coeffs: dict[Vec, complex] = {}
    samples: dict[Vec, float] = {}
    for k, val in _exact_samples(chain, level, g).items():
        p = float(val)
        c = p / root
        if abs(c) > tol.ZERO_TRIM:
            coeffs[k] = c
            samples[k] = p
    return ScalingFunction(chain=chain, level=level, g=g, samples=samples,
                           spectrum=SparseSpectrum(dim=chain.dim, coeffs=coeffs, all_real=True))


@lru_cache(maxsize=None)
def wavelet_spectrum(chain: ChainSpec, level: int, g: AdmissibleFn) -> Wavelet:
    """Fourier coefficients of the level-``level`` wavelet (dyadic factor):
    per frequency the wavelet class value times ``P_{l+1}`` times the
    class phase."""
    _check_level(chain, level, top=chain.n_levels - 1)
    v, w = wavelet_shift_vectors(chain.factors[level])
    root = math.sqrt(chain.size(level))
    b = _class_sums(chain, level, g, "wavelet")
    phases = _class_phases(chain, level)
    gs = generating_set(chain.matrix(level + 1).T)
    coeffs: dict[Vec, complex] = {}
    for k, p in _exact_samples(chain, level + 1, g).items():
        i = gs.index_of(k)
        modulus = float(b[i] * p) / root
        if abs(modulus) > tol.ZERO_TRIM:
            coeffs[k] = modulus * phases[i]
    return Wavelet(chain=chain, level=level, g=g, v=v, w=w,
                   spectrum=SparseSpectrum(dim=chain.dim, coeffs=coeffs, all_real=False))


def two_scale(chain: ChainSpec, level: int, g: AdmissibleFn) -> TwoScaleCoeffs:
    """Raw two-scale vector: ``sqrt(|det J|) * g^J`` sampled on
    ``M_l^{-T} G(M_{l+1}^T)``; the unscaled samples ``g^J`` are kept too."""
    _check_level(chain, level, top=chain.n_levels - 1)
    samples = np.array([float(a) for a in _class_sums(chain, level, g, "scaling")])
    vals = (math.sqrt(chain.factors[level].absdet) * samples).astype(complex)
    return TwoScaleCoeffs(chain=chain, level=level, kind="scaling", samples=samples,
                          values=SpectrumVector(matrix=chain.matrix(level + 1), values=vals))


def wavelet_two_scale(chain: ChainSpec, level: int, g: AdmissibleFn) -> TwoScaleCoeffs:
    """Raw wavelet two-scale vector over ``G(M_{l+1}^T)``; its real moduli
    before the ``sqrt(2)`` factor and the unit phases are kept as
    ``samples``."""
    _check_level(chain, level, top=chain.n_levels - 1)
    moduli = [float(b) for b in _class_sums(chain, level, g, "wavelet")]
    root = math.sqrt(2.0)
    vals = np.array([root * mu * phase
                     for mu, phase in zip(moduli, _class_phases(chain, level))])
    return TwoScaleCoeffs(chain=chain, level=level, kind="wavelet", samples=np.array(moduli),
                          values=SpectrumVector(matrix=chain.matrix(level + 1), values=vals))


def complement_phases(chain: ChainSpec, level: int) -> np.ndarray:
    """Unit phases ``exp(-2 pi i h . M_l^{-1} w)`` over ``G(M_{l+1}^T)``;
    they flip sign between the two classes each dyadic factor pairs."""
    return np.array(_class_phases(chain, level))


# -- orthonormalization ------------------------------------------------------


def class_powers(fn: ScalingFunction | Wavelet) -> np.ndarray:
    """Per-class sums ``sum_z |c_{h + M_l^T z}|^2`` over ``G(M_l^T)``."""
    gs = generating_set(fn.matrix.T)
    powers = np.zeros(len(gs))
    for k, c in fn.spectrum.coeffs.items():
        powers[gs.index_of(k)] += abs(c) ** 2
    return powers


def orthonormalize(fn: ScalingFunction | Wavelet):
    """Scale each frequency class so the translates over ``P(M_l)`` become
    orthonormal: ``m_l * sum_z |c|^2 = 1`` per class afterwards."""
    powers = class_powers(fn)
    peak = float(np.max(powers)) if len(powers) else 0.0
    if peak <= 0.0 or float(np.min(powers)) <= DEGENERATE_REL * peak:
        raise DegenerateClass("a frequency class carries no coefficient mass")
    m = fn.size
    gs = generating_set(fn.matrix.T)
    scale = 1.0 / np.sqrt(m * powers)
    coeffs = {k: c * scale[gs.index_of(k)] for k, c in fn.spectrum.coeffs.items()}
    spec = SparseSpectrum(dim=fn.spectrum.dim, coeffs=coeffs,
                          all_real=fn.spectrum.all_real)
    if isinstance(fn, ScalingFunction):
        return replace(fn, spectrum=spec, normalized=True, samples=None)
    return replace(fn, spectrum=spec, normalized=True)


@lru_cache(maxsize=None)
def fiber_partner(chain: ChainSpec, level: int) -> np.ndarray:
    """For each class of ``G(M_{l+1}^T)``, the index of the second class a
    dyadic factor merges with it over ``G(M_l^T)``; an involution."""
    J = _require_dyadic_factor(chain.factors[level])
    gt = _wavelet_frequency_shift(J)
    shift = chain.matrix(level).apply_T(gt)
    gs = generating_set(chain.matrix(level + 1).T)
    partner = np.array([gs.index_of(tuple(a + b for a, b in zip(h, shift)))
                        for h in gs.reps])
    own = np.arange(len(gs))
    if np.any(partner[partner] != own) or np.any(partner == own):
        raise ConditionViolated(f"factor {J} does not pair the classes of level {level + 1}")
    return partner


@lru_cache(maxsize=None)
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
    fine = scaling_spectrum(chain, level + 1, g)
    coarse_phi = scaling_spectrum(chain, level, g)
    p_fine = class_powers(fine)
    q_phi = class_powers(coarse_phi)
    for arr, who in ((p_fine, "fine scaling"), (q_phi, "coarse scaling")):
        if float(np.min(arr)) <= DEGENERATE_REL * float(np.max(arr)):
            raise DegenerateClass(f"{who} spectrum has an empty frequency class")
    m_fine = chain.size(level + 1)
    m_coarse = chain.size(level)
    gs_coarse = generating_set(chain.matrix(level).T)
    fine_gs = generating_set(chain.matrix(level + 1).T)
    coarse_of_fine = np.array([gs_coarse.index_of(h) for h in fine_gs.reps])
    a_vals = (a_raw.values.values * np.sqrt(m_fine * p_fine)
              / np.sqrt(m_coarse * q_phi[coarse_of_fine]))
    partner = fiber_partner(chain, level)
    sigma = complement_phases(chain, level)
    b_vals = sigma * np.conj(a_vals[partner])
    mk = chain.matrix(level + 1)
    return (
        TwoScaleCoeffs(chain=chain, level=level, kind="scaling", normalized=True,
                       values=SpectrumVector(matrix=mk, values=a_vals)),
        TwoScaleCoeffs(chain=chain, level=level, kind="wavelet", normalized=True,
                       values=SpectrumVector(matrix=mk, values=b_vals)),
    )


@lru_cache(maxsize=None)
def orthonormal_wavelet(chain: ChainSpec, level: int, g: AdmissibleFn) -> Wavelet:
    """The wavelet spanning the orthogonal complement of the level space
    inside the next one, with orthonormal translates: the complement
    filter applied to the orthonormalized next-level scaling function."""
    _, b2 = normalized_filters(chain, level, g)
    fine = orthonormalize(scaling_spectrum(chain, level + 1, g))
    gs = generating_set(chain.matrix(level + 1).T)
    coeffs: dict[Vec, complex] = {}
    for k, c in fine.spectrum.coeffs.items():
        val = b2.values.values[gs.index_of(k)] * c
        if abs(val) > tol.ZERO_TRIM:
            coeffs[k] = val
    v, w = wavelet_shift_vectors(chain.factors[level])
    return Wavelet(chain=chain, level=level, g=g, v=v, w=w, normalized=True,
                   spectrum=SparseSpectrum(dim=chain.dim, coeffs=coeffs, all_real=False))


# -- series evaluation and export ---------------------------------------------


def evaluate_series(s: SparseSpectrum, x: Sequence[float]) -> complex:
    """``sum_k c_k exp(i k . x)`` at a point of the torus ``[0, 2pi)^d``."""
    K, c = s.arrays()
    if len(c) == 0:
        return 0j
    return complex(np.sum(c * np.exp(1j * (K @ np.asarray(x, dtype=float)))))


def write_spectrum_csv(s: SparseSpectrum, path) -> None:
    """CSV export: ``k1,..,kd,re,im``, rows lexicographic in k, 17
    significant digits."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        cols = ",".join(f"k{i + 1}" for i in range(s.dim))
        fh.write(f"{cols},re,im\n")
        for k in sorted(s.coeffs):
            c = s.coeffs[k]
            kpart = ",".join(str(v) for v in k)
            fh.write(f"{kpart},{c.real:.17g},{c.imag:.17g}\n")
