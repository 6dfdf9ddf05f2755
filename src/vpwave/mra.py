"""Multiresolution verification: finite, checkable forms of the basis,
nesting and density properties, orthonormality audits, and the support
conditions under which a scaling function stops depending on the tail of
the factor chain.

Density of the union of spaces is asymptotic; only the finite surrogate
(monotone growth of fully covered frequency balls) is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from . import tol
from .admissible import AdmissibleFn, exact_floats, periodized_sum_exact, periodized_sum_many
from .dlvp import (
    ScalingFunction,
    SparseSpectrum,
    TwoScaleCoeffs,
    _degenerate,
    class_powers,
    fiber_partner,
    normalized_filters,
    scaling_spectrum,
)
from .errors import ConditionViolated, InvalidParameter, LevelOutOfRange, UnsupportedDimension
from .intlat import (
    _INT64_SAFE,
    ChainSpec,
    IntMat,
    J_D,
    axis_doubling,
    generating_set,
    plane_rotation,
)

GRID_POINTS_PER_AXIS = 512


# -- basis and nesting ---------------------------------------------------------


def basis_check(chn: ChainSpec, level: int, g: AdmissibleFn) -> tuple[bool, float]:
    """Whether the translates span a space of full dimension ``m_l``:
    every frequency class must carry positive coefficient power.
    Returns the flag and the minimal class power."""
    powers = class_powers(scaling_spectrum(chn, level, g))
    return not _degenerate(powers), float(np.min(powers))


def nesting_residual(chn: ChainSpec, level: int, g: AdmissibleFn) -> float:
    """Max defect of the two-scale relation ``c_k(phi_l) = a_k c_k(phi_{l+1})``
    over the union of stored supports.

    The identity is checked on the unscaled samples, as
    ``P_l(k) = g^J(M_l^{-T} k) P_{l+1}(k)``, with ``g^J`` evaluated
    directly at every ``k`` in one exact batch, not looked up per class as
    the spectra are built; the top level holds plain window samples, so
    this checks the construction of every level by induction.  The
    square roots of ``m_l``, ``m_{l+1}`` and ``|det J|`` cancel, so no
    rounding of them enters and the Dirichlet window gives exactly 0.0.
    The maximum is divided by ``sqrt(m_l)`` once, so it is reported in
    units of the coefficients ``c_k(phi_l)``."""
    if not 0 <= level < chn.n_levels:
        raise LevelOutOfRange(f"level {level} has no next level")
    keys, coarse, fine = _on_union(scaling_spectrum(chn, level, g).samples,
                                   scaling_spectrum(chn, level + 1, g).samples)
    N, q = chn.matrix(level).inv_T_rows(keys)
    a = exact_floats(*periodized_sum_exact(g, chn.factors[level], N, q))
    return float(np.max(np.abs(coarse - a * fine), initial=0.0)) / math.sqrt(chn.size(level))


def independent_nesting_residual(coarse: ScalingFunction, fine: ScalingFunction) -> float:
    """Nesting defect without a constructed two-scale vector: per class the
    best least-squares multiplier is fitted first.  Zero iff some vector
    links the two spectra, i.e. iff the coarse space embeds in the fine one."""
    keys, c, f = _on_union(coarse.spectrum, fine.spectrum)
    m = fine.size
    idx = generating_set(fine.matrix.T).class_index(keys)
    cf = c * np.conj(f)
    num = np.bincount(idx, cf.real, m) + 1j * np.bincount(idx, cf.imag, m)
    den = np.bincount(idx, np.abs(f) ** 2, m)
    best = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(np.max(np.abs(c - best[idx] * f), initial=0.0))


def _on_union(s: SparseSpectrum, t: SparseSpectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of the supports of ``s`` and ``t``, with the values of
    each spectrum on it (0 off its own support).  Key rows are sorted by their
    C-order codes over the keys' bounding box (as rows if it has ``2^62`` points)."""
    K = np.concatenate([s.keys, t.keys])
    lo, hi = (K.min(axis=0), K.max(axis=0)) if len(K) else (np.zeros(K.shape[1], np.int64),) * 2
    spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if math.prod(spans) < _INT64_SAFE:
        _, first, inv = np.unique(np.ravel_multi_index(tuple((K - lo).T), spans),
                                  return_index=True, return_inverse=True)
        keys = K[first]
    else:
        keys, inv = np.unique(K, axis=0, return_inverse=True)
    a = np.zeros(len(keys), s.values.dtype)
    b = np.zeros(len(keys), t.values.dtype)
    a[inv[:len(s)]] = s.values
    b[inv[len(s):]] = t.values
    return keys, a, b


def support_radii(chn: ChainSpec, g: AdmissibleFn) -> list[int]:
    """Per level, the largest ``r`` with the whole closed centred sup-norm
    ball ``{k : |k|_inf <= r}`` inside the coefficient support (the finite
    density surrogate), or 0 when not even ``r = 1`` fits.  A centred
    half-open support box of side ``s = 2^j``, ``j >= 1``, such as
    ``[-s/2, s/2)^d`` from the Dirichlet window at even quincunx levels,
    has radius ``2^{j-1} - 1``: the face at distance ``s/2`` is missing on
    one side of each axis.  The radius is one less than the smallest
    sup-norm of a missing frequency: in the keys' bounding box ``[lo, hi]``,
    or beyond it, at an axis point ``lo_i - 1`` or ``hi_i + 1``."""
    out = []
    for level in range(chn.n_levels + 1):
        keys = scaling_spectrum(chn, level, g).spectrum.keys
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        inside = np.zeros(hi - lo + 1, dtype=bool)
        inside[tuple((keys - lo).T)] = True
        norms = reduce(np.maximum, np.ix_(*(np.abs(np.arange(a, b + 1)) for a, b in zip(lo, hi))))
        beyond = min(1 - lo.max(), hi.min() + 1)
        out.append(max(int(np.min(norms[~inside], initial=beyond)) - 1, 0))
    return out


# -- orthonormality audit --------------------------------------------------------


def audit_orthonormality(ts: TwoScaleCoeffs) -> float:
    """Max over merged class pairs of ``| |b_h|^2 + |b_h'|^2 - |det J| |``.
    Zero exactly when the translates of the corresponding function are
    orthonormal inside the orthonormal next-level basis.

    A raw vector (:func:`two_scale`, :func:`wavelet_two_scale`) carries its
    unscaled real moduli ``mu``, ``|b_h| = sqrt(|det J|) mu_h``; the defect
    is then computed from them as ``|det J| * max |mu_h^2 + mu_h'^2 - 1|``,
    free of the rounding of ``sqrt(|det J|)`` and of the unit phases, so
    the Dirichlet window gives exactly 0.0.  A normalized filter carries no
    moduli and is audited on its complex values.  Both report in the units
    of ``|b_h|^2``."""
    detj = ts.chain.factors[ts.level].absdet
    partner = fiber_partner(ts.chain, ts.level)
    if ts.samples is not None:
        mu = ts.samples
        return detj * float(np.max(np.abs(mu ** 2 + mu[partner] ** 2 - 1.0)))
    v = ts.values.values
    sums = np.abs(v) ** 2 + np.abs(v[partner]) ** 2
    return float(np.max(np.abs(sums - detj)))


# -- reduction checks (tail independence of the chain) -----------------------------


def _axis_samples(lo: float, hi: float, breakpoints: Sequence[Fraction]) -> np.ndarray:
    """Dyadic uniform grid over [lo, hi] joined with the breakpoint lattice."""
    width = hi - lo
    step = 2.0 ** -math.ceil(math.log2(GRID_POINTS_PER_AXIS / width))
    base = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1) * step
    extra = [float(b) for b in breakpoints if lo <= float(b) <= hi]
    return np.unique(np.concatenate([base, np.array(extra)]))


def _grid(g: AdmissibleFn, halfwidths: Sequence[Fraction]) -> np.ndarray:
    axes = []
    for i, hw in enumerate(halfwidths):
        bps = set(g.breakpoints_1d(i))
        bps |= {-b for b in bps}
        axes.append(_axis_samples(-float(hw), float(hw), sorted(bps)))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _apply_points(M_inv_T: np.ndarray, X: np.ndarray) -> np.ndarray:
    return X @ M_inv_T.T


def _inv_T_float(M: IntMat) -> np.ndarray:
    """``M^{-T} = A^T / q`` in float, correctly rounded entry by entry."""
    A, q = M.scaled_adjugate()
    return np.array(A.entries, dtype=float).T / q


def check_reduction(g: AdmissibleFn, J: IntMat, mode: str) -> tuple[bool, float]:
    """Pointwise identity tests that decide whether one refinement factor
    determines the scaling function regardless of later chain entries.

    ``single``: the refinement step with ``J`` applied to the window
    reproduces the window itself (axis-doubling factors).
    ``double``: prepending a quincunx step changes nothing,
    ``refine_J(g, refine_D(g, g)) == refine_J(g, g)``.

    Returns whether the grid deviation stays below the grid-equality
    tolerance, and the deviation.
    """
    if g.dim != 2:
        raise UnsupportedDimension("reduction checks are specialized to d = 2")
    if mode not in ("single", "double"):
        raise InvalidParameter(f"unknown reduction mode {mode!r}")
    hw = g.support_halfwidths
    JT = J.T

    def box_through(*mats):
        b = list(hw)
        for A in mats:
            b = [sum(abs(A.entries[i][k]) * b[k] for k in range(2)) for i in range(2)]
        return b

    if mode == "single":
        box = box_through(JT)
        X = _grid(g, box)
        lhs = periodized_sum_many(g, J, X) * g.eval_many(_apply_points(_inv_T_float(J), X))
        rhs = g.eval_many(X)
    else:
        box = box_through(J_D.T, JT)
        X = _grid(g, box)
        Y = _apply_points(_inv_T_float(J), X)
        inner = periodized_sum_many(g, J_D, Y) * g.eval_many(_apply_points(_inv_T_float(J_D), Y))
        outer = periodized_sum_many(g, J, X)
        lhs = outer * inner
        rhs = outer * g.eval_many(Y)
    deviation = float(np.max(np.abs(lhs - rhs)))
    return deviation < tol.GRID_EQUALITY, deviation


def _classify_factor(J: IntMat) -> tuple:
    """('axis', i) or ('rot', i, j) for the standard d-dimensional factors."""
    d = J.dim
    for i in range(d):
        if J == axis_doubling(d, i):
            return ("axis", i)
    for i in range(d):
        for j in range(d):
            if i != j and J == plane_rotation(d, i, j):
                return ("rot", i, j)
    raise ConditionViolated(f"factor {J} is not an axis doubling or plane rotation")


def check_reduction_highdim(g: AdmissibleFn, chn: ChainSpec) -> list[bool]:
    """Tail-independence flags per level for d > 2 chains of axis doublings
    and plane rotations.  Requires each rotation to be preceded by a factor
    acting in its plane; raises ``ConditionViolated`` at the first offense."""
    if g.dim <= 2:
        raise UnsupportedDimension("use check_reduction for d = 2")
    kinds = [_classify_factor(J) for J in chn.factors]
    for idx in range(1, len(kinds)):
        kind = kinds[idx]
        if kind[0] == "rot":
            prev = kinds[idx - 1]
            allowed = prev == kind or (prev[0] == "axis" and prev[1] in kind[1:])
            if not allowed:
                raise ConditionViolated(
                    f"factor {idx + 1} rotates plane {kind[1:]} but factor "
                    f"{idx} acts elsewhere"
                )
    flags = []
    for level in range(chn.n_levels):
        full = scaling_spectrum(chn, level, g).spectrum
        head = scaling_spectrum(chn.subchain(level + 1), level, g).spectrum
        _, a, b = _on_union(full, head)
        flags.append(np.max(np.abs(a - b), initial=0.0) < tol.GRID_EQUALITY)
    return flags


def trailing_axis_collapse(chn: ChainSpec, g: AdmissibleFn) -> float:
    """Spectrum distance between the last-but-one scaling function and the
    plain window spectrum at the same matrix (zero when a trailing axis
    doubling changes nothing)."""
    n = chn.n_levels
    if n < 1:
        raise LevelOutOfRange("need at least one factor")
    with_tail = scaling_spectrum(chn.subchain(n), n - 1, g).spectrum
    plain = scaling_spectrum(chn.subchain(n - 1), n - 1, g).spectrum
    _, a, b = _on_union(with_tail, plain)
    return float(np.max(np.abs(a - b), initial=0.0))


# -- report -----------------------------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    level: int
    size: int
    dim_ok: bool
    min_class_power: float
    nesting_residual: float | None
    support_radius: int
    scaling_filter_defect: float | None
    wavelet_filter_defect: float | None


@dataclass(frozen=True)
class MraReport:
    levels: tuple[LevelReport, ...]
    dyadic: bool
    ok: bool

    def render(self) -> str:
        lines = [f"levels: {len(self.levels)}", f"dyadic: {self.dyadic}"]
        for lr in self.levels:
            lines.append(f"level: {lr.level}")
            lines.append(f"  size: {lr.size}")
            lines.append(f"  dim_ok: {lr.dim_ok}")
            lines.append(f"  min_class_power: {lr.min_class_power:.17g}")
            if lr.nesting_residual is not None:
                lines.append(f"  nesting_residual: {lr.nesting_residual:.17g}")
            lines.append(f"  support_radius: {lr.support_radius}")
            if lr.scaling_filter_defect is not None:
                lines.append(f"  scaling_filter_defect: {lr.scaling_filter_defect:.17g}")
            if lr.wavelet_filter_defect is not None:
                lines.append(f"  wavelet_filter_defect: {lr.wavelet_filter_defect:.17g}")
        lines.append(f"ok: {self.ok}")
        return "\n".join(lines) + "\n"


def build_report(chn: ChainSpec, g: AdmissibleFn) -> MraReport:
    """Run every per-level check on a chain and collect the results."""
    radii = support_radii(chn, g)
    levels = []
    ok = True
    for level in range(chn.n_levels + 1):
        dim_ok, min_power = basis_check(chn, level, g)
        ok &= dim_ok
        nest = None
        fdef_a = fdef_b = None
        if level < chn.n_levels:
            nest = nesting_residual(chn, level, g)
            ok &= nest < tol.TWO_SCALE
            if chn.dyadic:
                a2, b2 = normalized_filters(chn, level, g)
                fdef_a = audit_orthonormality(a2)
                fdef_b = audit_orthonormality(b2)
                ok &= fdef_a < tol.ORTHO and fdef_b < tol.ORTHO
        levels.append(LevelReport(
            level=level, size=chn.size(level), dim_ok=dim_ok,
            min_class_power=min_power, nesting_residual=nest,
            support_radius=radii[level],
            scaling_filter_defect=fdef_a, wavelet_filter_defect=fdef_b,
        ))
        if level > 0 and radii[level] < radii[level - 1]:
            ok = False
    return MraReport(levels=tuple(levels), dyadic=chn.dyadic, ok=ok)
