"""Multiresolution verification: finite, checkable forms of the basis,
nesting and density properties, orthonormality audits, and whether a
scaling function depends on the tail of the factor chain, decided for one
factor on an exact grid (:func:`check_reduction`) or measured per level of
a chain against the plain window (:func:`tail_distance`).

Density of the union of spaces is asymptotic; only the finite surrogate
(monotone growth of fully covered frequency balls) is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import intlat, tol
from .admissible import AdmissibleFn, exact_floats, exact_gap, exact_product, periodized_sum_exact
from .dlvp import (
    ScalingFunction,
    TwoScaleCoeffs,
    _degenerate,
    fiber_partner,
    normalized_filters,
    scaling_spectrum,
)
from .errors import DimensionMismatch, InvalidParameter, TooLarge, UnsupportedDimension
from .intlat import (
    ChainSpec,
    IntMat,
    J_D,
    _check_level,
    _Frozen,
    _image_bound,
    exact_dtype,
    smith_normal_form,
)

GRID_POINTS_PER_AXIS = 512


# -- basis and nesting ---------------------------------------------------------


def basis_check(chn: ChainSpec, level: int, g: AdmissibleFn) -> tuple[bool, float]:
    """Whether the translates span a space of full dimension ``m_l``:
    every frequency class must carry positive coefficient power.
    Returns the flag and the minimal class power."""
    powers = scaling_spectrum(chn, level, g).powers
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
    _check_level(level, chn.n_levels - 1)
    phi, phi_fine = scaling_spectrum(chn, level, g), scaling_spectrum(chn, level + 1, g)
    keys, coarse, fine = _on_union(phi.spectrum.keys, phi.samples,
                                   phi_fine.spectrum.keys, phi_fine.samples)
    N, q = chn.matrix(level).inv_T_rows(keys)
    a = exact_floats(*periodized_sum_exact(g, chn.factors[level], N, q))
    return float(np.max(np.abs(coarse - a * fine), initial=0.0)) / math.sqrt(chn.size(level))


def independent_nesting_residual(coarse: ScalingFunction, fine: ScalingFunction) -> float:
    """Nesting defect without a constructed two-scale vector: per class the
    best least-squares multiplier is fitted first.  Zero iff some vector
    links the two spectra, i.e. iff the coarse space embeds in the fine one."""
    keys, c, f = _on_union(coarse.spectrum.keys, coarse.spectrum.values,
                           fine.spectrum.keys, fine.spectrum.values)
    m = fine.size
    idx = smith_normal_form(fine.matrix.T).class_index(keys)
    cf = c * np.conj(f)
    num = np.bincount(idx, cf.real, m) + 1j * np.bincount(idx, cf.imag, m)
    den = np.bincount(idx, np.abs(f) ** 2, m)
    best = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(np.max(np.abs(c - best[idx] * f), initial=0.0))


def _on_union(s_keys: np.ndarray, s_values: np.ndarray, t_keys: np.ndarray,
              t_values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of two sets of distinct key rows, with the values
    given on each set placed on it (0 off that set).  Key rows are sorted by their C-order
    codes over the keys' bounding box, or as rows when ``exact_dtype`` of its size is not int64."""
    K = np.concatenate([s_keys, t_keys])
    lo, hi = (K.min(axis=0), K.max(axis=0)) if len(K) else (np.zeros(K.shape[1], np.int64),) * 2
    spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if exact_dtype(math.prod(spans)) is np.int64:
        _, first, inv = np.unique(np.ravel_multi_index(tuple((K - lo).T), spans),
                                  return_index=True, return_inverse=True)
        keys = K[first]
    else:
        keys, inv = np.unique(K, axis=0, return_inverse=True)
    a = np.zeros(len(keys), s_values.dtype)
    b = np.zeros(len(keys), t_values.dtype)
    a[inv[:len(s_keys)]] = s_values
    b[inv[len(s_keys):]] = t_values
    return keys, a, b


def support_radii(chn: ChainSpec, g: AdmissibleFn) -> list[int]:
    """Per level, the largest ``r`` with the whole closed centred sup-norm
    ball ``{k : |k|_inf <= r}`` inside the coefficient support (the finite
    density surrogate), or 0 when not even ``r = 1`` fits.  A centred
    half-open support box of side ``s = 2^j``, ``j >= 1``, such as
    ``[-s/2, s/2)^d`` from the Dirichlet window at even quincunx levels,
    has radius ``2^{j-1} - 1``: the face at distance ``s/2`` is missing on
    one side of each axis.

    The keys are counted per sup-norm shell ``t``, which holds
    ``(2t+1)^d - (2t-1)^d`` points, and one, the origin, at ``t = 0``.  As the
    keys are distinct, the ball of radius ``r`` lies in the support iff each
    shell ``t <= r`` holds that many keys: the radius is one less than the
    first shell with fewer.  Norms are clipped at ``top``, where
    ``(2 top - 1)^d`` exceeds the number of keys, so some shell below ``top``
    is short, and nothing the size of the keys' bounding box is allocated."""
    out = []
    for level in range(chn.n_levels + 1):
        keys = scaling_spectrum(chn, level, g).spectrum.keys
        d = keys.shape[1]
        top = int(len(keys) ** (1 / d)) // 2 + 2
        norms = np.minimum(np.abs(keys).max(axis=1), top).astype(np.intp)
        t = np.arange(top + 1)
        shell = (2 * t + 1) ** d - np.maximum(2 * t - 1, 0) ** d
        out.append(max(int(np.argmax(np.bincount(norms, minlength=top + 1) < shell)) - 1, 0))
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
    v = ts.values
    sums = np.abs(v) ** 2 + np.abs(v[partner]) ** 2
    return float(np.max(np.abs(sums - detj)))


# -- reduction checks (tail independence of the chain) -----------------------------


def _grid_numerators(g: AdmissibleFn, halfwidths: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """The mesh of per-axis grids over the box ``[-hw, hw]`` as the rows of
    ``N / q``: per axis the multiples of the dyadic step ``2^-e``, with
    ``2^e`` the least power of two at or above ``GRID_POINTS_PER_AXIS / (2 hw)``,
    joined with the window's breakpoints inside the box (a symmetric set);
    ``q`` is the lcm of the steps' and the breakpoints' denominators."""
    steps = [Fraction(2) ** -math.ceil(math.log2(GRID_POINTS_PER_AXIS / (2 * hw)))
             for hw in halfwidths]
    knots = [[b for b in g.breakpoints_1d(i) if abs(b) <= hw] for i, hw in enumerate(halfwidths)]
    q = math.lcm(*(v.denominator for v in steps), *(b.denominator for k in knots for b in k))
    axes = [np.union1d(np.arange(math.ceil(-hw / h), math.floor(hw / h) + 1) * int(h * q),
                       np.array([int(b * q) for b in k], dtype=np.int64))
            for hw, h, k in zip(halfwidths, steps, knots)]
    # an axis has at most 2 GRID_POINTS_PER_AXIS uniform points: a 2-D grid
    # stays near 2^20 rows, a 3-D one passes 2^27
    n = math.prod(map(len, axes))
    if n > 4 * intlat.ENUMERATION_GUARD:
        raise TooLarge(f"refusing a {len(axes)}-D reduction grid of {n} points")
    return np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1), q


def _reduction_sides(g: AdmissibleFn, J: IntMat, mode: str):
    """The grid ``(N, q)`` of :func:`check_reduction` and the two sides of its
    identity there, each as numerators over one denominator."""

    def box_through(*mats):
        b = list(g.support_halfwidths)
        for A in mats:
            b = _image_bound(A.entries, b)
        return b

    N, q = _grid_numerators(g, box_through(J.T) if mode == "single" else box_through(J_D.T, J.T))
    Y, qy = J.inv_T_rows(N)
    qy *= q
    outer = periodized_sum_exact(g, J, N, q)
    if mode == "single":
        return N, q, exact_product(*outer, *g.eval_exact(Y, qy)), g.eval_exact(N, q)
    Z, qz = J_D.inv_T_rows(Y)
    qz *= qy
    inner = exact_product(*periodized_sum_exact(g, J_D, Y, qy), *g.eval_exact(Z, qz))
    return N, q, exact_product(*outer, *inner), exact_product(*outer, *g.eval_exact(Y, qy))


def check_reduction(g: AdmissibleFn, J: IntMat, mode: str) -> tuple[bool, float]:
    """Pointwise identity tests that decide whether one refinement factor
    determines the scaling function regardless of later chain entries.

    ``single``: the refinement step with ``J`` applied to the window
    reproduces the window itself (axis-doubling factors),
    ``g^J(x) g(J^{-T} x) == g(x)``.  Let ``S`` be the axes whose row or
    column of ``J`` differs from the identity.  When ``0 < |S| < d`` it is
    decided on the factor of the window over ``S`` with the block
    ``J[S, S]``: the window is a tensor product whose other axes periodize
    to 1, so both sides carry the common factor ``prod_{k not in S}
    g_k(x_k)``, at most 1 and equal to 1 at ``x_k = 0``, and the full grid
    would give the same result.  A factor that moves every axis is checked
    on the full grid where it fits (``d <= 2``; a 3-D grid raises
    ``TooLarge``).
    ``double``: prepending a quincunx step changes nothing,
    ``refine_J(g, refine_D(g, g)) == refine_J(g, g)``; ``d = 2`` only.

    Both sides are compared exactly at every point of a rational grid over
    the box that the support reaches through the transposed factors: a
    dyadic grid of ``GRID_POINTS_PER_AXIS`` points per axis joined with the
    window's breakpoints.  Returns whether the identity holds at every grid
    point, and the largest deviation, correctly rounded (0.0 exactly when
    it holds).
    """
    if mode not in ("single", "double"):
        raise InvalidParameter(f"unknown reduction mode {mode!r}")
    if J.dim != g.dim:
        raise DimensionMismatch("factor and window dimensions differ")
    if mode == "double" and g.dim != 2:
        raise UnsupportedDimension("the double reduction prepends the 2-D quincunx factor")
    if mode == "single":
        identity = IntMat.identity(g.dim).entries
        moved = [i for i in range(g.dim)
                 if J.entries[i] != identity[i] or J.T.entries[i] != identity[i]]
        if 0 < len(moved) < g.dim:
            block = IntMat(tuple(tuple(J.entries[i][k] for k in moved) for i in moved))
            sub = AdmissibleFn(g.kind, len(moved), tuple(g.alpha[i] for i in moved), g.order)
            return check_reduction(sub, block, mode)
    _, _, lhs, rhs = _reduction_sides(g, J, mode)
    deviation = exact_gap(*lhs, *rhs)
    return deviation == 0, deviation


def tail_distance(chn: ChainSpec, g: AdmissibleFn, level: int) -> float:
    """Largest coefficient distance between the level-``level`` scaling
    function of ``chn`` and that of ``chn.subchain(level)``, the plain window
    sampled at ``M_level``: 0.0 exactly when the factors after the level
    change none of its coefficients."""
    s = scaling_spectrum(chn, level, g).spectrum
    t = scaling_spectrum(chn.subchain(level), level, g).spectrum
    _, a, b = _on_union(s.keys, s.values, t.keys, t.values)
    return float(np.max(np.abs(a - b), initial=0.0))


# -- report -----------------------------------------------------------------------


class LevelReport(_Frozen):
    """The checks of one level; :meth:`MraReport.render` writes ``FIELDS`` in order."""

    FIELDS = ("size", "dim_ok", "min_class_power", "nesting_residual", "support_radius",
              "scaling_filter_defect", "wavelet_filter_defect")

    def __init__(self, level: int, size: int, dim_ok: bool, min_class_power: float,
                 nesting_residual: float | None, support_radius: int,
                 scaling_filter_defect: float | None, wavelet_filter_defect: float | None):
        self._set(level=level, size=size, dim_ok=dim_ok, min_class_power=min_class_power,
                  nesting_residual=nesting_residual, support_radius=support_radius,
                  scaling_filter_defect=scaling_filter_defect,
                  wavelet_filter_defect=wavelet_filter_defect)


class MraReport(_Frozen):
    def __init__(self, levels: tuple[LevelReport, ...], dyadic: bool, ok: bool):
        self._set(levels=levels, dyadic=dyadic, ok=ok)

    def render(self) -> str:
        """Per level, a ``name: value`` line per ``LevelReport.FIELDS`` entry:
        floats as ``.17g``, other values with ``str``, ``None`` left out."""
        lines = [f"levels: {len(self.levels)}", f"dyadic: {self.dyadic}"]
        for lr in self.levels:
            lines.append(f"level: {lr.level}")
            for name in LevelReport.FIELDS:
                v = getattr(lr, name)
                if v is not None:
                    lines.append(f"  {name}: {format(v, '.17g') if isinstance(v, float) else v}")
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
        nest = fdef_a = fdef_b = None
        if level < chn.n_levels:
            nest = nesting_residual(chn, level, g)
            ok &= nest < tol.TWO_SCALE
            if chn.dyadic:
                a2, b2 = normalized_filters(chn, level, g)
                fdef_a = audit_orthonormality(a2)
                fdef_b = audit_orthonormality(b2)
                ok &= fdef_a < tol.ORTHO and fdef_b < tol.ORTHO
        levels.append(LevelReport(
            level=level, size=chn.size(level), dim_ok=dim_ok, min_class_power=min_power,
            nesting_residual=nest, support_radius=radii[level],
            scaling_filter_defect=fdef_a, wavelet_filter_defect=fdef_b))
    ok &= all(a <= b for a, b in zip(radii, radii[1:]))  # no support radius shrinks
    return MraReport(levels=tuple(levels), dyadic=chn.dyadic, ok=ok)
