"""One exact-integer width rule: ``intlat.exact_dtype`` chooses int64 or Python
integers for every module, so setting ``intlat._INT64_SAFE`` alone moves every
exact product of the package onto Python integers, with the same results."""

import contextlib
from fractions import Fraction as F

import numpy as np
import pytest

from vpwave import admissible, dlvp, intlat, latfft, mra
from vpwave.admissible import AdmissibleFn, exact_product, periodized_sum_exact
from vpwave.dlvp import complement_phases
from vpwave.intlat import J_D, J_X, IntMat, apply_rows, chain, generating_set, lattice_points
from vpwave.mra import build_report


def clear_caches():
    for module in (intlat, latfft, admissible, dlvp, mra):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@contextlib.contextmanager
def python_ints():
    """Only ``intlat._INT64_SAFE`` set to 0, with every cache cleared on entry
    and on exit, so no array of either width outlives its run."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intlat, "_INT64_SAFE", 0)
            yield
    finally:
        clear_caches()


def test_one_bound_reaches_every_exact_product():
    g = AdmissibleFn.tensor_linear([F(1, 10), F(1, 7)])
    N = np.array([[3, -4], [0, 7], [-9, 2]], dtype=np.int64)
    c = chain(IntMat.diagonal([4, 4]), [J_D, J_X])
    H = J_D.T.hermite.entries

    def outputs():
        num, den = g.eval_exact(N, 9)
        widths = []  # complement_phases returns phases: record the width it asks for
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dlvp, "exact_dtype",
                       lambda bound: widths.append(intlat.exact_dtype(bound)) or widths[-1])
            phases = complement_phases.__wrapped__(c, 1)
        return {"eval_exact": num,
                # a stacked call: two levels share J_X, and the rows over 3 go to 9
                "periodized_sum_exact": np.concatenate(periodized_sum_exact(
                    g, [(J_X, N, 9), (J_D, N, 9), (J_X, N, 3)])[0]),
                "exact_product": exact_product(num, den, num, den)[0],
                "complement_phases": widths,
                "lattice_points": lattice_points(H, N, [-5, -5], [5, 5])[1],
                "apply_rows": apply_rows(J_D, N)}, phases

    fast, fast_phases = outputs()
    with python_ints():
        slow, slow_phases = outputs()
    assert fast["complement_phases"] == [np.int64] and slow["complement_phases"] == [object]
    assert np.array_equal(slow_phases.view(np.float64), fast_phases.view(np.float64))
    for name in ("eval_exact", "periodized_sum_exact", "exact_product", "lattice_points",
                 "apply_rows"):
        assert fast[name].dtype == np.int64 and slow[name].dtype == object, name
        assert slow[name].tolist() == fast[name].tolist(), name


REPORTS = {
    "example_48": (IntMat.from_rows([[10, -4], [6, 4]]), [IntMat.from_rows([[1, 1], [0, 2]])],
                   AdmissibleFn.tensor_linear([F(1, 10)] * 2)),
    "smoothed_order_3": (IntMat.diagonal([4, 4]), [J_D, J_X],
                         AdmissibleFn.tensor_smoothed([F(1, 10)] * 2, order=3)),
    "dirichlet_quincunx": (IntMat.identity(2), [J_D] * 4, AdmissibleFn.characteristic(2)),
}


@pytest.mark.parametrize("case", REPORTS)
def test_reports_on_python_ints_render_as_on_int64(case):
    M0, factors, g = REPORTS[case]
    c = chain(M0, factors)
    clear_caches()
    fast = build_report(c, g).render()
    with python_ints():
        slow = build_report(c, g).render()
        # the report read the class sums that the one patch moved
        assert dlvp._class_sums(c, 0, g)[0].dtype == object
    assert slow == fast


# the four m = 256 naive-oracle matrices of the lattice_fft benchmark workload,
# and M_4 = [[8, -24], [48, -16]] (m = 1024) of the report_vp chain
PHASE_MATRICES = [[[16, 0], [0, 16]], [[1, 0], [3, 256]], [[48, 32], [16, 16]],
                  [[4, 0, 0], [0, 4, 1], [0, 0, 16]], [[8, -24], [48, -16]]]


@pytest.mark.parametrize("rows", PHASE_MATRICES, ids=str)
def test_phase_table_matches_the_python_int_table(rows):
    M = IntMat.from_rows(rows)
    H = generating_set(M.T).rep_array.astype(object)
    N = intlat.pattern(M).numerators.astype(object)
    expected = (H @ N.T) % M.absdet
    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latfft, "exact_dtype",
                   lambda bound: widths.append(intlat.exact_dtype(bound)) or widths[-1])
        R, q = latfft._phase_table.__wrapped__(M)
    assert widths == [np.int64] and R.dtype == np.int64 and q == M.absdet
    assert R.tolist() == expected.tolist()
    with python_ints():
        slow, _ = latfft._phase_table.__wrapped__(M)
    assert slow.dtype == np.int64 and np.array_equal(slow, R)
