"""The two benchmark stages, each run once per fresh interpreter.

``vpwave`` keeps every spectrum, Smith form and generating set in
unbounded ``lru_cache``s keyed by value, so a second identical call in
one process measures a cache hit.  ``run.py`` therefore starts
``sample.py`` once per stage and sample.  That launcher starts the speed
log, then imports this module, which imports numpy and ``vpwave``: the
import is part of the measured set-up.

A stage prints one JSON object on stdout.  It holds set-up and stage
times at the reference speed (see ``speed.py``) and the raw times next to
them, peak RSS, the cold-cache guard and the oracle results.  When traced,
it also holds spans and per-layer numbers.  Oracles run after the timed
region, after the tracer is removed and after the speed log has stopped,
so they neither count as work nor move the counters.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from vpwave import admissible, dlvp, intlat, latfft, mra, tol

import speed
import tracer
import workloads

MAX_FAILURE_NOTES = 20


class Sample:
    """Result record of one stage: times, counts, oracle outcomes."""

    def __init__(self, stage: str, traced: bool, log: speed.SpeedLog, t_start: float):
        self.log = log
        self.t_start = t_start
        self.t_setup = None
        self.out = {"stage": stage, "traced": traced, "attempted": 0, "failed": 0,
                    "failures": [], "cold_guard": [], "raw": {},
                    "python": sys.version.split()[0], "numpy": np.__version__}

    def check(self, ok: bool, what: str) -> bool:
        self.out["attempted"] += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.out["failed"] += 1
        if len(self.out["failures"]) < MAX_FAILURE_NOTES:
            self.out["failures"].append(what)

    def raised(self, what: str) -> None:
        self.out["attempted"] += 1
        self.fail(f"{what} raised: {traceback.format_exc(limit=3)}")

    def guard_cold(self) -> None:
        """Before a cold timed call: no scaling spectrum may be cached yet."""
        info = getattr(dlvp.scaling_spectrum, "cache_info", None)
        size = info().currsize if info is not None else None
        self.out["cold_guard"].append(size)
        if size not in (0, None):
            self.fail(f"cold-cache guard: scaling_spectrum holds {size} entries")

    def setup_done(self) -> None:
        self.t_setup = time.perf_counter()

    def timing_done(self) -> None:
        """End of timed work: record peak RSS, stop the speed log, record set-up."""
        self.out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.log.stop()
        probes = self.log.probe_seconds()
        self.out["probes"] = len(probes)
        self.out["speed"] = speed.NOMINAL_S / statistics.median(probes)
        self.record("setup_s", [(self.t_start, self.t_setup)])

    def record(self, name: str, intervals) -> float:
        """Store the summed intervals in reference and in raw seconds."""
        self.out["raw"][name] = sum(self.log.raw(a, b) for a, b in intervals)
        self.out[name] = sum(self.log.reference(a, b) for a, b in intervals)
        return self.out[name]


# -- report stage ----------------------------------------------------------------


def _install_report_tracing(rec: tracer.Recorder) -> None:
    seen = set()

    def count_kept(sf):
        # coefficients of each spectrum computed (cache hits add nothing)
        if id(sf) not in seen:
            seen.add(id(sf))
            rec.counts["dlvp.coeffs_kept"] += len(sf.spectrum)

    for name in ("build_report", "support_radii", "nesting_residual", "audit_orthonormality"):
        rec.trace_spans(mra, name, f"mra.{name}")
    rec.trace_spans(dlvp, "scaling_spectrum", "dlvp.scaling_spectrum", on_result=count_kept)
    for name in ("two_scale", "normalized_filters", "class_powers"):
        rec.trace_spans(dlvp, name, f"dlvp.{name}")
    rec.trace_calls(dlvp, "scaling_profile", "dlvp.profile_evals")
    rec.trace_calls(admissible, "periodized_sum", "admissible.periodized_sum", timed=True)
    rec.trace_calls(intlat.GeneratingSet, "index_of", "intlat.index_of", timed=True)


def _report_layers(rec: tracer.Recorder, log: speed.SpeedLog, scale: float) -> dict:
    """Per-layer numbers of a traced report.  Span times are converted per
    interval; the summed seconds of hot calls are scaled by ``scale``, the
    report's reference/raw ratio."""

    def spans(name, self_time=False):
        return rec.durations(name, log.reference, self_time)

    evals = rec.counts["dlvp.profile_evals"]
    kept = rec.counts["dlvp.coeffs_kept"]
    ps_calls = rec.counts["admissible.periodized_sum"]
    ps_s = rec.seconds["admissible.periodized_sum"] * scale
    return {
        "traced_report_s": spans("mra.build_report"),
        "intlat.index_of_calls": rec.counts["intlat.index_of"],
        "intlat.index_of_s": rec.seconds["intlat.index_of"] * scale,
        "admissible.periodized_sum_calls": ps_calls,
        "admissible.periodized_sum_s": ps_s,
        "admissible.periodized_sum_us": 1e6 * ps_s / max(ps_calls, 1),
        "dlvp.scaling_spectrum_s": spans("dlvp.scaling_spectrum"),
        "dlvp.profile_evals": evals,
        "dlvp.coeffs_kept": kept,
        "dlvp.kept_ratio": kept / max(evals, 1),
        "dlvp.filters_s": (spans("dlvp.two_scale", self_time=True)
                           + spans("dlvp.normalized_filters", self_time=True)),
        "dlvp.class_powers_s": spans("dlvp.class_powers", self_time=True),
        "mra.support_radii_self_s": spans("mra.support_radii", self_time=True),
        "mra.nesting_s": spans("mra.nesting_residual", self_time=True),
        "mra.audit_s": spans("mra.audit_orthonormality", self_time=True),
        "mra.report_self_s": spans("mra.build_report", self_time=True),
    }


def _check_level(chn, g, level: int, rng) -> tuple[bool, float]:
    """Stored level spectrum against direct ``scaling_profile`` evaluation at
    seeded frequencies: half drawn from the support, half from its bounding
    box widened by one (so missing and spurious coefficients both show)."""
    spectrum = dlvp.scaling_spectrum(chn, level, g).spectrum
    keys = sorted(spectrum.coeffs)
    if not keys:
        return False, math.inf
    n = workloads.ORACLE_FREQUENCIES
    picks = [keys[i] for i in rng.choice(len(keys), size=min(n // 2, len(keys)), replace=False)]
    K = np.array(keys)
    lo, hi = K.min(axis=0) - 1, K.max(axis=0) + 1
    picks += [tuple(int(v) for v in rng.integers(lo, hi + 1)) for _ in range(n - len(picks))]
    M = chn.matrix(level)
    root = math.sqrt(chn.size(level))
    worst = max(abs(spectrum[k] - float(dlvp.scaling_profile(chn, level, g, M.inv_T_apply(k))) / root)
                for k in picks)
    return worst <= tol.TWO_SCALE, worst


def run_report(spec: dict, rng, s: Sample, traced: bool) -> None:
    chn = intlat.chain(intlat.IntMat.from_rows(spec["m0"]),
                       [intlat.IntMat.from_rows(f) for f in spec["factors"]])
    g = admissible.parse_admissible(spec["window"], chn.dim)
    s.setup_done()

    rec = tracer.Recorder() if traced else None
    if rec is not None:
        _install_report_tracing(rec)
    s.guard_cold()
    report = None
    t0 = time.perf_counter()
    try:
        report = mra.build_report(chn, g)
    except Exception:
        s.raised("build_report")
    t1 = time.perf_counter()
    s.timing_done()
    report_s = s.record("report_s", [(t0, t1)])
    if rec is not None:
        rec.uninstall()
        s.out["layers"] = _report_layers(rec, s.log, report_s / max(s.out["raw"]["report_s"], 1e-12))
        s.out["spans"] = rec.spans
    if report is None:
        return
    s.check(True, "build_report")
    for level in range(chn.n_levels + 1):
        ok, worst = _check_level(chn, g, level, rng)
        s.check(ok, f"level {level} spectrum differs from scaling_profile by {worst:.3g}")
    s.check(report.ok, "report.ok is False")


# -- fft stage -------------------------------------------------------------------


def _random_vector(rng, M):
    m = M.absdet
    return latfft.PatternVector(matrix=M, values=rng.standard_normal(m) + 1j * rng.standard_normal(m))


def _plan(M, a, rec) -> None:
    """Cold path from a matrix to its first transform."""
    if rec is None:
        intlat.generating_set(M)
        intlat.pattern(M)
        latfft.dft_fast(a)
        return
    with rec.span("plan", m=M.absdet, matrix=str(M)):
        with rec.span("intlat.snf"):
            intlat.smith_normal_form(M)
            intlat.smith_normal_form(M.T)
        with rec.span("intlat.enum"):
            intlat.generating_set(M)
            intlat.pattern(M)
            intlat.generating_set(M.T)
        with rec.span("latfft.first_fft"):
            latfft.dft_fast(a)


def _roundtrip_ok(a, ahat, back) -> bool:
    """Round trip at FAST_VS_NAIVE relative to the input, plus Parseval for
    the unnormalized forward transform: ``sum |ahat|^2 = m sum |a|^2``."""
    x = a.values
    err = float(np.max(np.abs(back.values - x))) / max(1.0, float(np.max(np.abs(x))))
    energy = len(x) * float(np.vdot(x, x).real)
    parseval = abs(float(np.vdot(ahat.values, ahat.values).real) - energy) / energy
    return err <= tol.FAST_VS_NAIVE and parseval <= tol.FAST_VS_NAIVE


def run_fft(spec: dict, rng, s: Sample, traced: bool) -> None:
    mats = [intlat.IntMat.from_rows(r) for r in spec["fft"]]
    vecs = [[_random_vector(rng, M) for _ in range(workloads.VECTORS_PER_MATRIX)] for M in mats]
    s.setup_done()

    rec = tracer.Recorder() if traced else None
    planned, plans = [], []
    for idx, (M, vs) in enumerate(zip(mats, vecs)):
        s.guard_cold()
        t0 = time.perf_counter()
        try:
            _plan(M, vs[0], rec)
        except Exception:
            s.raised(f"plan of {M}")
            continue
        plans.append((t0, time.perf_counter()))
        s.check(True, "plan")
        planned.append((idx, M, vs))

    clock = time.perf_counter
    trips = []  # (matrix index, t0, t1, t2, reference seconds per raw second)
    s.log.pause()
    for idx, M, vs in planned:
        nv = len(vs)
        probe = speed.FFTProbe(M.absdet)
        for i in range(workloads.WARMUP_ROUNDTRIPS):
            probe()
            latfft.idft(latfft.dft_fast(vs[i % nv]))
        begin, i = clock(), 0
        before = probe()
        while (i < workloads.ROUNDTRIPS_PER_MATRIX
               or clock() - begin < workloads.ROUNDTRIP_STAGE_S / len(mats)):
            a = vs[i % nv]
            i += 1
            try:
                t0 = clock()
                ahat = latfft.dft_fast(a)
                t1 = clock()
                back = latfft.idft(ahat)
                t2 = clock()
            except Exception:
                s.raised(f"round trip on {M}")
                before = probe()
                continue
            after = probe()
            trips.append((idx, t0, t1, t2, probe.weight(before, after)))
            before = after
            s.check(_roundtrip_ok(a, ahat, back), f"round trip or Parseval on {M}")
    s.timing_done()

    s.record("plan_s", plans)
    # round-trip times per matrix (empty where the plan raised), in microseconds
    per_matrix = [[t for t in trips if t[0] == idx] for idx in range(len(mats))]
    s.out["roundtrip_us"] = [[1e6 * (t2 - t0) * w for _, t0, _, t2, w in ts] for ts in per_matrix]
    s.out["raw"]["roundtrip_us"] = [[1e6 * (t2 - t0) for _, t0, _, t2, _ in ts] for ts in per_matrix]

    if rec is not None:
        log = s.log
        # medians per matrix, summed over the matrices (as plan_s is)
        fwd_us = sum(float(np.median([1e6 * (t1 - t0) * w for _, t0, t1, _, w in ts]))
                     for ts in per_matrix if ts)
        inv_us = sum(float(np.median([1e6 * (t2 - t1) * w for _, _, t1, t2, w in ts]))
                     for ts in per_matrix if ts)
        enum_s = rec.durations("intlat.enum", log.reference)
        points = sum(M.absdet for _, M, _ in planned)
        s.out["layers"] = {
            "intlat.snf_s": rec.durations("intlat.snf", log.reference),
            "intlat.enum_s": enum_s,
            "intlat.enum_points": points,
            "intlat.enum_us_per_point": 1e6 * enum_s / max(points, 1),
            "latfft.plan_s": rec.durations("latfft.first_fft", log.reference),
            "latfft.dft_fast_us": fwd_us,
            "latfft.idft_us": inv_us,
            # base: latfft.dft_fast_us, the warm dft_fast medians summed over the matrices
            "latfft.enum_to_fft_ratio": enum_s / (1e-6 * fwd_us) if fwd_us else math.nan,
        }
        s.out["spans"] = rec.spans

    for rows in spec["naive"]:
        M = intlat.IntMat.from_rows(rows)
        try:
            a = _random_vector(rng, M)
            fast, slow = latfft.dft_fast(a).values, latfft.dft(a).values
        except Exception:
            s.raised(f"naive check on {M}")
            continue
        err = float(np.max(np.abs(fast - slow))) / max(1.0, float(np.max(np.abs(slow))))
        s.check(err <= tol.FAST_VS_NAIVE, f"dft_fast differs from naive dft on {M} by {err:.3g}")


def main(argv, log: speed.SpeedLog, t_start: float) -> int:
    p = argparse.ArgumentParser(prog="sample.py", description="One cold benchmark stage.")
    p.add_argument("stage", choices=("report", "fft"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = workloads.spec(args.workload)
    rng = np.random.default_rng([args.seed, args.sample])
    s = Sample(args.stage, bool(args.trace), log, t_start)
    (run_report if args.stage == "report" else run_fft)(spec, rng, s, bool(args.trace))
    json.dump(s.out, sys.stdout)
    sys.stdout.write("\n")
    return 0
