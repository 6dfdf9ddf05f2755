"""vpwave benchmark: cold MRA reports and lattice FFTs, end to end or per layer.

    python3 vpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/vpwave`` is imported from
there.  Workloads are listed in ``BENCHMARK.json`` and ``workloads.py``;
``--workload smoke`` runs the small self-test inputs through the same
code.  Each sample starts fresh interpreters (``sample.py``), one per
stage (a short stage is repeated), so every cold timed call meets
empty caches.  Sampling stops once another sample would not fit in
``--seconds``, after at least ``MIN_SAMPLES``.

Times are reported in seconds at a reference speed (see ``speed.py``),
because the speed of the host's vCPUs drifts by up to 2x.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` each sample adds a traced report and the fft
stage runs traced, and the per-layer metrics are reported.  Every metric is
printed by name and unit, then a results file with the environment, the
per-sample records and the spans is written under ``vpbench/out/``, and the
last line of standard output is the JSON summary.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_SAMPLES = {0: 2, 1: 1}
# A stage is repeated in fresh processes within its sample until the repeats
# took this long, so a short report or plan still gives several values a run.
STAGE_MIN_S = 2.0
# No new sample starts once one could end past this; a run must exit in 180 s.
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Stages of one sample: (stage, traced).  The traced report is paired with an
# untraced one in the same sample, which gives trace.overhead_ratio.
STAGES = {0: (("report", False), ("fft", False)),
          1: (("report", False), ("report", True), ("fft", True))}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_stage(stage: str, traced: bool, args, sample: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), stage,
           "--workload", args.workload, "--seed", str(args.seed),
           "--sample", str(sample), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{stage} sample {sample} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{stage} sample {sample} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sample(args, index: int, deadline: float) -> list[dict]:
    out = []
    for stage, traced in STAGES[args.trace]:
        t = time.monotonic()
        out.append(run_stage(stage, traced, args, index, deadline))
        while time.monotonic() - t < STAGE_MIN_S:
            out.append(run_stage(stage, traced, args, index, deadline))
    return out


def collect(args) -> list[list[dict]]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 20.0
    samples, durations = [], []
    while True:
        t = time.monotonic()
        samples.append(run_sample(args, len(samples), deadline))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > RUN_LIMIT_S:
            break
        if len(samples) >= MIN_SAMPLES[args.trace] and elapsed + statistics.median(durations) > args.seconds:
            break
    return samples


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples) -> tuple[dict, dict, list[str]]:
    children = [c for smp in samples for c in smp]
    reports = [c for c in children if c["stage"] == "report"]
    ffts = [c for c in children if c["stage"] == "fft"]
    # per matrix, pooled over the samples; percentiles summed over the matrices
    trips = [[t for c in ffts for t in c["roundtrip_us"][i]]
             for i in range(len(ffts[0]["roundtrip_us"]))]
    pooled = min(len(ts) for ts in trips)
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "report_s": statistics.median(c["report_s"] for c in reports),
        "plan_s": statistics.median(c["plan_s"] for c in ffts),
        "roundtrip_us_p50": sum(percentile(ts, 50) for ts in trips if len(ts) > 1),
        "roundtrip_us_p90": sum(percentile(ts, 90) for ts in trips if len(ts) > 1),
        "peak_rss_mb": statistics.median(max(c["peak_rss_mb"] for c in smp) for smp in samples),
    }
    notes = {
        "setup_s": f"median of {len(children)} set-ups",
        "report_s": f"median of {len(reports)} cold reports",
        "plan_s": f"median of {len(ffts)} cold plans, summed over the workload's matrices",
        "roundtrip_us_p50": f"sum over {len(trips)} matrices, >= {pooled} warm round trips each",
        "roundtrip_us_p90": f"sum over {len(trips)} matrices, >= {pooled} warm round trips each",
        "peak_rss_mb": f"median over {len(samples)} samples of the larger stage process",
    }
    # The p99 follows how often the host preempts a round trip, which changes
    # between runs far more than any bound could hold, so it is printed but
    # not gated (see README.md).
    p99 = sum(percentile(ts, 99) for ts in trips if len(ts) > 1)
    info = [f"roundtrip_us_p99 = {p99:.6g} us  (sum over {len(trips)} matrices, >= {pooled} "
            "warm round trips each; not in BENCHMARK.json)"]
    return values, notes, info


def per_layer(samples) -> tuple[dict, dict, list[str]]:
    traced = [c for smp in samples for c in smp if c["traced"]]
    untraced = [c for smp in samples for c in smp if c["stage"] == "report" and not c["traced"]]
    keys = {k for c in traced for k in c["layers"]}
    values = {}
    for k in keys:
        vals = [c["layers"][k] for c in traced if k in c["layers"]]
        # counters stay whole numbers
        values[k] = (statistics.median_low if all(isinstance(v, int) for v in vals)
                     else statistics.median)(vals)
    values["trace.overhead_ratio"] = (values.pop("traced_report_s")
                                      / statistics.median(c["report_s"] for c in untraced))
    notes = {k: f"median over the traced stages of {len(samples)} samples" for k in values}
    notes["trace.overhead_ratio"] = (f"traced / untraced report_s, medians of {len(samples)} "
                                     "samples each")
    return values, notes, []


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment(args, samples) -> dict:
    first = samples[0][0]
    return {
        "git_commit": git_commit(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pinning": {v: "1" for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "vpwave")):
        print(f"vpbench: no vpwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload != "smoke" and args.workload not in workloads.WORKLOADS:
        print(f"vpbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    compileall.compile_dir(SRC, quiet=1)  # set-up then imports bytecode in every sample

    try:
        samples = collect(args)
    except BenchError as exc:
        print(f"vpbench: {exc}", file=sys.stderr)
        return 1
    values, notes, info = (per_layer if args.trace else end_to_end)(samples)
    children = [c for smp in samples for c in smp]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    guard = [g for c in children for g in c["cold_guard"]]

    correct = failed == 0
    if set(values) != set(declared):
        correct = False
        print(f"vpbench: metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
    for c in children:
        for note in c["failures"]:
            print(f"vpbench: {c['stage']}: {note}", file=sys.stderr)

    env = environment(args, samples)
    speeds = [c["speed"] for c in children]
    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}  "
          f"samples {len(samples)}  speed {min(speeds):.3f}..{max(speeds):.3f} "
          "(times below are at the reference speed; raw times are in the results file)")
    for name, unit in declared.items():
        if name in values:
            print(f"  {name} = {values[name]:.6g} {unit}  ({notes[name]})")
    for line in info:
        print(f"  {line}")
    print(f"  failed_frac = {failed / max(attempted, 1):.6g}  ({failed} failed of {attempted} "
          "operations: oracle checks, plans, round trips, calls that raised)")
    print(f"  cold_guard: scaling_spectrum.cache_info().currsize == 0 before "
          f"{len(guard)} cold timed calls: {'ok' if all(g in (0, None) for g in guard) else 'VIOLATED'}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": values, "attempted": attempted, "failed": failed,
                   "cold_guard": guard, "samples": samples}, fh)
    print(f"  results: {os.path.relpath(path, ROOT)}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
