"""Self-tests of the benchmark: the smoke inputs (Example 4.8 plus a tiny
lattice) run through the code path every workload uses, in both modes,
and the output must match the schema that ``BENCHMARK.json`` declares.

    python3 -m pytest -q vpbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("vpbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_output_schema(trace):
    proc = run_bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, m["name"]
    text = "\n".join(lines[:-1])
    assert "failed_frac = 0" in text
    assert "cold_guard" in text and ": ok" in text
    env = json.loads(text.split("env: ", 1)[1].splitlines()[0])
    assert env["seed"] == 3 and env["traced"] is bool(trace)
    assert env["thread_pinning"]["OMP_NUM_THREADS"] == "1"


def test_traced_counters_repeat():
    counters = ("dlvp.profile_evals", "dlvp.coeffs_kept", "admissible.periodized_sum_calls",
                "intlat.enum_points", "intlat.index_of_calls")
    runs = []
    for seed in (1, 2):
        proc = run_bench(ROOT, "--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    for name in counters:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "vpbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "report_vp", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
