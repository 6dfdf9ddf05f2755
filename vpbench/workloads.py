"""Workload inputs of the vpwave benchmark, as plain data.

Every workload runs the same two cold stages, each in its own fresh
interpreter (see ``sample.py``):

* ``report``: ``build_report(chain, window)`` on one dilation chain;
* ``fft``: for each FFT matrix, enumeration + plan + first ``dft_fast``,
  then warm ``idft(dft_fast(a))`` round trips on seeded vectors.

The workloads differ only in these inputs, so the metric a layer change
should move is decided by the inputs, not by a separate code path.  Why
each one was chosen is written in ``README.md`` next to this file.

The data stay free of ``vpwave`` objects: the parent process never
imports the package, and building ``IntMat``/``ChainSpec`` values is part
of the measured set-up of each sample process.
"""

J_D = [[1, -1], [1, 1]]
J_X = [[2, 0], [0, 1]]
J_Y = [[1, 0], [0, 2]]

# Example 4.8 of the paper: m 56 -> 112, the small reference report.
EXAMPLE_48 = {
    "m0": [[10, -4], [6, 4]],
    "factors": [[[1, 1], [0, 2]]],
    "window": "tensor_linear(alpha = 1/10)",
}

WORKLOADS = {
    # Wide VP ramps: each periodized_sum spans many shifts in Fraction
    # arithmetic, so window evaluation and spectrum construction dominate.
    "report_vp": {
        "m0": [[8, 0], [0, 8]],
        "factors": [J_D, J_X, J_D, J_Y],
        "window": "tensor_linear(alpha = 1/10)",
        # the chain's finest matrix M_4 (m = 1024)
        "fft": [[[8, -24], [48, -16]]],
        "naive": [[[8, -24], [48, -16]]],
    },
    # Cheap exact 0/1 window on a deep quincunx chain: candidate count
    # grows with depth, half-open boundaries are decided exactly.
    "report_dirichlet_deep": {
        "m0": [[1, 0], [0, 1]],
        "factors": [J_D] * 6,
        "window": "characteristic",
        # the chain's finest matrix M_6 (m = 64)
        "fft": [[[0, 8], [-8, 0]]],
        "naive": [[[0, 8], [-8, 0]]],
    },
    # Four m = 16384 lattices of different Smith shape; only intlat and
    # latfft do work apart from the small Example 4.8 reference report.
    "lattice_fft": {
        **EXAMPLE_48,
        "fft": [
            [[128, 0], [0, 128]],
            [[1, 0], [3, 16384]],
            # U diag(128,128) V with unimodular U = [[1,1],[0,1]] and
            # V = [[2,1],[1,1]]: Smith shape of diag(128,128), dense entries
            [[384, 256], [128, 128]],
            [[32, 0, 0], [0, 32, 1], [0, 0, 16]],
        ],
        # one m = 256 matrix of each shape family for the naive-DFT oracle
        "naive": [
            [[16, 0], [0, 16]],
            [[1, 0], [3, 256]],
            [[48, 32], [16, 16]],
            [[4, 0, 0], [0, 4, 1], [0, 0, 16]],
        ],
    },
}

# Smoke inputs for the benchmark's own tests: Example 4.8 plus a tiny
# lattice, through the same code path as every workload.
SMOKE = {
    **EXAMPLE_48,
    "fft": [[[1, 0], [3, 16]], [[2, 0, 0], [0, 2, 1], [0, 0, 4]]],
    "naive": [[[1, 0], [3, 16]], [[2, 0, 0], [0, 2, 1], [0, 0, 4]]],
}

# Warm round trips per matrix and fft sample process: at least this many,
# and more until the stage's round trips, with the speed probes between
# them, took ROUNDTRIP_STAGE_S (split evenly over its matrices).  With at
# least two samples a run pools >= 1000 per matrix, enough for the p90 and
# the printed p99; a longer window averages over more of the host's speed
# phases, which steadies the tail.
ROUNDTRIPS_PER_MATRIX = 512
ROUNDTRIP_STAGE_S = 1.0
# Untimed round trips per matrix before timing starts.
WARMUP_ROUNDTRIPS = 8
# Seeded vectors per FFT matrix that the round trips cycle through.
VECTORS_PER_MATRIX = 4
# Seeded frequencies per report level checked against scaling_profile.
ORACLE_FREQUENCIES = 48


def spec(name: str) -> dict:
    """Inputs of a workload, or of the smoke run for ``name == "smoke"``."""
    return SMOKE if name == "smoke" else WORKLOADS[name]
