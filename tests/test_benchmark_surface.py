"""The parts of the package that the benchmark in ``vpbench/`` reads.

``vpbench/stages.py`` reads module attributes directly, and its tracer wraps
more of them by name, skipping a name it cannot find; so a removed or
renamed function would drop a metric without an error.  These tests pin
every name ``stages.py`` reads and the behaviour it relies on.
"""

import ast
import math
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np

from vpwave import admissible, dlvp, intlat, latfft, mra, tol

STAGES = Path(__file__).resolve().parent.parent / "vpbench" / "stages.py"
MODULES = {"admissible": admissible, "dlvp": dlvp, "intlat": intlat, "latfft": latfft,
           "mra": mra, "tol": tol}


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]`` for an attribute chain on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _stage_reads() -> tuple[set[tuple[str, ...]], list[tuple[tuple[str, ...], str]]]:
    """The ``module.attr...`` chains of ``stages.py`` rooted at a package
    module, and the ``(owner chain, name)`` pairs its tracer wraps, with the
    names of a ``for name in (...)`` loop expanded."""
    tree = ast.parse(STAGES.read_text())
    chains = {tuple(c) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              for c in [_dotted(node)] if c and c[0] in MODULES}
    loop_names = {}
    for loop in ast.walk(tree):
        if (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, ast.Tuple)
                and all(isinstance(e, ast.Constant) for e in loop.iter.elts)):
            for node in ast.walk(loop):
                loop_names[id(node)] = (loop.target.id, [e.value for e in loop.iter.elts])
    traced = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("trace_spans", "trace_calls")):
            owner, name = node.args[0], node.args[1]
            if isinstance(name, ast.Constant):
                names = [name.value]
            else:
                var, names = loop_names[id(node)]
                assert name.id == var
            traced += [(tuple(_dotted(owner)), n) for n in names]
    return chains, traced


def _resolve(chain):
    return reduce(getattr, chain[1:], MODULES[chain[0]])


def test_every_name_the_benchmark_reads_exists():
    chains, traced = _stage_reads()
    # the scan itself must see the benchmark's reads
    assert ("mra", "build_report") in chains and ("intlat", "IntMat", "from_rows") in chains
    assert len(traced) >= 10
    missing = [".".join(c) for c in sorted(chains) if not hasattr(_resolve(c[:-1]), c[-1])]
    missing += [f"{'.'.join(o)}.{n}" for o, n in traced if not callable(getattr(_resolve(o), n, None))]
    assert not missing, f"names vpbench/stages.py reads are gone: {missing}"


def test_report_stage_behaviour():
    # run_report and its scaling_profile oracle, on the smoke inputs (Example 4.8)
    chn = intlat.chain(intlat.IntMat.from_rows([[10, -4], [6, 4]]),
                       [intlat.IntMat.from_rows([[1, 1], [0, 2]])])
    g = admissible.parse_admissible("tensor_linear(alpha = 1/10)", chn.dim)
    assert isinstance(dlvp.scaling_spectrum.cache_info().currsize, int)
    assert mra.build_report(chn, g).ok is True
    for level in range(chn.n_levels + 1):
        sf = dlvp.scaling_spectrum(chn, level, g)
        spectrum = sf.spectrum
        keys = sorted(spectrum.coeffs)
        assert len(sf.spectrum) == len(keys) > 0
        assert all(type(k) is tuple and all(type(v) is int for v in k) for k in keys)
        # spectrum[k] is the dict lookup with 0.0 off the support, on every
        # point of the support's bounding box widened by one, with Python or
        # numpy integers
        K = np.array(keys)
        box = list(product(*(range(a, b + 1) for a, b in zip(K.min(axis=0) - 1, K.max(axis=0) + 1))))
        assert len(box) > len(keys)
        for k in box:
            assert spectrum[k] == spectrum.coeffs.get(k, 0.0)
            assert spectrum[tuple(np.array(k))] == spectrum[k]
        M, root = chn.matrix(level), math.sqrt(chn.size(level))
        worst = max(abs(spectrum[k] - float(dlvp.scaling_profile(chn, level, g, M.inv_T_apply(k))) / root)
                    for k in box[::7])
        assert worst <= tol.TWO_SCALE


def test_fft_stage_behaviour():
    M = intlat.IntMat.from_rows([[1, 0], [3, 16]])
    for build in (intlat.smith_normal_form, intlat.generating_set, intlat.pattern):
        build(M)
        build(M.T)
    rng = np.random.default_rng(0)
    a = latfft.PatternVector(matrix=M, values=rng.standard_normal(M.absdet)
                             + 1j * rng.standard_normal(M.absdet))
    ahat = latfft.dft_fast(a)
    back = latfft.idft(ahat)
    assert float(np.max(np.abs(back.values - a.values))) <= tol.FAST_VS_NAIVE
    assert float(np.max(np.abs(ahat.values - latfft.dft(a).values))) <= tol.FAST_VS_NAIVE * M.absdet
