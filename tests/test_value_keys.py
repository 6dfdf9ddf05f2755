"""Hash and equality of the value objects that key the package's caches.

``IntMat``, ``ChainSpec`` and ``AdmissibleFn`` compute their hash once and
keep it on the instance; ``IntMat`` keeps its transpose too.  Equal values
built different ways must hash equal and hit the same cache entries, in
this process and after a pickle round trip, also from another process.
Every object of the package's immutable classes refuses assignment and
deletion, while its cached properties still fill in on first use.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vpwave import dlvp
from vpwave.admissible import AdmissibleFn, parse_admissible
from vpwave.dlvp import ScalingFunction, scaling_spectrum, two_scale, wavelet_spectrum
from vpwave.errors import FrozenValue
from vpwave.intlat import (J_D, J_X, J_Y, ChainSpec, IntMat, _Frozen, chain, generating_set,
                           pattern, smith_normal_form)
from vpwave.latfft import PatternVector, dft_fast
from vpwave.mra import build_report

ENTRY_RANGE = {1: 512, 2: 20, 3: 6}


@st.composite
def regular_matrices(draw, max_det=512):
    d = draw(st.integers(1, 3))
    r = ENTRY_RANGE[d]
    rows = draw(st.lists(st.lists(st.integers(-r, r), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    M = IntMat.from_rows(rows)
    assume(0 < M.absdet <= max_det)
    return M


def assert_same_key(a, b):
    assert a is not b
    assert a == b and hash(a) == hash(b)
    for c in (pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))):
        assert c == a and hash(c) == hash(a)


@settings(max_examples=40, deadline=None)
@given(M=regular_matrices())
def test_equal_matrices_hash_equal(M):
    d = M.dim
    eye = IntMat.identity(d)
    for other in (IntMat.from_rows(M.to_lists()), IntMat(M.entries), M.T.T, M @ eye, eye @ M,
                  IntMat.from_rows(M.T.to_lists()).T):
        assert_same_key(M, other)
    assert M.T is M.T
    assert M.T == IntMat.from_rows(zip(*M.to_lists()))
    bumped = M.to_lists()
    bumped[0][0] += 1
    assert IntMat.from_rows(bumped) != M
    # a distinct but equal instance hits the cache entry of the first
    assert generating_set(M) is generating_set(IntMat.from_rows(M.to_lists()))
    assert generating_set(M.T) is generating_set(IntMat.from_rows(M.T.to_lists()))


FACTORS = [J_D, J_X, J_Y]


@settings(max_examples=20, deadline=None)
@given(picks=st.lists(st.sampled_from(range(3)), min_size=1, max_size=4), data=st.data())
def test_equal_chains_hash_equal(picks, data):
    M0 = IntMat.diagonal([data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))])
    factors = [FACTORS[i] for i in picks]
    n = data.draw(st.integers(0, len(factors)))
    short = chain(M0, factors[:n])
    assert_same_key(short, chain(M0, factors).subchain(n))
    assert_same_key(short, chain(IntMat.from_rows(M0.to_lists()),
                                 [IntMat.from_rows(J.to_lists()) for J in factors[:n]]))
    if n < len(factors):
        assert chain(M0, factors[:n + 1]) != short
    g = AdmissibleFn.characteristic(2)
    assert scaling_spectrum(short, n, g) is scaling_spectrum(chain(M0, factors).subchain(n), n, g)


def test_equal_windows_hash_equal():
    pairs = [
        (parse_admissible("characteristic", 2), AdmissibleFn.characteristic(2)),
        (parse_admissible("tensor_linear(alpha = 1/10)", 2),
         AdmissibleFn.tensor_linear([F(1, 10), F(1, 10)])),
        (parse_admissible("tensor_linear(alpha = [0.25, 1/8])", 2),
         AdmissibleFn.tensor_linear(["1/4", 0.125])),
        (parse_admissible("tensor_smoothed(p = [1/20, 1/14], order = 3)", 2),
         AdmissibleFn.tensor_smoothed([F(1, 20), F(1, 14)], order=3)),
    ]
    c = chain(IntMat.diagonal([4, 4]), [J_D])
    for parsed, built in pairs:
        assert_same_key(parsed, built)
        assert scaling_spectrum(c, 1, parsed) is scaling_spectrum(c, 1, built)
    assert pairs[1][0] != AdmissibleFn.tensor_linear([F(1, 10), F(1, 9)])
    assert (AdmissibleFn.tensor_smoothed([F(1, 20)] * 2, order=2)
            != AdmissibleFn.tensor_smoothed([F(1, 20)] * 2, order=3))


def test_pickles_from_another_process_hash_anew():
    # string hashes differ between processes, so a hash made under another
    # PYTHONHASHSEED must not travel with the pickle
    code = ("import pickle, sys; from vpwave.admissible import parse_admissible; "
            "from vpwave.intlat import J_D, IntMat, chain; "
            "sys.stdout.write(pickle.dumps((parse_admissible('tensor_linear(alpha = 1/10)', 2), "
            "chain(IntMat.diagonal([4, 4]), [J_D]), IntMat.from_rows([[3, 1], [1, 2]]))).hex())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    g, c, M = pickle.loads(bytes.fromhex(out.stdout))
    here = (AdmissibleFn.tensor_linear([F(1, 10)] * 2), chain(IntMat.diagonal([4, 4]), [J_D]),
            IntMat.from_rows([[3, 1], [1, 2]]))
    for loaded, built in zip((g, c, M), here):
        assert loaded == built and hash(loaded) == hash(built)
    assert scaling_spectrum(c, 1, g) is scaling_spectrum(here[1], 1, here[0])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_immutable_class_refuses_assignment_and_deletion():
    g = AdmissibleFn.tensor_linear([F(1, 10)] * 2)
    c = chain(IntMat.diagonal([4, 4]), [J_D, J_X])
    M = c.matrix(2)
    sf = scaling_spectrum(c, 1, g)
    a = PatternVector(matrix=M, values=np.ones(M.absdet))
    report = build_report(c, g)
    objects = [M, c, g, smith_normal_form(M), generating_set(M), pattern(M), sf, sf.spectrum,
               wavelet_spectrum(c, 0, g), two_scale(c, 0, g), a, dft_fast(a), report,
               report.levels[0]]
    classes = {type(obj) for obj in objects}
    # a new immutable class must be listed here too
    assert classes >= {cls for cls in _subclasses(_Frozen) if not cls.__name__.startswith("_")}
    for obj in objects:
        name = next(iter(vars(obj)))
        for attempt in (lambda: setattr(obj, name, None), lambda: setattr(obj, "extra", 1),
                        lambda: delattr(obj, name)):
            with pytest.raises(FrozenValue):
                attempt()
            with pytest.raises(AttributeError):
                attempt()
        assert name in vars(obj) and "extra" not in vars(obj)


def test_cached_properties_fill_in_once_on_frozen_objects(monkeypatch):
    M = IntMat.from_rows([[3, 1], [-1, 2]])
    assert M.T is M.T and M.det == 7 and vars(M)["det"] == 7
    calls = []
    sums = dlvp.class_powers
    monkeypatch.setattr(dlvp, "class_powers", lambda fn: calls.append(fn) or sums(fn))
    c, g = chain(IntMat.diagonal([4, 4]), [J_D]), AdmissibleFn.characteristic(2)
    fresh = ScalingFunction(c, 1, g, scaling_spectrum(c, 1, g).spectrum)
    assert fresh.powers is fresh.powers and calls == [fresh]
    assert not fresh.powers.flags.writeable


def test_value_reprs_are_constructor_calls():
    M = IntMat.from_rows([[1, 0], [0, 2]])
    assert repr(M) == "IntMat(entries=((1, 0), (0, 2)))"
    assert eval(repr(M)) == M
    c = chain(IntMat.diagonal([2, 2]), [J_D])
    assert eval(repr(c)) == c
    assert repr(chain(IntMat.diagonal([2, 2]), [J_D])) == (
        "ChainSpec(M0=IntMat(entries=((2, 0), (0, 2))), factors=(IntMat(entries=((1, -1), "
        "(1, 1))),))")
    assert repr(parse_admissible("tensor_smoothed(p = [1/20, 1/8], order = 3)", 2)) == (
        "AdmissibleFn(kind='tensor_smoothed', dim=2, alpha=(Fraction(1, 20), Fraction(1, 8)), "
        "order=3)")
    # the linear ramp is the order-1 smoothed window
    assert repr(AdmissibleFn.tensor_linear([F(1, 10)])) == (
        "AdmissibleFn(kind='tensor_smoothed', dim=1, alpha=(Fraction(1, 10),), order=1)")
    # a value of another class is never equal, and the comparison is left to it
    assert M.__eq__(M.entries) is NotImplemented and M != M.entries
