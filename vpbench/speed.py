"""Times at a reference speed, for a host whose speed drifts.

On a shared host one vCPU runs interpreter-bound code up to about 2x
slower while a neighbour is busy on its sibling hardware thread.  The slow
phases last from tens of milliseconds to minutes, so two runs of the same
code can differ by far more than any bound a benchmark could hold.

A :class:`SpeedLog` samples the speed while the timed work runs.  An
interval timer (``SIGALRM``) interrupts the main thread every ``PERIOD_S``
and times a fixed pure-Python probe loop.  A timed interval is then
converted to *reference seconds*.  Each stretch between two probes is
weighted by ``NOMINAL_S / mean(the two probe times)``, and the probe time
inside the interval is left out.  The probe costs 2-3 % of the run.
The log starts before the measured imports and stops after the last timed
call, so every timed interval lies between two probes.

Round trips are converted differently.  They are far shorter than the
period, and their work is numpy-bound: a busy neighbour slows them by
another factor than it slows the interpreter, so the probe loop tracks
them poorly.  During the round trips the timer is paused, and the caller
runs an :class:`FFTProbe` of about the round trip's size between every two
calls.  A round trip is then weighted by ``nominal / mean(the probe before,
the probe after)``.
"""

import bisect
import signal
import time

PERIOD_S = 0.01
PROBE_LOOPS = 600
# Probe loop time at the reference speed (2-vCPU x86_64 container, CPython 3.11).
NOMINAL_S = 0.00015


# Time of one FFTProbe call at the reference speed, by probe size: the 5th
# percentile of its time over the 5th percentile of the probe loop's time,
# the two interleaved for 1 s, times NOMINAL_S; median of three such runs
# (the 2-vCPU x86_64 container above, numpy 2.4).
FFT_NOMINAL_S = {
    16: 6.39e-6, 32: 6.59e-6, 64: 6.97e-6, 128: 8.15e-6, 256: 9.30e-6, 512: 1.23e-5,
    1024: 1.83e-5, 2048: 3.09e-5, 4096: 5.66e-5, 8192: 1.23e-4, 16384: 3.95e-4,
}


def probe_loop() -> None:
    """Fixed interpreter-bound work: integer arithmetic, tuples, dict stores."""
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        x = (i * 7919) % 1013
        acc += x if x < 506 else -x
        table[(i % 31, x % 7)] = acc


class FFTProbe:
    """Fixed numpy-bound work sized like a round trip on ``m`` points: a
    gather and an FFT of ``n`` complex points, ``n`` the smallest size of
    ``FFT_NOMINAL_S`` that is at least ``m`` (else the largest)."""

    def __init__(self, m: int):
        # imported here: this module loads before set-up timing starts, and the
        # numpy import belongs to set-up
        import numpy as np

        sizes = sorted(FFT_NOMINAL_S)
        self.n = next((n for n in sizes if n >= m), sizes[-1])
        self.nominal = FFT_NOMINAL_S[self.n]
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        self._perm = rng.permutation(self.n)
        self._fft = np.fft.fft

    def __call__(self) -> float:
        """Run the probe once; return its time in seconds."""
        t = time.perf_counter()
        self._fft(self._x[self._perm])
        return time.perf_counter() - t

    def weight(self, before: float, after: float) -> float:
        """Reference seconds per raw second between two probe times."""
        return 2 * self.nominal / (before + after)


class SpeedLog:
    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._stops: list[float] = []

    def _probe(self, *_):
        t = time.perf_counter()
        probe_loop()
        self.probes.append((t, time.perf_counter()))

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def pause(self) -> None:
        """Stop the timer, so that no probe lands inside a short timed call."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        self._stops = [end for _, end in self.probes]

    def probe_seconds(self) -> list[float]:
        return [end - start for start, end in self.probes]

    def raw(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` outside the probes."""
        return self._measure(a, b, weighted=False)

    def reference(self, a: float, b: float) -> float:
        """Seconds the work done in ``[a, b]`` takes at the reference speed."""
        return self._measure(a, b, weighted=True)

    def _measure(self, a: float, b: float, weighted: bool) -> float:
        probes = self.probes
        # gap j runs from the end of probe j-1 to the start of probe j
        j = max(1, bisect.bisect_right(self._stops, a))
        total = 0.0
        while j < len(probes) and probes[j - 1][1] < b:
            lo = max(a, probes[j - 1][1])
            hi = min(b, probes[j][0])
            if hi > lo:
                if weighted:
                    d = (probes[j - 1][1] - probes[j - 1][0] + probes[j][1] - probes[j][0]) / 2
                    total += (hi - lo) * NOMINAL_S / d
                else:
                    total += hi - lo
            j += 1
        return total
