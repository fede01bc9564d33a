"""A short fixed reference block, timed while a measurement runs, to gauge the machine's speed.

On a shared host the same call can take half as long again, or twice as
long, when other tenants load the physical cores, and that load changes
within seconds and drifts over minutes.  SpeedSampler times the reference
block from a SIGALRM handler every `interval` seconds while a protocol call
(or the set-up) runs, in the main thread and so on the core the call runs
on.  The call's own time is its wall time minus the time spent in the
handler, and its time at the reference speed is that times the mean of
REFERENCE_S / sample over the samples (see README.md).

The block uses no sosrep code, so no change to the library can move it, and
no threaded BLAS call, so thread settings do not either.  It mixes, in about
equal parts, the kinds of work the protocols do: matrix-vector products in a
Python loop, too small for OpenBLAS to thread (the solver's pattern),
cos/sin over an array (the SDO feature map), an exp over a pairwise-difference
tensor (the closed-form kernels) and a plain Python loop (interpreter
overhead).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Time the block takes on the reference machine (a 2-vCPU Xeon VM at 2.0 GHz,
# Python 3.11, numpy with OpenBLAS 0.3.31) when no other tenant loads it.
# Times at the reference speed read in seconds at that speed.
REFERENCE_S = 0.008

_rng = np.random.default_rng(20230725)
_A = _rng.standard_normal((90, 90)) / 9.5
_v0 = _rng.standard_normal(90)
_X = _rng.standard_normal((2000, 2))
_W = _rng.standard_normal((2, 24))
_P = _rng.standard_normal((35, 2))
_Q = _rng.standard_normal((1400, 2))


def reference_block() -> float:
    """Run the fixed computation once; returns a checksum so nothing is skipped."""
    v = _v0
    for _ in range(300):
        v = _A @ v
        v = v / np.sqrt(v @ v)
    phase = _X[:, :1] * _W[0] + _X[:, 1:] * _W[1]
    feat = np.cos(phase).sum() + np.sin(phase).sum()
    d = _Q[:, None, :] - _P[None, :, :]
    kde = np.exp(-0.5 * (d * d).sum(axis=-1)).sum()
    s = 0
    for i in range(35_000):
        s += i & 7
    return float(v[0] + feat + kde + s)


class SpeedSampler:
    """Times the reference block once at start and then every `interval` s until stopped.

    `relative_speed()` is the mean of REFERENCE_S / sample, below 1 when the
    machine runs slower than the reference; `spent` is the time the samples
    inside the measured interval took, to be subtracted from it.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_block()
        self.samples.append(time.perf_counter() - t0)

    @property
    def spent(self) -> float:
        return sum(self.samples[1:])  # the first is taken before the measured interval

    def start(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def relative_speed(self) -> float:
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
