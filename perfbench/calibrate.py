"""Machine-speed calibration for the revem benchmark.

The benchmark shares its machine with other tenants.  Measured second by
second, the same code there runs up to twice as slow while neighbours are
busy, and process CPU time grows with wall time, so the slowdown is not
steal time that CPU clocks could leave out.  Slow phases last from seconds
to minutes, longer than one run.

A fixed unit of work shaped like revem's hot paths is therefore timed
between ops: a Python-level loop of small numpy solves, exponentials and dot
products, as in the damped-Newton kernel, then small SVDs, Cholesky solves
and complex Hermitian eigendecompositions, as in the kernel bases, the
Newton steps and the quantum systems.  Every reported time is scaled to
the speed at which that unit takes ``REFERENCE_S``: a time in seconds
*at reference speed*.  A change to revem moves the ops and not the unit, so
it shows in full; a busy neighbour slows both and cancels out.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# About the time of one unit on an idle 2.1 GHz vCPU of the machine the
# baseline was measured on; it fixes the scale of every reported time.
REFERENCE_S = 2.0e-3
# Least time between two samples taken around ops.
GAP_S = 0.05
# Samples nearest in time to an op that set its scale.
NEAREST = 5

_rng = np.random.default_rng(2403)
_m = _rng.normal(size=(8, 8))
_A = _m @ _m.T + 8.0 * np.eye(8)
_B = _rng.normal(size=8)
_W = _rng.normal(size=(8, 10))
_m = _rng.normal(size=(12, 12))
_S = _m @ _m.T + 12.0 * np.eye(12)
_m = _rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3))
_H = _m + _m.conj().T


def unit() -> float:
    x = np.zeros(8)
    s = 0.0
    for _ in range(75):
        x = x - 0.5 * np.linalg.solve(_A, _A @ x - _B)
        v = np.exp(x - x.max())
        s += float(v @ x) / float(v.sum())
    for _ in range(25):
        sv = np.linalg.svd(_W, compute_uv=False)
        y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(_S), _S[0])
        w = np.linalg.eigh(_H)[0]
        s += float(sv[0] + y[0] + w[0])
    return s


class Calibrator:
    """Unit timings, each stamped with the middle of its interval."""

    def __init__(self):
        self.at: list = []
        self.took: list = []
        self._last = float("-inf")

    def sample(self, n: int = 1):
        for _ in range(n):
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            self.at.append(0.5 * (start + end))
            self.took.append(end - start)
            self._last = end

    def maybe(self):
        """Take a sample if the last one is at least GAP_S old."""
        if time.perf_counter() - self._last >= GAP_S:
            self.sample()

    def scale(self, intervals):
        """Factors from measured to reference-speed time, one per (start,
        end) interval: REFERENCE_S over the median of the NEAREST samples to
        the interval's middle."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        out = []
        for start, end in intervals:
            nearest = np.argsort(np.abs(at - 0.5 * (start + end)))[:NEAREST]
            out.append(REFERENCE_S / float(np.median(took[nearest])))
        return out

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` between samples; return its result, its time at
        reference speed and its raw seconds."""
        self.sample(NEAREST)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.sample(NEAREST)
        raw = end - start
        return result, raw * self.scale([(start, end)])[0], raw
