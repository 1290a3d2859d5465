"""Fixed reference computations that gauge how fast the host runs right now.

The 2-vCPU host this benchmark was built on drifts in speed by tens of
percent over seconds to minutes, so two 20-second runs of the same code
can differ by a quarter.  The worker therefore times a gauge right after
every job.  A gauge is a fixed computation written here, in the
benchmark, so it never changes with the program, and it does the same kind
of work as the workload's jobs.  A job's latency is scaled by
`nominal_s / gauge time`: it reads as the job's latency on a host running
at the speed at which NOMINAL_S was taken.  Raw figures stay in the run
report.

Parts:

- calls: a recursive adaptive Simpson rule in plain Python, i.e. function
  calls and float arithmetic in the interpreter;
- small_arrays: numpy ufuncs on arrays of a dozen elements, where call
  dispatch dominates;
- big_arrays: numpy ufuncs and reductions over a 16 x 4096 array, where
  memory bandwidth dominates;
- matvec: power-iteration steps with a 256 x 256 matrix;
- text: float formatting and string joins, as in CSV output.
"""

from __future__ import annotations

import math
import time

import numpy as np

_clock = time.perf_counter


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson(f, a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson(
        f, mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _calls():
    def f(y):
        return math.exp(-0.5 * y * y) * (1.0 + 0.1 * math.cos(y))

    a, b = -12.0, 12.0
    fa, fm, fb = f(a), f(0.0), f(b)
    return _simpson(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 1e-9, 40)


_SMALL = np.linspace(0.05, 0.95, 12)


def _small_arrays():
    acc = 0.0
    for k in range(150):
        lam = 0.05 + 0.01 * k
        p = _SMALL / _SMALL.sum()
        sup = p > 0.0
        acc += math.log(float(np.sum(p[sup] ** (1.0 + lam) * p[::-1][sup] ** (-lam)))) / lam
    return acc


_BIG = np.random.default_rng(0).random((16, 4096)) + 0.01
# Preallocated, so that the time does not depend on the allocator's state,
# which the program's own allocations change.
_LOGS = np.empty_like(_BIG)
_TMP = np.empty_like(_BIG)
_REV = np.empty_like(_BIG)
_ROWS = np.empty(16)


def _big_arrays():
    acc = 0.0
    for lam in (0.3, 0.7, 1.1, 1.5, 1.9):
        np.log(_BIG, out=_LOGS)
        np.multiply(_LOGS, 1.0 + lam, out=_TMP)
        np.multiply(_LOGS[::-1], lam, out=_REV)
        np.subtract(_TMP, _REV, out=_TMP)
        np.exp(_TMP, out=_TMP)
        np.sum(_TMP, axis=1, out=_ROWS)
        acc += float(np.log(_ROWS).sum())
    return acc


_MAT = np.random.default_rng(1).standard_normal((256, 256))
_MAT = (_MAT + _MAT.T) / 2.0


def _matvec():
    v = np.ones(256) / 16.0
    for _ in range(40):
        w = _MAT @ v
        v = w / np.linalg.norm(w)
    return float(v @ (_MAT @ v))


def _text():
    rows = []
    for i in range(400):
        x = 1.0 + i * 0.37
        rows.append(",".join((f"{x:.6g}", repr(math.log(x)), f"{1.0 / x:.17g}")))
    return len("\n".join(rows))


PARTS = {
    "calls": _calls,
    "small_arrays": _small_arrays,
    "big_arrays": _big_arrays,
    "matvec": _matvec,
    "text": _text,
}

# Median time of each part on the host the first baseline was taken on
# (see README.md).  A host running at that speed reads as speed 1.
NOMINAL_S = {
    "calls": 0.80e-3,
    "small_arrays": 2.80e-3,
    "big_arrays": 2.00e-3,
    "matvec": 0.85e-3,
    "text": 1.10e-3,
}


class Gauge:
    """The parts a workload is gauged with, run back to back."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._fns = [PARTS[p] for p in self.parts]
        self.nominal_s = sum(NOMINAL_S[p] for p in self.parts)

    def measure(self):
        """Seconds the parts take right now."""
        start = _clock()
        for fn in self._fns:
            fn()
        return _clock() - start

    def scale(self, seconds, gauge_s):
        """`seconds`, measured next to a gauge reading, at nominal host speed."""
        return seconds * self.nominal_s / gauge_s
