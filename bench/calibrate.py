"""Fixed reference computations that measure how fast the machine runs right now.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and that drift moves every timing the benchmark takes.  A
reference slice does the same kind of work as a workload but uses none of
the package's code, so no change to the package changes it.  Slices run
interleaved with the timed work; each timed figure is then rescaled to a
machine on which one slice takes its nominal time.

Co-tenants do not slow all kinds of work alike, so there are four kinds
of slice, and each workload uses the one closest to its own work:
- ``python``: interpreted Python on small objects (numeral runs);
- ``hull``: Lipschitz bounds of one interval against 300 others, from
  arrays rebuilt from the intervals' attributes each time (DIRECT);
- ``mixed``: 40% interpreted Python, 10% small Cholesky factorizations
  and 50% vector work on a 1,001-point grid (the 1-D homogeneity checks);
- ``arrays``: distances and kernels between a 101 x 101 grid and 16
  points (the 2-D checks).

The time spent in slices is taken out of the timed work by ``Clock``: its
reading stops while a slice runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import linalg

# A slice runs after every this many nominal slice times of timed work, so
# that slices take about 5% of a run.
INTERVAL_SLICES = 20


class _Term:
    """A small value object, so that the interpreted part allocates and dispatches."""

    __slots__ = ("coef", "power")

    def __init__(self, coef, power):
        self.coef = coef
        self.power = power

    def __mul__(self, other):
        return _Term(self.coef * other.coef, self.power + other.power)

    def __add__(self, other):
        if self.power == other.power:
            return _Term(self.coef + other.coef, self.power)
        return self if self.power > other.power else other


_RNG = np.random.default_rng(20260101)
_X = np.sort(_RNG.uniform(0.0, 1.0, 24))
_Y = np.sin(7.0 * _X)
_GRID = np.linspace(0.0, 1.0, 1001)
_GRID2 = np.stack(np.meshgrid(_GRID[::10], _GRID[::10]), axis=-1).reshape(-1, 2)
_X2 = _RNG.uniform(0.0, 1.0, (16, 2))
_Y2 = np.cos(5.0 * _X2[:, 0]) * _X2[:, 1]


def _python(rounds: int = 400) -> float:
    acc = _Term(0.0, 0)
    table = {}
    for i in range(rounds):
        term = _Term(0.5 + (i & 7), i % 3) * _Term(1.0 / (1 + i), -(i % 3))
        acc = acc + term
        table[i & 63] = acc.coef
    return acc.coef + sum(table.values())


def _mixed() -> float:
    total = _python()
    for _ in range(2):
        corr = np.exp(-5.0 * np.abs(_X[:, None] - _X[None, :])) + 1e-10 * np.eye(_X.size)
        total += float(linalg.cho_solve(linalg.cho_factor(corr, lower=True), _Y)[0])
    for _ in range(8):
        total += float(np.exp(-5.0 * np.abs(_GRID[:, None] - _X[None, :])).sum())
    return total


class _Interval:
    __slots__ = ("a", "b", "fc")

    def __init__(self, a, b, fc):
        self.a, self.b, self.fc = a, b, fc

    @property
    def delta(self) -> float:
        return 0.5 * (self.b - self.a)


_INTERVALS = [_Interval(0.0, 3.0 ** -int(k), float(v))
              for k, v in zip(_RNG.integers(1, 7, 300), _RNG.uniform(1.0, 2.0, 300))]


def _hull() -> float:
    total = 0.0
    for j in range(0, len(_INTERVALS), 17):
        deltas = np.array([iv.delta for iv in _INTERVALS])
        values = np.array([iv.fc for iv in _INTERVALS])
        dj, fj = deltas[j], values[j]
        same = np.abs(deltas - dj) <= 1e-9 * np.maximum(deltas, dj)
        shorter = (deltas < dj) & ~same
        longer = (deltas > dj) & ~same
        if shorter.any():
            total += float(((fj - values[shorter]) / (dj - deltas[shorter])).max())
        if longer.any():
            total += float(((values[longer] - fj) / (deltas[longer] - dj)).min())
    return total


def _arrays() -> float:
    dist = np.sqrt(((_GRID2[:, None, :] - _X2[None, :, :]) ** 2).sum(axis=-1))
    cross = np.exp(-5.0 * dist)
    visited = (dist < 1e-12).any(axis=1)
    return float((cross @ _Y2).argmax()) + float(visited.sum())


# Kind: (slice, seconds it takes at the speed the figures are scaled to).
# The nominal times are medians on a shared 2-core x86 VM with Python 3.11
# and OpenBLAS on one thread.
REFERENCES = {
    "python": (lambda: _python(1000), 0.0022),
    "hull": (_hull, 0.0024),
    "mixed": (_mixed, 0.0019),
    "arrays": (_arrays, 0.0092),
}


def slice_times(kind: str, count: int) -> list:
    """Seconds taken by each of ``count`` slices of ``kind`` run back to back."""
    reference = REFERENCES[kind][0]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return times


def scale(kind: str, times) -> float:
    """Factor that turns seconds measured beside these slices into seconds at nominal speed."""
    return REFERENCES[kind][1] / statistics.median(times)


class Clock:
    """A perf_counter whose reading stops while reference slices run.

    It runs no slices until ``calibrating`` is set.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.calibrating = False
        self.excluded = 0.0
        self.samples = []
        self._reference, nominal = REFERENCES[kind]
        self._interval = INTERVAL_SLICES * nominal
        self._next = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def tick(self) -> None:
        """Run a slice if enough timed work has passed since the last one."""
        if not self.calibrating:
            return
        start = time.perf_counter()
        if start < self._next:
            return
        self._reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.excluded += end - start
        self._next = end + self._interval

    def scale(self) -> float:
        return scale(self.kind, self.samples)
