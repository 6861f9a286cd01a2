"""One-dimensional DIRECT with the potentially-optimal-interval test.

Also provides the translation-shift construction showing that DIRECT is
not invariant under adding a constant to the objective: for a suitable
interval j the returned shift threshold ``delta_f`` guarantees that any
translation larger than ``delta_f / eps`` removes j from the set of
potentially optimal intervals.

A partition is immutable: its half-lengths, midpoint values, f_min, its
exact-length groups with their lowest values, and its equal-length dominance
mask are built once, as read-only arrays, and every test of it reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError
from .optimizer import csv_text, exact_value

# Slack applied to the Lipschitz-bound inequalities; exact boundary
# equality is measure-zero fragile in floating point.
FEASIBILITY_SLACK = 1e-12

# Half-lengths within this relative tolerance count as equal; trisection
# produces same-generation intervals whose widths differ only in the
# last few ulps.
DELTA_EQ_REL = 1e-9

DEFAULT_EPSILON = 1e-4


@dataclass(frozen=True)
class Interval:
    a: float
    b: float
    fc: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError("interval needs a < b")
        if not math.isfinite(self.fc):
            raise ValueError("midpoint value must be finite")

    @property
    def delta(self) -> float:
        return 0.5 * (self.b - self.a)


@dataclass(frozen=True)
class DirectPartition:
    """Intervals in partition order; immutable, its arrays built once."""

    intervals: tuple
    epsilon: float = DEFAULT_EPSILON
    f_min: float = field(init=False)
    deltas: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)
    # the distinct half-lengths, each interval's index into them, and each one's lowest fc
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    group: np.ndarray = field(init=False, repr=False, compare=False)
    group_min: np.ndarray = field(init=False, repr=False, compare=False)
    # dominated[j]: another interval as long as j has fc below fc_j - FEASIBILITY_SLACK
    dominated: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        intervals = tuple(self.intervals)
        if not intervals:
            raise ValueError("partition must contain at least one interval")
        object.__setattr__(self, "intervals", intervals)
        deltas = np.array([iv.delta for iv in intervals], dtype=float)
        values = np.array([iv.fc for iv in intervals], dtype=float)
        object.__setattr__(self, "f_min", float(values.min()))
        # The length classes relate the distinct half-lengths only, so each
        # class's lowest fc is the minimum of its exact-length groups' minima.
        lengths, group = np.unique(deltas, return_inverse=True)
        group_min = np.full(lengths.size, np.inf)
        np.minimum.at(group_min, group, values)
        _, same, _ = _length_classes(lengths, np.arange(lengths.size))
        class_min = np.where(same, group_min, np.inf).min(axis=1)
        for name, array in (("deltas", deltas), ("values", values), ("lengths", lengths),
                            ("group", group), ("group_min", group_min),
                            ("dominated", class_min[group] < values - FEASIBILITY_SLACK)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def to_json(self) -> str:
        return json.dumps({
            "epsilon": self.epsilon,
            "intervals": [{"a": iv.a, "b": iv.b, "fc": iv.fc}
                          for iv in self.intervals],
        }, indent=2)


@dataclass(frozen=True)
class PotentialOptimality:
    decision: bool
    # feasible Lipschitz range when accepted, violated bound otherwise
    l_lo: float
    l_hi: float
    reason: str


# The one result of every dominated interval; frozen, so it is shared.
_DOMINATED = PotentialOptimality(False, math.nan, math.nan, "dominated by an equal-length interval")


def _checked_index(partition: DirectPartition, j: int) -> int:
    if not (0 <= j < len(partition.intervals)):
        raise IndexError(f"interval index {j} out of range")
    return j


def _length_classes(deltas: np.ndarray, j):
    """Masks of the intervals shorter than j, as long as j (j included), and longer.

    Half-lengths within ``DELTA_EQ_REL`` of each other count as equal.  An
    index array j gives one row of each mask per index.  The caller checks j.
    """
    dj = deltas[j, None]
    gap = deltas - dj
    tol = DELTA_EQ_REL * np.maximum(deltas, dj)
    return gap < -tol, np.abs(gap) <= tol, gap > tol


def potentially_optimal(partition: DirectPartition, j: int) -> PotentialOptimality:
    """Closed-form test for whether interval j could hold the best bound.

    Accepts iff some L > 0 gives interval j the smallest Lipschitz lower
    bound and that bound undercuts f_min by the required relative margin.
    The partition's dominance mask rejects most intervals before any array
    work.  The rest compare j with each exact-length group's lowest fc: the
    group's intervals share one divisor, so its extreme slope is that one's.
    """
    if partition.dominated[_checked_index(partition, j)]:
        return _DOMINATED
    lengths, lowest = partition.lengths, partition.group_min
    shorter, _, longer = _length_classes(lengths, partition.group[j])
    dj, fj = partition.deltas[j], partition.values[j]
    f_min = partition.f_min
    eps = partition.epsilon

    l_lo = (fj - f_min + eps * abs(f_min)) / dj
    if shorter.any():
        l_lo = max(l_lo, float(((fj - lowest[shorter]) / (dj - lengths[shorter])).max()))
    l_hi = math.inf
    if longer.any():
        l_hi = float(((lowest[longer] - fj) / (lengths[longer] - dj)).min())

    if l_hi <= 0:
        return PotentialOptimality(False, l_lo, l_hi, "no positive L admissible")
    if max(l_lo, 0.0) <= l_hi + FEASIBILITY_SLACK:
        return PotentialOptimality(True, l_lo, l_hi, "feasible L range")
    return PotentialOptimality(False, l_lo, l_hi, "lower bound exceeds upper bound")


def counterexample_shift(partition: DirectPartition, j: int) -> float:
    """Translation threshold delta_f for interval j.

    For any delta > delta_f / epsilon, interval j is no longer
    potentially optimal once every midpoint value is shifted by delta.
    The potentially optimal test runs last, only for a j that passes the others.
    """
    deltas, values = partition.deltas, partition.values
    _, _, longer = _length_classes(deltas, _checked_index(partition, j))
    dj, fj = deltas[j], values[j]
    if np.any(values <= 0):
        raise PreconditionError("all midpoint values must be positive")
    if not longer.any():
        raise PreconditionError(f"interval {j} has no strictly longer neighbour")
    if not potentially_optimal(partition, j).decision:
        raise PreconditionError(f"interval {j} is not potentially optimal")
    slopes = (values[longer] - fj) / (deltas[longer] - dj)
    k = int(np.argmin(slopes))
    f_plus = values[longer][k]
    d_plus = deltas[longer][k]
    f_min = partition.f_min
    eps = partition.epsilon
    return float((f_plus - fj) * dj / (d_plus - dj) - fj + (1.0 - eps) * f_min)


def trisect(interval: Interval, objective: Callable):
    """Split an interval into thirds; the middle third keeps the known value."""
    a, b = interval.a, interval.b
    w = (b - a) / 3.0
    left = Interval(a, a + w, _evaluate(objective, a + 0.5 * w))
    mid = Interval(a + w, a + 2.0 * w, interval.fc)
    right = Interval(a + 2.0 * w, b, _evaluate(objective, b - 0.5 * w))
    return [left, mid, right]


def _evaluate(objective: Callable, x: float) -> float:
    return float(exact_value(objective(x), x))


@dataclass
class DirectTrace:
    iterations: list = field(default_factory=list)  # list of dicts
    partition: Optional[DirectPartition] = None  # after the last subdivision

    def to_csv(self) -> str:
        return csv_text([["iter", "subdivided_indices", "f_min", "n_intervals"]] + [
            [rec["iter"], ";".join(str(i) for i in rec["subdivided_indices"]),
             rec["f_min"], rec["n_intervals"]] for rec in self.iterations])


def _subdivide(partition: DirectPartition, chosen, objective: Callable) -> DirectPartition:
    """Trisect the chosen intervals, keeping the order of the partition."""
    chosen = set(chosen)
    return DirectPartition([part for idx, iv in enumerate(partition.intervals)
                            for part in (trisect(iv, objective) if idx in chosen else [iv])],
                           partition.epsilon)


def direct_iterations(objective: Callable, lower: float, upper: float,
                      epsilon: float, budget: int):
    """DIRECT on [lower, upper] as a lazy sequence of at most ``budget`` iterations.

    Yields (iteration, partition, chosen) before subdividing the chosen
    intervals, so a caller that stops evaluates and tests nothing more.  A bad
    budget, region or epsilon raises ``ValueError`` before any evaluation.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    DirectPartition([Interval(lower, upper, 0.0)], epsilon)  # checks region and epsilon
    root = Interval(lower, upper, _evaluate(objective, 0.5 * (lower + upper)))
    partition = DirectPartition([root], epsilon)
    for it in range(1, budget + 1):
        if it > 1:
            partition = _subdivide(partition, chosen, objective)
        chosen = [j for j in range(len(partition.intervals))
                  if potentially_optimal(partition, j).decision]
        yield it, partition, chosen


def run_direct(objective: Callable, lower: float, upper: float,
               epsilon: float = DEFAULT_EPSILON, budget: int = 10):
    """DIRECT iterations on [lower, upper]; returns (partition, trace).

    The partition is the one after the last subdivision; the trace holds it too.
    """
    trace = DirectTrace()
    for it, partition, chosen in direct_iterations(objective, lower, upper, epsilon, budget):
        trace.iterations.append({
            "iter": it,
            "subdivided_indices": chosen,
            "f_min": partition.f_min,
            "n_intervals": len(partition.intervals) + 2 * len(chosen),
        })
    trace.partition = _subdivide(partition, chosen, objective)
    return trace.partition, trace
