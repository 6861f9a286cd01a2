"""Sequential optimization loop over a deterministic candidate grid.

The acquisition argmax is computed on a fixed lattice with lowest-index
tie-breaking, so that two runs fed affinely related objective values can
be compared point by point.  One loop, ``grid_run``, serves ``run`` and
``grossone.scaled_criterion_run``.  A grid's candidates are distinct
points, so the run keeps its visited mask, built from the design, by
marking each step's index, and its observations in a
``gp.HistoryBuffer``, so a step copies no history.  The
model's point-only state (``gp.GridCorrelations``: the grid correlations,
the Cholesky factor and the grid variances) grows by one observation at
O(n**2 + n*m), and on a large grid the run's ``gp.MeanSums`` grows its
means by one O(m) row; the grid hands out one state per kernel and design size
(``CandidateGrid.correlations``), and ``CandidateGrid.for_region`` interns
its last grid, so a run on points another run has seen replays what that
run computed, bit for bit.

Objective values are read by one rule, ``exact_value``, which keeps
``int`` and ``Fraction`` values exact and rejects any not one finite real.  The
model sees only the exact normalization ``h = (y - y_0)/s`` of the values
(``AffineNormalization``), rounded once (an h beyond float64 range is an
``ObjectiveEvaluationError``), so runs on f and on ``a*f + b``
with any a > 0 feed it bit-identical inputs; both criteria are strongly
homogeneous, so this changes no choice in exact arithmetic.  Traces report
values in the objective's units: ``mu`` and ``y_on`` as ``y_0 + s*v``,
``sigma2`` as ``s**2 * sigma2`` and the expected improvement as
``s * EI``, each rounded once (to +-inf beyond float64 range); the
improvement-probability criterion is scale free.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import acquisition as acq
from .errors import (
    AllCandidatesDegenerateError,
    ObjectiveEvaluationError,
)
from .gp import (
    DEFAULT_ESTIMATOR,
    ESTIMATORS,
    CorrelationKernel,
    EvaluationHistory,
    GridCorrelations,
    HistoryBuffer,
    MeanSums,
    SurrogatePosterior,
    build_posterior,
    check_inside,
    lattice_separated,
)

P_ALGORITHM = "p-algorithm"
ONE_STEP_BAYES = "one-step-bayes"

_CRITERION_OF = {
    P_ALGORITHM: acq.P_CRITERION,
    ONE_STEP_BAYES: acq.EXPECTED_IMPROVEMENT,
}

# Criterion steps and aspiration margin of a run when none is given.
DEFAULT_BUDGET = 20
DEFAULT_EPSILON = 0.1


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class CandidateGrid:
    """Lexicographically ordered lattice of distinct points over a hyper-rectangle."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: int

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        axes = [np.linspace(lower[k], upper[k], self.resolution)
                for k in range(lower.size)]
        if not lattice_separated(axes):  # else two candidates are the same point
            raise ValueError("grid axes must increase in steps above the duplicate threshold")
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        points.flags.writeable = False  # shared by every step and caller
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_correlations", {})

    @classmethod
    def for_region(cls, lower, upper, resolution: Optional[int] = None) -> "CandidateGrid":
        """The grid over a region; the last one built is returned for the same bits."""
        if resolution is None:
            resolution = 1001 if np.size(lower) == 1 else 101
        bits = (np.atleast_1d(np.asarray(b, dtype=float)).tobytes() for b in (lower, upper))
        return _last_grid(cls, *bits, resolution)

    @property
    def points(self) -> np.ndarray:
        """The (m, d) candidates in lexicographic order, built once, read-only."""
        return self._points

    def correlations(self, kernel: CorrelationKernel, design_size: int = 0,
                     capacity: int = 0) -> GridCorrelations:
        """The model's point-only state on these candidates under ``kernel``.

        There is one per kernel and initial-design size, and the runs on this
        grid with both share it: a run on points another has seen replays that
        run's state (``GridCorrelations.rows``), with a fresh state's bits, as
        both ask for it at consecutive lengths from the design size.  Every
        call makes room for ``capacity`` points at once, so a run that asks
        for its whole length grows the state at most once.
        """
        key = (kernel, design_size)
        if key not in self._correlations:
            self._correlations[key] = GridCorrelations(self.points, kernel)
        state = self._correlations[key]
        state.reserve(capacity)
        return state


@functools.lru_cache(maxsize=1, typed=True)
def _last_grid(cls, lower: bytes, upper: bytes, resolution) -> CandidateGrid:
    """``for_region``'s memo of one grid (``-0.0`` is not ``0.0``); not for use across threads."""
    return cls(np.frombuffer(lower), np.frombuffer(upper), resolution)


@dataclass(frozen=True)
class Selection:
    point: np.ndarray
    grid_index: int
    value: float


def argmax_criterion(kind: str, posterior: SurrogatePosterior,
                     y_on: float, grid: CandidateGrid,
                     visited: np.ndarray) -> Selection:
    """Best candidate on the grid against level ``y_on``, lowest index on exact ties.

    Candidates coinciding with history points (the grid mask ``visited``)
    are excluded; degenerate candidates rank below every non-degenerate one.
    """
    points = grid.points
    values, degenerate = acq.criterion_grid(kind, posterior, y_on, points)
    return _select_excluding(values, np.logical_or(degenerate, visited, out=degenerate), points)


def _select_excluding(values: np.ndarray, excluded: np.ndarray, points: np.ndarray) -> Selection:
    """The candidate with the largest value that is not ``excluded``, lowest index
    on exact ties; it ranks ``values`` in place, each excluded entry becoming -inf."""
    np.copyto(values, -np.inf, where=excluded)
    idx = int(values.argmax())  # first occurrence = lowest index
    if excluded[idx]:  # no eligible candidate, or every eligible value is -inf
        if excluded.all():
            raise AllCandidatesDegenerateError(
                "no non-degenerate unvisited candidate on the grid")
        idx = int(excluded.argmin())
    return Selection(points[idx], idx, float(values[idx]))


def csv_text(rows) -> str:
    """Rows as CSV text, each line ending in a newline: the one CSV writer.

    A float cell is written as its ``repr``, a None cell as an empty one."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    grid_index: int
    point: np.ndarray
    value: float
    criterion: Optional[float]
    mu: Optional[float]
    sigma2: Optional[float]
    y_on: Optional[float]
    best: float
    degenerate_step: bool = False


@dataclass
class OptimizationTrace:
    algorithm: str
    records: list = field(default_factory=list)

    @property
    def steps(self) -> list:
        """The records of the criterion steps, those after the initial design."""
        return [r for r in self.records if r.iteration > 0]

    @property
    def grid_indices(self):
        return [r.grid_index for r in self.steps]

    @property
    def best_value(self) -> float:
        return self.records[-1].best

    @property
    def best_point(self) -> np.ndarray:
        best = min((r for r in self.records), key=lambda r: r.value)
        return best.point

    def _table(self):
        """The header, then each record's ints, floats and Nones."""
        dim = self.records[0].point.size if self.records else 1
        header = (["iter", "grid_index"] + [f"x{k}" for k in range(dim)]
                  + ["y", "criterion", "mu", "sigma2", "y_on", "best"])
        return [header] + [
            [r.iteration, r.grid_index, *map(float, r.point), float(r.value),
             *(None if v is None else float(v) for v in (r.criterion, r.mu, r.sigma2, r.y_on)),
             float(r.best)]
            for r in self.records]

    def to_csv(self) -> str:
        return csv_text(self._table())

    def to_json(self) -> str:
        header, *rows = self._table()
        return json.dumps({"algorithm": self.algorithm,
                           "records": [dict(zip(header, row)) for row in rows]}, indent=2)


def default_initial_design(lower, upper) -> np.ndarray:
    """Deterministic starting design: 5 equispaced points in 1-D, corners+center else."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.size == 1:
        return np.linspace(lower[0], upper[0], 5)[:, None]
    corners = np.stack(np.meshgrid(*zip(lower, upper), indexing="ij"),
                       axis=-1).reshape(-1, lower.size)
    center = 0.5 * (lower + upper)
    return np.vstack([corners, center[None, :]])


def exact_value(value, point):
    """An objective value, exactly as read: the one rule for reading one.

    ``int`` and ``Fraction`` values come back as exact ``Fraction``s; any
    other ``numbers.Real``, or a 0-d array of one, is read through ``float``
    and comes back as that float, with -0.0 read as 0.0.  Any other value,
    or one not finite or beyond float64, raises ``ObjectiveEvaluationError``.
    """
    if type(value) is float:  # the common case, without the checks below
        if math.isfinite(value):
            return value + 0.0
        raise ObjectiveEvaluationError(point, value)
    value = value[()] if isinstance(value, np.ndarray) else value  # a 0-d array's number
    try:  # float() would also read text and buffers, and a numpy complex's real part
        as_float = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        as_float = math.inf
    if not math.isfinite(as_float):
        raise ObjectiveEvaluationError(point, value)
    if type(value) is Fraction:  # immutable, so kept as it is
        return value
    return Fraction(value) if isinstance(value, (Fraction, int)) else as_float + 0.0


class AffineNormalization:
    """The map y -> (y - y_0)/s over one run's values, in exact arithmetic.

    y_0 is the first value and s = |y_k - y_0| for the first y_k != y_0,
    the max - min of the values at that observation; s is then fixed, and
    until it exists every value maps to 0.  Values may be ``Fraction``s or
    extended numerals.
    """

    def __init__(self):
        self.anchor = None
        self.scale = None

    def __call__(self, y):
        if self.anchor is None:
            self.anchor = y
        diff = y - self.anchor
        if self.scale is None and diff != 0:
            self.scale = diff if diff > 0 else -diff
        return diff if self.scale is None else diff / self.scale

    def rounded(self, y) -> float:
        """``float(self(Fraction(y)))`` for an exact number y, a float or a Fraction:
        once s exists, one correctly rounded int / int."""
        if self.scale is None:
            return float(self(Fraction(y)))
        (num, den), a, s = y.as_integer_ratio(), self.anchor, self.scale
        return (((num * a.denominator - a.numerator * den) * s.denominator)
                / (den * a.denominator * s.numerator))

    def restore(self, v: float, power: int = 1, shifted: bool = False) -> float:
        """``s**power * v``, plus y_0 if shifted, computed exactly and rounded once.

        A result beyond float64 range (or an infinite v) rounds to +-inf, as IEEE
        rounding does; the one ``int / int`` rounds correctly, as ``float(Fraction)`` does.
        """
        scale = self.scale or 1
        try:
            num, den = v.as_integer_ratio()
            num, den = num * scale.numerator ** power, den * scale.denominator ** power
            if shifted:
                num = num * self.anchor.denominator + self.anchor.numerator * den
                den *= self.anchor.denominator
            return num / den
        except OverflowError:  # s > 0 and |y_0| is finite, so the result has v's sign
            return math.copysign(math.inf, v)


def run(algorithm: str, objective: Callable, lower, upper, **options) -> OptimizationTrace:
    """Run a surrogate-guided optimization; ``options`` and their defaults are ``grid_run``'s."""
    return grid_run(algorithm, objective, lower, upper, **options)


def grid_run(algorithm: str, objective: Callable, lower, upper,
             initial_design: Optional[np.ndarray] = None, budget: int = DEFAULT_BUDGET,
             kernel: CorrelationKernel = CorrelationKernel(),
             estimator: str = DEFAULT_ESTIMATOR, epsilon: float = DEFAULT_EPSILON,
             grid: Optional[CandidateGrid] = None) -> OptimizationTrace:
    """The sequential run loop behind ``run`` and the extended-numeral run.

    It owns the design, the normalization, the model, the aspiration level,
    the criterion argmax, the evaluations and the records.  A step taken
    before any two values differ, whose model has zero spread, takes the
    lowest unvisited index instead of the argmax; every step, that fallback too, makes one observation and one
    record.  Every setting is checked before anything is evaluated, the design
    by ``EvaluationHistory``'s rules, the grid by its region rule and the
    budget against the candidates the design leaves unvisited.  The model's
    point-only state comes from ``grid.correlations``.
    """
    if algorithm not in _CRITERION_OF:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    acq.check_epsilon(epsilon)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator tag {estimator!r}")
    if initial_design is None:
        initial_design = default_initial_design(lower, upper)
    initial_design = np.atleast_2d(np.asarray(initial_design, dtype=float))
    design = EvaluationHistory(lower, upper, initial_design, np.zeros(len(initial_design)))
    grid = grid or CandidateGrid.for_region(lower, upper)
    points = grid.points
    check_inside(points, design.lower, design.upper)
    visited = design.visited(points)  # history.visited(points), kept by each step
    unvisited = np.count_nonzero(~visited)
    if budget > unvisited:
        raise ValueError(f"budget {budget} exceeds the {unvisited} grid candidates "
                         f"that the initial design leaves unvisited")
    kind = _CRITERION_OF[algorithm]

    trace = OptimizationTrace(algorithm)
    normalize = AffineNormalization()
    best = math.inf
    correlations = grid.correlations(kernel, design.n, design.n + budget)
    mean_sums = MeanSums()

    def observe(point):
        nonlocal best
        value = exact_value(objective(point if point.size > 1 else point[0]), point)
        try:
            h = normalize.rounded(value)
        except OverflowError:  # |y - y_0|/s beyond float64 range
            raise ObjectiveEvaluationError(point, float(value)) from None
        best = min(best, float(value))  # rounding is monotone: the rounded least value
        return h, float(value), best

    values = []
    for point in design.points:
        h, value, best_f = observe(point)
        values.append(h)
        trace.records.append(TraceRecord(0, -1, point, value, None, None, None,
                                         None, best_f))
    observed = HistoryBuffer(EvaluationHistory(lower, upper, design.points, values),
                             design.n + budget)

    for it in range(1, budget + 1):
        history = observed.history
        posterior = build_posterior(history, kernel, estimator, correlations, mean_sums)
        params = posterior.parameters
        mu = normalize.restore(params.mu, shifted=True)
        sigma2 = normalize.restore(params.sigma2, power=2)
        zero_spread = normalize.scale is None  # no two values differ yet
        if zero_spread:
            # Criterion undefined everywhere: take the lowest unvisited index.
            sel = _select_excluding(np.zeros(len(points)), visited, points)
            criterion = y_on = None
        else:
            level = acq.aspiration(history, params, epsilon)
            sel = argmax_criterion(kind, posterior, level, grid, visited)
            criterion = sel.value if kind == acq.P_CRITERION else normalize.restore(sel.value)
            y_on = normalize.restore(level, shifted=True)
        h, value, best_f = observe(sel.point)
        visited[sel.grid_index] = True  # candidates are distinct points
        observed.append(sel.point, h)
        trace.records.append(TraceRecord(it, sel.grid_index, sel.point, value, criterion,
                                         mu, sigma2, y_on, best_f,
                                         degenerate_step=zero_spread))
    return trace
