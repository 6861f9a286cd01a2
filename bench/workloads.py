"""The benchmark's workloads: the operations each one runs and how their
outcomes are checked.

An operation is one homogeneity check, one extended-numeral scaled run
compared with a cached base trace, one DIRECT run, or one DIRECT
translation check.  Every objective an operation sees is wrapped by an
``EvalRecorder``, so step latencies are measured from outside the package:
a step is the time the optimizer spends between two objective evaluations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Callable

import numpy as np

from scaleopt import direct1d, grossone, harness, optimizer
from scaleopt.gp import CorrelationKernel
from scaleopt.objectives import BUILTIN_OBJECTIVES

# The paper's acceptance product, fixed for every seed.
A_VALUES = (3.9765, 2.0 ** 10, 1e6, 1e-8)
B_VALUES = (0.0, -7.3, 1e9)
ALGORITHMS = (optimizer.P_ALGORITHM, optimizer.ONE_STEP_BAYES)
ESTIMATORS = ("mle", "sample")
KERNEL_C = 5.0
SWEEP_BUDGET = 25

# The history grows to n = 5 + 60 on the 101 x 101 grid.
GRID2D_BUDGET = 60
# 17 steps per scaled run, six runs a pass: at least 100 steps per pass.  A
# 501-point grid keeps a pass near 8 s, so that a run repeats it.
NUMERAL_BUDGET = 17
NUMERAL_RESOLUTION = 501
# Partitions of 387, 1,673 and 333 intervals.
DIRECT_RUNS = (("sin3x2", 40), ("rastrigin1d", 24), ("gramacy-lee", 40))
DIRECT_EPSILON = 1e-4
DIRECT_CHECK_BUDGET = 6

# Per workload: (seconds of the run budget per pass, time limit per
# operation in seconds).  A run makes round(--seconds / seconds per pass)
# passes, at least one, so the number of passes never depends on how fast
# the machine happens to be.  At 15 s the 1-D sweeps, grid2d and numeral make
# 2 passes of about 6-8 s each and direct 5 of about 2.5 s, on a shared
# 2-core x86 machine.  The limit is several times the slowest operation of
# the workload.
TIMING = {"sweep1d": (7.5, 5.0), "illcond1d": (7.5, 5.0), "grid2d": (7.0, 60.0),
          "numeral": (7.5, 30.0), "direct": (3.0, 20.0)}
# Per workload: the kind of reference slice closest to its work (calibrate.py).
REFERENCE = {"sweep1d": "mixed", "illcond1d": "mixed", "grid2d": "arrays",
             "numeral": "python", "direct": "hull"}


class EvalRecorder:
    """Wraps objectives and records the start, end and point of each evaluation.

    Times are read from ``clock`` (a ``calibrate.Clock``), which may run a
    reference slice after an evaluation; the slice is not part of any step.
    """

    def __init__(self, clock):
        self.clock = clock
        self.tracer = None
        self.reset()

    def reset(self) -> None:
        self.starts = []
        self.ends = []
        self.points = []

    def wrap(self, fn: Callable) -> Callable:
        clock = self.clock.now
        tick = self.clock.tick

        def objective(x):
            tracer = self.tracer
            span = tracer.open("objectives.eval") if tracer is not None else -1
            start = clock()
            try:
                value = fn(x)
            finally:
                end = clock()
                if tracer is not None:
                    tracer.close(span)
            self.starts.append(start)
            self.ends.append(end)
            self.points.append(x if isinstance(x, float) else tuple(x.tolist()))
            tick()
            return value

        return objective


@dataclasses.dataclass
class Outcome:
    """What one operation did, and what the benchmark found when checking it."""

    key: str
    passed: bool
    detail: str
    steps: list
    evals: int
    digest: str
    problems: list = dataclasses.field(default_factory=list)
    # Exact counts the traced run must reproduce; empty when the operation raised.
    expect: dict = dataclasses.field(default_factory=dict)
    # Wall time of the operation, cut at the start and end of each evaluation.
    segments: list = dataclasses.field(default_factory=list)


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _grid_index(lower, upper, resolution=None) -> dict:
    """Map each candidate of the grid for the region to its index."""
    points = optimizer.CandidateGrid.for_region(lower, upper, resolution).points
    if points.shape[1] == 1:
        return {float(p[0]): i for i, p in enumerate(points)}
    return {tuple(p.tolist()): i for i, p in enumerate(points)}


def _grid_steps(rec: EvalRecorder, n0: int, length: int):
    """Step latencies of consecutive grid runs of ``length`` evaluations each."""
    steps = []
    for start in range(0, len(rec.starts), length):
        for j in range(start + n0, min(start + length, len(rec.starts))):
            steps.append(rec.starts[j] - rec.ends[j - 1])
    return steps


def _direct_steps(rec: EvalRecorder, root: int, trace):
    """Step latencies of a DIRECT run whose root evaluation has index ``root``.

    Returns the steps and the index one past the run's last evaluation.
    """
    steps = []
    pos = root + 1
    for record in trace.iterations:
        count = 2 * len(record["subdivided_indices"])
        if count and pos < len(rec.starts):
            steps.append(rec.starts[pos] - rec.ends[pos - 1])
        pos += count
    return steps, pos


def _direct_sizes(trace):
    """Partition size tested by each iteration of a DIRECT trace."""
    return [1] + [rec["n_intervals"] for rec in trace.iterations[:-1]]


def _direct_evals(trace, iterations=None) -> int:
    records = trace.iterations if iterations is None else trace.iterations[:iterations]
    return 1 + 2 * sum(len(rec["subdivided_indices"]) for rec in records)


def _tiling_problems(partition, lower, upper) -> list:
    ivs = partition.intervals
    ok = (ivs[0].a == lower and ivs[-1].b == upper
          and all(left.b == right.a for left, right in zip(ivs, ivs[1:])))
    return [] if ok else ["DIRECT partition does not tile the region"]


# -- operations ---------------------------------------------------------

@dataclasses.dataclass
class HomogeneityOp:
    """``harness.homogeneity_check``: a base run and a scaled run on the grid."""

    key: str
    algorithm: str
    objective: Callable
    lower: list
    upper: list
    a: float
    b: float
    budget: int
    kernel: CorrelationKernel
    estimator: str
    grid_index: dict
    n0: int = 5

    def call(self):
        return harness.homogeneity_check(
            self.algorithm, self.objective, self.lower, self.upper, self.a, self.b,
            budget=self.budget, kernel=self.kernel, estimator=self.estimator)

    def outcome(self, rec: EvalRecorder, report, error: str = "") -> Outcome:
        length = self.n0 + self.budget
        idx = [self.grid_index.get(p) for p in rec.points]
        runs = [idx[k * length + self.n0:(k + 1) * length] for k in (0, 1)]
        steps = _grid_steps(rec, self.n0, length)
        problems = []
        if any(i is None for run in runs for i in run):
            problems.append("an optimizer step evaluated a point off the grid")
        if report is None:
            return Outcome(self.key, False, error, steps, len(idx), _digest((runs, error)),
                           problems)
        if len(idx) != 2 * length:
            problems.append(f"{len(idx)} evaluations, expected {2 * length}")
        for k, s in enumerate(report.steps):
            if (s.iteration, s.index_base, s.index_scaled) != (k + 1, runs[0][k], runs[1][k]):
                problems.append(f"report step {s.iteration} disagrees with the evaluated points")
                break
        detail = "" if report.passed else f"mismatch at step {report.first_mismatch}"
        expect = {"evals": 2 * length, "gp.build_posterior": 2 * self.budget,
                  "grid_steps": 2 * self.budget}
        return Outcome(self.key, report.passed, detail, steps, len(idx), _digest(runs),
                       problems, expect)


@dataclasses.dataclass
class NumeralOp:
    """``grossone.scaled_criterion_run`` compared with a base trace from set-up."""

    key: str
    objective: Callable
    lower: float
    upper: float
    a: grossone.ExtendedNumeral
    b: grossone.ExtendedNumeral
    budget: int
    kernel: CorrelationKernel
    base: optimizer.OptimizationTrace
    grid_index: dict
    n0: int = 5

    def call(self):
        grid = optimizer.CandidateGrid.for_region([self.lower], [self.upper],
                                                  NUMERAL_RESOLUTION)
        trace, certificates = grossone.scaled_criterion_run(
            self.objective, self.a, self.b, [self.lower], [self.upper],
            budget=self.budget, kernel=self.kernel, grid=grid)
        report = harness.compare_traces(self.base, trace, optimizer.P_ALGORITHM,
                                        self.a, self.b)
        return trace, certificates, report

    def outcome(self, rec: EvalRecorder, result, error: str = "") -> Outcome:
        length = self.n0 + self.budget
        idx = [self.grid_index.get(p) for p in rec.points[self.n0:]]
        steps = _grid_steps(rec, self.n0, length)
        if result is None:
            return Outcome(self.key, False, error, steps, len(rec.points),
                           _digest((idx, error)))
        trace, certificates, report = result
        problems = []
        if idx != trace.grid_indices or len(trace.records) != length:
            problems.append("scaled trace disagrees with the evaluated points")
        collapsed = all(c.collapsed for c in certificates)
        passed = report.passed and collapsed
        detail = ("" if passed else "collapse certificate failed" if not collapsed
                  else f"mismatch at step {report.first_mismatch}")
        steps_done = len(trace.grid_indices)
        expect = {"evals": len(trace.records), "gp.build_posterior": steps_done,
                  "grid_steps": steps_done}
        return Outcome(self.key, passed, detail, steps, len(rec.points),
                       _digest(trace.grid_indices), problems, expect)


@dataclasses.dataclass
class DirectRunOp:
    """One ``direct1d.run_direct`` run on a built-in objective."""

    key: str
    objective: Callable
    lower: float
    upper: float
    budget: int

    def call(self):
        return direct1d.run_direct(self.objective, self.lower, self.upper,
                                   DIRECT_EPSILON, self.budget)

    def outcome(self, rec: EvalRecorder, result, error: str = "") -> Outcome:
        if result is None:
            return Outcome(self.key, False, error, [], len(rec.points), _digest(error))
        partition, trace = result
        steps, end = _direct_steps(rec, 0, trace)
        problems = _tiling_problems(partition, self.lower, self.upper)
        evals = _direct_evals(trace)
        if not (len(rec.points) == end == evals == len(partition.intervals)):
            problems.append("DIRECT evaluation count disagrees with its trace")
        subdivided = [rec["subdivided_indices"] for rec in trace.iterations]
        expect = {"evals": evals, "direct1d.potentially_optimal": sum(_direct_sizes(trace)),
                  "gp.build_posterior": 0, "grid_steps": 0}
        return Outcome(self.key, True, "", steps, len(rec.points), _digest(subdivided),
                       problems, expect)


@dataclasses.dataclass
class DirectCheckOp:
    """``harness.direct_homogeneity_check`` on a counterexample built in the operation.

    The shift is ``factor`` times the builder's shift, which is already above
    the threshold, so the check must find a mismatch.
    """

    key: str
    objective: Callable
    lower: float
    upper: float
    factor: float

    def call(self):
        built = harness.build_direct_counterexample(
            DIRECT_EPSILON, DIRECT_CHECK_BUDGET, self.objective, self.lower, self.upper)
        case = dataclasses.replace(built, shift=self.factor * built.shift)
        mismatch, base, shifted = harness.direct_homogeneity_check(case)
        return built, mismatch, base, shifted

    def outcome(self, rec: EvalRecorder, result, error: str = "") -> Outcome:
        if result is None:
            return Outcome(self.key, False, error, [], len(rec.points), _digest(error))
        built, mismatch, base, shifted = result
        found = built.found_at_iteration
        builder_evals = _direct_evals(base, found - 1)
        base_steps, end = _direct_steps(rec, builder_evals, base)
        shifted_steps, end = _direct_steps(rec, end, shifted)
        evals = builder_evals + _direct_evals(base) + _direct_evals(shifted)
        problems = []
        if not (len(rec.points) == end == evals):
            problems.append("DIRECT evaluation count disagrees with its traces")
        passed = mismatch is not None
        detail = "" if passed else "translation check found no mismatch"
        tested = (sum(_direct_sizes(base)[:found]) + 1
                  + sum(_direct_sizes(base)) + sum(_direct_sizes(shifted)))
        expect = {"evals": evals, "direct1d.potentially_optimal": tested,
                  "gp.build_posterior": 0, "grid_steps": 0}
        payload = (found, mismatch, [r["subdivided_indices"] for r in base.iterations],
                   [r["subdivided_indices"] for r in shifted.iterations])
        return Outcome(self.key, passed, detail, base_steps + shifted_steps,
                       len(rec.points), _digest(payload), problems, expect)


# -- workload construction ------------------------------------------------

@dataclasses.dataclass
class Workload:
    ops: list            # one pass, in order
    warmup: list         # run once in set-up, not timed
    pass_seconds: float  # share of the run's seconds per pass
    time_limit: float    # seconds per operation


def _acceptance_product(rec, kernel):
    grid_index = {name: _grid_index([lo], [hi])
                  for name, (_, (lo, hi)) in BUILTIN_OBJECTIVES.items()}
    ops = []
    for algorithm in ALGORITHMS:
        for estimator in ESTIMATORS:
            for name, (fn, (lo, hi)) in sorted(BUILTIN_OBJECTIVES.items()):
                for a in A_VALUES:
                    for b in B_VALUES:
                        ops.append(HomogeneityOp(
                            f"{algorithm}/{estimator}/{name} a={a:g} b={b:g}",
                            algorithm, rec.wrap(fn), [lo], [hi], a, b, SWEEP_BUDGET,
                            kernel, estimator, grid_index[name]))
    warmup = [dataclasses.replace(ops[0], budget=3)]
    return ops, warmup


def _surface(rng):
    """A smooth 2-D test surface on [0, 1]^2: three wells, a tilt and a ripple."""
    centers = rng.uniform(0.1, 0.9, size=(3, 2)).tolist()
    widths = rng.uniform(0.08, 0.25, size=3).tolist()
    depths = rng.uniform(0.5, 2.0, size=3).tolist()
    tx, ty = rng.uniform(-0.5, 0.5, size=2).tolist()
    fx, fy = rng.uniform(3.0, 9.0, size=2).tolist()
    wells = [(cx, cy, 2.0 * w * w, d) for (cx, cy), w, d in zip(centers, widths, depths)]

    def surface(x):
        x0, x1 = float(x[0]), float(x[1])
        value = tx * x0 + ty * x1 + 0.2 * math.sin(fx * x0) * math.cos(fy * x1)
        for cx, cy, two_w2, depth in wells:
            value -= depth * math.exp(-((x0 - cx) ** 2 + (x1 - cy) ** 2) / two_w2)
        return value

    return surface


def _grid2d(rec, kernel, rng):
    grid_index = _grid_index([0.0, 0.0], [1.0, 1.0])
    a = float(10.0 ** rng.uniform(-1.0, 2.0))
    b = float(rng.uniform(-50.0, 50.0))
    ops = [HomogeneityOp(f"surface budget={GRID2D_BUDGET} a={a:.6g} b={b:.6g}",
                         optimizer.P_ALGORITHM, rec.wrap(_surface(rng)), [0.0, 0.0],
                         [1.0, 1.0], a, b, GRID2D_BUDGET, kernel, "mle", grid_index)]
    warmup = [dataclasses.replace(ops[0], budget=3)]
    return ops, warmup


def _numeral(rec, kernel, rng):
    monomial = grossone.ExtendedNumeral.monomial
    scalings = [
        (monomial(float(rng.uniform(0.5, 5.0)), 1), monomial(float(rng.uniform(-10.0, 10.0)), 2)),
        (monomial(float(rng.uniform(0.5, 5.0)), -1),
         grossone.ExtendedNumeral.from_real(float(rng.uniform(-10.0, 10.0)))),
    ]
    ops = []
    for name, (fn, (lo, hi)) in sorted(BUILTIN_OBJECTIVES.items()):
        base = optimizer.run(
            optimizer.P_ALGORITHM, fn, [lo], [hi], budget=NUMERAL_BUDGET, kernel=kernel,
            grid=optimizer.CandidateGrid.for_region([lo], [hi], NUMERAL_RESOLUTION))
        grid_index = _grid_index([lo], [hi], NUMERAL_RESOLUTION)
        for a, b in scalings:
            ops.append(NumeralOp(f"{name} a={a} b={b}", rec.wrap(fn), lo, hi, a, b,
                                 NUMERAL_BUDGET, kernel, base, grid_index))
    warmup = [dataclasses.replace(ops[0], budget=2)]
    return ops, warmup


def _direct(rec, rng):
    ops = []
    for name, budget in DIRECT_RUNS:
        fn, (lo, hi) = BUILTIN_OBJECTIVES[name]
        ops.append(DirectRunOp(f"run {name} budget={budget}", rec.wrap(fn), lo, hi, budget))
    for name, (fn, (lo, hi)) in sorted(BUILTIN_OBJECTIVES.items()):
        # Lifted so every midpoint value is positive, as the counterexample needs.
        lift = float(rng.uniform(1.5, 3.0))
        factor = float(rng.uniform(1.01, 10.0))
        lifted = rec.wrap(lambda x, fn=fn, lift=lift: fn(x) + lift)
        ops.append(DirectCheckOp(f"check {name}+{lift:.6g} shift x{factor:.6g}",
                                 lifted, lo, hi, factor))
    warmup = [dataclasses.replace(ops[0], budget=5), ops[-1]]
    return ops, warmup


WORKLOADS = ("sweep1d", "illcond1d", "grid2d", "numeral", "direct")


def build(name: str, seed: int, rec: EvalRecorder) -> Workload:
    """The operations of workload ``name``; generated parts come from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "sweep1d":
        ops, warmup = _acceptance_product(rec, CorrelationKernel("exponential", KERNEL_C))
    elif name == "illcond1d":
        ops, warmup = _acceptance_product(
            rec, CorrelationKernel("squared-exponential", KERNEL_C))
    elif name == "grid2d":
        ops, warmup = _grid2d(rec, CorrelationKernel("exponential", KERNEL_C), rng)
    elif name == "numeral":
        ops, warmup = _numeral(rec, CorrelationKernel("exponential", KERNEL_C), rng)
    elif name == "direct":
        ops, warmup = _direct(rec, rng)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(ops, warmup, *TIMING[name])
