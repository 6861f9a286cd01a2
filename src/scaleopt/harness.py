"""Affine-scaling comparison harness.

Runs an algorithm on an objective and on its affinely scaled counterpart
``a*f + b`` and compares the selected grid indices step by step.  One
scaled run serves every scaling: ``grossone.scaled_criterion_run`` forms
``a*f + b`` exactly and normalizes it, whether a and b are finite,
infinite or infinitesimal.  The surrogate-based algorithms are expected to
produce identical sequences; DIRECT is expected to diverge on a suitably
constructed translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import acquisition as acq, direct1d, grossone, objectives as obj, optimizer
from .errors import ConfigError, PreconditionError
from .gp import DEFAULT_ESTIMATOR, CorrelationKernel, EvaluationHistory, build_posterior


@dataclass(frozen=True)
class StepComparison:
    iteration: int
    index_base: int
    index_scaled: int
    match: bool
    near_tie: bool  # always False: any divergence is a mismatch


@dataclass
class ComparisonReport:
    algorithm: str
    a: object
    b: object
    steps: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.match for s in self.steps)

    @property
    def first_mismatch(self) -> Optional[int]:
        for s in self.steps:
            if not s.match:
                return s.iteration
        return None

    def summary_lines(self):
        lines = []
        for s in self.steps:
            tag = "match" if s.match else "MISMATCH"
            lines.append(f"step {s.iteration}: base={s.index_base} "
                         f"scaled={s.index_scaled} {tag}")
        lines.append("PASS" if self.passed else "FAIL")
        return lines


def compare_traces(base, scaled, algorithm: str, a, b) -> ComparisonReport:
    """Step-by-step grid-index comparison of two optimization traces.

    Both runs feed the model bit-identical values, so any divergence is a
    failure.  After it the two histories differ and later steps carry no
    information, so the comparison ends there.
    """
    report = ComparisonReport(algorithm, a, b)
    for rb, rs in zip(base.steps, scaled.steps):
        match = rb.grid_index == rs.grid_index
        report.steps.append(StepComparison(rb.iteration, rb.grid_index,
                                           rs.grid_index, match, False))
        if not match:
            break
    return report


def homogeneity_check(algorithm: str, objective: Callable, lower, upper, a=1, b=0,
                      **options) -> ComparisonReport:
    """Compare a base run against the run on a*f + b.

    a and b may be floats or extended numerals (numeral strings accepted);
    a must be positive, and an extended a a single term, which is checked
    before anything is evaluated.  The base run is ``optimizer.run`` on f;
    the scaled run is ``grossone.scaled_criterion_run`` for every scaling,
    finite, infinite or infinitesimal, so the scaled values are never
    rounded and the scaled trace is in the normalized frame.  Both take
    ``options``, with ``optimizer.grid_run``'s defaults, and so one grid:
    the default one is interned (``CandidateGrid.for_region``), so the scaled
    run replays the base run's point-only model state while its points are
    the base run's, and a later check on the region replays it again.  The
    comparison reads only grid indices.
    """
    a_num = grossone.positive_scale(a)
    b_num = grossone.as_numeral(b)
    base = optimizer.run(algorithm, objective, lower, upper, **options)
    scaled, _ = grossone.scaled_criterion_run(objective, a_num, b_num, lower, upper,
                                              algorithm=algorithm, **options)
    return compare_traces(base, scaled, algorithm, a, b)


# -- five-point planning example --------------------------------------

def fig1_reproduction(estimator: str = DEFAULT_ESTIMATOR,
                      epsilon: float = optimizer.DEFAULT_EPSILON,
                      resolution: Optional[int] = None):
    """One planning step of the P-algorithm on the five-point example data.

    Evaluates posterior mean, standard deviation and the improvement
    criterion on a grid over [0, 1] for the raw values and for the
    affinely related second data set computed exactly as a*f + b, and
    reports the criterion argmax of each by the run's own grid and
    selection rule (``optimizer.CandidateGrid``, ``optimizer.argmax_criterion``).
    """
    points = np.array(obj.FIG1_POINTS)[:, None]
    f_vals = np.array(obj.FIG1_F_VALUES)
    phi_exact = obj.FIG1_A * f_vals + obj.FIG1_B
    printed_dev = float(np.abs(np.array(obj.FIG1_PHI_VALUES) - phi_exact).max())
    kernel = CorrelationKernel(c=obj.FIG1_KERNEL_C)  # the exponential family
    grid = optimizer.CandidateGrid.for_region([0.0], [1.0], resolution)
    xs = grid.points

    out = {"x": xs.ravel(), "printed_phi_deviation": printed_dev,
           "a": obj.FIG1_A, "b": obj.FIG1_B}
    for tag, vals in (("f", f_vals), ("phi", phi_exact)):
        history = EvaluationHistory([0.0], [1.0], points, vals)
        posterior = build_posterior(history, kernel, estimator)
        asp = acq.aspiration(history, posterior.parameters, epsilon)
        means, variances, _ = posterior.moments_grid(xs)
        crit, _ = acq.criterion_grid(acq.P_CRITERION, posterior, asp, xs)
        out[f"m_{tag}"] = means
        out[f"s_{tag}"] = np.sqrt(variances)
        out[f"crit_{tag}"] = crit
        out[f"y_on_{tag}"] = asp.y_on
        out[f"argmax_{tag}"] = optimizer.argmax_criterion(
            acq.P_CRITERION, posterior, asp, grid, history.visited(xs)).grid_index
    return out


# -- DIRECT translation counterexample --------------------------------

@dataclass(frozen=True)
class DirectCounterexample:
    objective: Callable
    lower: float
    upper: float
    epsilon: float
    budget: int
    shift: float
    interval_index: int
    found_at_iteration: int
    delta_f: float


def _default_direct_objective(x):
    return (x - 0.31) ** 2 + 1.0


def build_direct_counterexample(epsilon: float = direct1d.DEFAULT_EPSILON,
                                budget: int = 6,
                                objective: Callable = _default_direct_objective,
                                lower: float = 0.0, upper: float = 1.0,
                                ) -> DirectCounterexample:
    """Find a translation that changes which intervals DIRECT subdivides.

    Runs DIRECT on the base objective for at most ``budget`` iterations and
    takes the first potentially optimal interval that meets the
    preconditions of ``direct1d.counterexample_shift``, which derives its
    shift threshold; any translation above threshold/epsilon removes that
    interval from the potentially optimal set.
    """
    for it, partition, chosen in direct1d.direct_iterations(objective, lower, upper,
                                                            epsilon, budget):
        for j in chosen:
            try:
                delta_f = direct1d.counterexample_shift(partition, j)
            except PreconditionError:
                continue
            shift = 1.01 * delta_f / epsilon if delta_f > 0 else 1.0
            return DirectCounterexample(objective, lower, upper, epsilon,
                                        budget, shift, j, it, delta_f)
    raise ConfigError("no suitable interval found; increase the budget")


def direct_homogeneity_check(case: DirectCounterexample):
    """Run DIRECT on f and on f + shift and compare the intervals each subdivides.

    Returns (mismatch_iteration or None, base_trace, shifted_trace).  Comparing
    indices is exact: equal choices up to an iteration leave equal intervals.
    """
    _, base = direct1d.run_direct(case.objective, case.lower, case.upper,
                                  case.epsilon, case.budget)
    _, shifted = direct1d.run_direct(lambda x: case.objective(x) + case.shift,
                                     case.lower, case.upper, case.epsilon, case.budget)
    mismatch = next((rb["iter"] for rb, rs in zip(base.iterations, shifted.iterations)
                     if rb["subdivided_indices"] != rs["subdivided_indices"]), None)
    return mismatch, base, shifted
