import contextlib
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleopt import acquisition as acq
from scaleopt import gp
from scaleopt import optimizer as opt
from scaleopt.errors import (
    AllCandidatesDegenerateError,
    DuplicatePointsError,
    NonFiniteEstimateError,
    ObjectiveEvaluationError,
)
from scaleopt.gp import CorrelationKernel, EvaluationHistory, build_posterior
from scaleopt.grossone import scaled_criterion_run
from scaleopt.harness import homogeneity_check
from scaleopt.objectives import get_objective, sin3x2

KERNEL = CorrelationKernel("exponential", 5.0)


class TestCandidateGrid:
    def test_deterministic_and_includes_corners(self):
        grid = opt.CandidateGrid.for_region([-1.0], [1.0], 11)
        pts = grid.points
        assert pts.shape == (11, 1)
        assert pts[0, 0] == -1.0 and pts[-1, 0] == 1.0
        np.testing.assert_array_equal(pts, grid.points)

    def test_points_built_once_and_read_only(self):
        grid = opt.CandidateGrid.for_region([0.0, 0.0], [1.0, 1.0], 5)
        assert grid.points is grid.points
        assert not grid.points.flags.writeable
        with pytest.raises(ValueError):
            grid.points[0, 0] = 7.0

    def test_default_resolutions(self):
        assert opt.CandidateGrid.for_region([0.0], [1.0]).resolution == 1001
        assert opt.CandidateGrid.for_region([0, 0], [1, 1]).resolution == 101

    def test_for_region_returns_the_grid_built_last_for_the_same_bits(self):
        grid = opt.CandidateGrid.for_region([0.0], [1.0])
        assert opt.CandidateGrid.for_region(np.array([0.0]), [1]) is grid
        assert opt.CandidateGrid.for_region(0.0, 1.0, 1001) is grid
        with pytest.raises(TypeError):  # as a fresh grid would raise
            opt.CandidateGrid.for_region([0.0], [1.0], 1001.0)
        negative = opt.CandidateGrid.for_region([-0.0], [1.0])
        assert negative is not grid and np.signbit(negative.lower[0])
        coarse = opt.CandidateGrid.for_region([-0.0], [1.0], 11)
        assert coarse is not negative and coarse.resolution == 11

    def test_for_region_keeps_one_grid(self):
        grid = opt.CandidateGrid.for_region([0.0], [1.0], 11)
        grid.correlations(KERNEL, 5, 8)
        kept = weakref.ref(grid)
        del grid
        assert kept() is opt.CandidateGrid.for_region([0.0], [1.0], 11)
        opt.CandidateGrid.for_region([0.0], [2.0], 11)
        assert kept() is None

    def test_grid_and_history_compare_and_hash_by_identity(self):
        # equality over their array fields would be ambiguous, and arrays do not hash
        grid = opt.CandidateGrid([0.0, 0.0], [1.0, 1.0], 5)
        history = EvaluationHistory([0.0], [1.0], [[0.2], [0.5]], [1.0, 2.0])
        assert {grid, history, grid, history} == {grid, history}
        assert grid != opt.CandidateGrid([0.0, 0.0], [1.0, 1.0], 5)
        assert history != EvaluationHistory([0.0], [1.0], [[0.2], [0.5]], [1.0, 2.0])
        assert history != history.with_observation([0.7], 3.0)

    def test_2d_lexicographic(self):
        grid = opt.CandidateGrid(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 3)
        pts = grid.points
        assert pts.shape == (9, 2)
        np.testing.assert_array_equal(pts[0], [0.0, 0.0])
        np.testing.assert_array_equal(pts[1], [0.0, 0.5])
        np.testing.assert_array_equal(pts[3], [0.5, 0.0])


class TestArgmax:
    def _posterior(self):
        h = EvaluationHistory([0.0], [1.0], [[0.0], [0.5], [1.0]],
                              [0.5, -0.3, 0.2])
        return build_posterior(h, KERNEL)

    def test_returns_max_and_excludes_history(self):
        posterior = self._posterior()
        asp = acq.aspiration(posterior.history, posterior.parameters, 0.1)
        grid = opt.CandidateGrid.for_region([0.0], [1.0], 101)
        visited = posterior.history.visited(grid.points)
        sel = opt.argmax_criterion(acq.P_CRITERION, posterior, asp, grid, visited)
        values, deg = acq.criterion_grid(acq.P_CRITERION, posterior, asp,
                                         grid.points)
        masked = np.where(~visited & ~deg, values, -np.inf)
        assert sel.grid_index == int(np.argmax(masked))
        assert not visited[sel.grid_index]

    def test_tie_breaks_to_lowest_index(self, monkeypatch):
        posterior = self._posterior()
        asp = acq.aspiration(posterior.history, posterior.parameters, 0.1)
        grid = opt.CandidateGrid.for_region([0.0], [1.0], 5)

        def fixed_values(kind, post, a, points):
            # indices 0, 2, 4 coincide with history points and are excluded;
            # the eligible candidates 1 and 3 tie exactly.
            return (np.array([1.0, 3.0, 9.0, 3.0, 1.0]),
                    np.zeros(5, dtype=bool))

        monkeypatch.setattr(acq, "criterion_grid", fixed_values)
        sel = opt.argmax_criterion(acq.P_CRITERION, posterior, asp, grid,
                                   posterior.history.visited(grid.points))
        assert sel.grid_index == 1

    def test_all_degenerate_raises(self):
        h = EvaluationHistory([0.0], [1.0], [[0.0], [1.0]], [1.0, 2.0])
        posterior = build_posterior(h, KERNEL)
        asp = acq.aspiration(h, posterior.parameters, 0.1)
        grid = opt.CandidateGrid(np.array([0.0]), np.array([1.0]), 2)
        with pytest.raises(AllCandidatesDegenerateError):
            opt.argmax_criterion(acq.P_CRITERION, posterior, asp, grid,
                                 posterior.history.visited(grid.points))

    def test_every_eligible_value_minus_inf_takes_lowest_eligible_index(self):
        # an aspiration level of -inf ranks every candidate -inf; index 0 is
        # not eligible and must not be chosen
        values = np.array([-np.inf, -np.inf, 5.0, -np.inf])
        excluded = np.array([True, True, True, False])
        sel = opt._select_excluding(values, excluded, np.arange(4.0)[:, None])
        assert sel.grid_index == 3 and sel.value == -np.inf


# (options, lower, upper): each is rejected before the objective is called.
BAD_SETTINGS = {
    "unknown-algorithm": (dict(algorithm="newton"), [-1.0], [1.0]),
    "negative-budget": (dict(budget=-1), [-1.0], [1.0]),
    "epsilon-zero": (dict(epsilon=0.0), [-1.0], [1.0]),
    "epsilon-nan": (dict(epsilon=math.nan), [-1.0], [1.0]),
    "epsilon-inf": (dict(epsilon=math.inf), [-1.0], [1.0]),
    "unknown-estimator": (dict(estimator="median"), [-1.0], [1.0]),
    "empty-design": (dict(initial_design=np.empty((0, 1))), [-1.0], [1.0]),
    "design-wrong-dimension": (dict(initial_design=[[0.0, 0.5]]), [-1.0], [1.0]),
    "design-duplicate": (dict(initial_design=[[-0.5], [0.5], [0.5]]), [-1.0], [1.0]),
    "design-outside": (dict(initial_design=[[0.0], [0.5], [3.0]]), [-1.0], [1.0]),
    "reversed-region": ({}, [1.0], [-1.0]),
    "grid-outside": (dict(grid=opt.CandidateGrid.for_region([0.0], [2.0], 11)),
                     [-1.0], [1.0]),
    "budget-beyond-grid": (dict(budget=9, grid=opt.CandidateGrid.for_region([-1.0], [1.0], 11)),
                           [-1.0], [1.0]),
}


@pytest.mark.parametrize("name", sorted(BAD_SETTINGS))
def test_bad_setting_raises_before_evaluating(name):
    options, lower, upper = BAD_SETTINGS[name]
    options = dict(options)
    algorithm = options.pop("algorithm", opt.P_ALGORITHM)
    calls = []
    with pytest.raises((ValueError, DuplicatePointsError)):
        opt.run(algorithm, lambda x: calls.append(x) or sin3x2(x), lower, upper, **options)
    assert calls == []


def test_budget_may_take_every_unvisited_candidate():
    # the default design visits -1, 0 and 1 of the 11 candidates, leaving 8
    grid = opt.CandidateGrid.for_region([-1.0], [1.0], 11)
    with pytest.raises(ValueError, match="budget 9 exceeds the 8 grid candidates"):
        opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=9, grid=grid)
    trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=8, grid=grid)
    assert sorted(trace.grid_indices) == [1, 2, 3, 4, 6, 7, 8, 9]


def test_grid_hands_out_one_model_state_per_kernel():
    grid = opt.CandidateGrid.for_region([0.0], [1.0], 11)
    exponential, squared = CorrelationKernel(), CorrelationKernel("squared-exponential")
    assert grid.correlations(exponential) is grid.correlations(CorrelationKernel())
    assert grid.correlations(squared) is not grid.correlations(exponential)
    assert grid.correlations(squared).points is grid.points
    # and one per initial-design size
    assert grid.correlations(exponential, 5) is grid.correlations(CorrelationKernel(), 5, 30)
    assert grid.correlations(exponential, 7) is not grid.correlations(exponential, 5)


@pytest.mark.parametrize("name", ["sin3x2", "gramacy-lee"])
def test_run_from_a_longer_design_on_a_shared_grid_is_a_fresh_run(name):
    # A state shared by every design size gave the 7-point run the 5-point
    # run's factor appended twice, not its own bulk factor of 7 points: the
    # criterion moved in its last digits (sin3x2 at step 1, gramacy-lee at 3).
    objective, (lo, hi) = get_objective(name)
    options = dict(budget=10, kernel=CorrelationKernel("squared-exponential", 5.0))
    grid = opt.CandidateGrid.for_region([lo], [hi])
    first = opt.run(opt.P_ALGORITHM, objective, [lo], [hi], grid=grid, **options)
    design = np.array([r.point for r in first.records[:7]])
    shared = opt.run(opt.P_ALGORITHM, objective, [lo], [hi], initial_design=design,
                     grid=grid, **options)
    fresh = opt.run(opt.P_ALGORITHM, objective, [lo], [hi], initial_design=design,
                    grid=opt.CandidateGrid([lo], [hi], grid.resolution), **options)
    assert shared.to_csv() == fresh.to_csv()


@pytest.mark.parametrize("family", gp.KERNEL_FAMILIES)
def test_runs_that_rewind_a_shared_state_are_fresh_runs(family):
    # On one interned region, EI leaves the points P saw, and P again leaves
    # EI's: each rewinds the shared state, and each trace is a fresh grid's.
    objective, (lo, hi) = get_objective("sin3x2")
    options = dict(budget=10, kernel=CorrelationKernel(family, 5.0))
    traces = []
    for algorithm in (opt.P_ALGORITHM, opt.ONE_STEP_BAYES, opt.P_ALGORITHM):
        traces.append(opt.run(algorithm, objective, [lo], [hi], **options))
        fresh = opt.run(algorithm, objective, [lo], [hi],
                        grid=opt.CandidateGrid([lo], [hi], 1001), **options)
        assert traces[-1].to_csv() == fresh.to_csv()
    assert traces[0].grid_indices != traces[1].grid_indices


def test_entry_points_take_the_default_budget():
    objective, (lo, hi) = get_objective("sin3x2")
    runs = [opt.run(opt.P_ALGORITHM, objective, [lo], [hi]),
            scaled_criterion_run(objective, 2.0, 1.0, [lo], [hi])[0]]
    report = homogeneity_check(opt.P_ALGORITHM, objective, [lo], [hi], 2.0, 1.0)
    assert [len(trace.steps) for trace in runs] + [len(report.steps)] == \
        [opt.DEFAULT_BUDGET] * 3


class TestRun:
    def test_budget_zero_is_identity(self):
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=0)
        assert all(r.iteration == 0 for r in trace.records)
        assert len(trace.records) == 5

    def test_constant_objective_falls_back(self):
        trace = opt.run(opt.P_ALGORITHM, lambda x: 4.0, [-1.0], [1.0],
                        budget=5)
        steps = [r for r in trace.records if r.iteration > 0]
        assert len(steps) == 5
        assert all(r.degenerate_step for r in steps)
        assert trace.best_value == 4.0

    def test_power_of_two_scaling_identical_sequence(self):
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=20)
        scaled = opt.run(opt.P_ALGORITHM,
                         lambda x: (2.0 ** 10) * sin3x2(x), [-1.0], [1.0],
                         budget=20)
        assert base.grid_indices == scaled.grid_indices

    def test_no_revisit(self):
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=25)
        pts = np.array([r.point for r in trace.records])
        gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        gaps[np.diag_indices(len(pts))] = np.inf
        assert gaps.min() > 1e-12

    def test_best_so_far_nonincreasing(self):
        trace = opt.run(opt.ONE_STEP_BAYES, sin3x2, [-1.0], [1.0], budget=15)
        bests = [r.best for r in trace.records]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        values = [r.value for r in trace.records]
        assert trace.best_value == min(values)

    def test_determinism(self):
        t1 = opt.run(opt.ONE_STEP_BAYES, sin3x2, [-1.0], [1.0], budget=10)
        t2 = opt.run(opt.ONE_STEP_BAYES, sin3x2, [-1.0], [1.0], budget=10)
        assert t1.to_csv() == t2.to_csv()
        assert t1.to_json() == t2.to_json()

    def test_non_finite_objective_raises(self):
        with pytest.raises(ObjectiveEvaluationError):
            opt.run(opt.P_ALGORITHM, lambda x: math.inf, [-1.0], [1.0],
                    budget=1)

    def test_trace_cells_beyond_float64_read_inf(self):
        # s**2 * sigma2 for the exact values 1e200*sin3x2 lies beyond float64
        # range and rounds to inf, as IEEE arithmetic would; the choices are
        # unchanged
        scale = Fraction(1e200)
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=10)
        big = opt.run(opt.P_ALGORITHM, lambda x: scale * Fraction(sin3x2(x)),
                      [-1.0], [1.0], budget=10)
        assert big.grid_indices == base.grid_indices
        steps = [r for r in big.records if r.iteration > 0]
        assert all(r.sigma2 == math.inf and math.isfinite(r.mu) for r in steps)
        assert ",inf," in big.to_csv()
        assert '"sigma2": Infinity' in big.to_json()

    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_exact_values_below_offset_resolution(self, estimator):
        # The whole span of 1e-8*sin3x2 is smaller than one ulp of 1e9, so
        # only exact values keep the signal.
        a, b = Fraction(1e-8), Fraction(1e9)
        scaled_objective = lambda x: a * Fraction(sin3x2(x)) + b
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=25,
                       estimator=estimator)
        scaled = opt.run(opt.P_ALGORITHM, scaled_objective, [-1.0], [1.0],
                         budget=25, estimator=estimator)
        assert scaled.grid_indices == base.grid_indices
        ulp = math.ulp(1e9)
        for rb, rs in zip(base.records, scaled.records):
            assert rs.value == float(scaled_objective(rs.point[0]))
            if rs.iteration == 0:
                continue
            assert not rs.degenerate_step
            # model quantities in the objective's units, not relative to
            # the first observation
            assert abs(rs.mu - float(a * Fraction(rb.mu) + b)) <= ulp
            assert abs(rs.y_on - float(a * Fraction(rb.y_on) + b)) <= ulp
            assert math.isclose(rs.sigma2, float(a * a) * rb.sigma2,
                                rel_tol=1e-9)

    def test_sample_estimator_runs(self):
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=10,
                        estimator="sample")
        assert len(trace.grid_indices) == 10

    def test_exponential_run_factors_once(self, monkeypatch):
        # every later observation appends a row to the run's factor
        calls = []
        cho_factor = gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor",
                            lambda *args, **kw: calls.append(args) or cho_factor(*args, **kw))
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=25)
        assert len(trace.grid_indices) == 25 and len(calls) == 1

    def test_squared_exponential_expected_improvement_completes(self):
        # a run that raised AllCandidatesDegenerateError when appended squared
        # pivots were accepted down to zero
        kernel = CorrelationKernel("squared-exponential", 5.0)
        objective, (lower, upper) = get_objective("rastrigin1d")
        report = homogeneity_check(opt.ONE_STEP_BAYES, objective, [lower], [upper],
                                   3.9765, -7.3, budget=25, kernel=kernel)
        assert len(report.steps) == 25 and report.passed


def overflowing(x):
    """0 at -1, 1e-300 at -0.5, 1e300*x elsewhere: with y_0 = 0 and s = 1e-300
    the normalized value of the design point 0.5 lies beyond float64 range."""
    x = float(np.atleast_1d(x)[0])
    return {-1.0: 0.0, -0.5: 1e-300}.get(x, 1e300 * x)


class TestNormalizedOverflow:
    def test_raises_objective_evaluation_error(self):
        with pytest.raises(ObjectiveEvaluationError) as info:
            opt.run(opt.P_ALGORITHM, overflowing, [-1.0], [1.0], budget=2,
                    initial_design=np.array([[-1.0], [-0.5], [0.5]]))
        assert info.value.point[0] == 0.5


def spanning(x):
    """0, 1e-300, 1.7e8, -1.7e8 and 1 at the default design on [0, 1], sin(9x)
    elsewhere: normalized by s = 1e-300 the values span 3.4e308, which the
    estimates of sigma2 overflow."""
    return {0.0: 0.0, 0.25: 1e-300, 0.5: 1.7e8, 0.75: -1.7e8, 1.0: 1.0}.get(
        float(x), math.sin(9 * x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("estimator", gp.ESTIMATORS)
@pytest.mark.parametrize("algorithm", [opt.P_ALGORITHM, opt.ONE_STEP_BAYES])
def test_an_estimate_beyond_float64_raises_one_error(algorithm, estimator):
    # mle's sigma2 was NaN, which restore rejected with a bare ValueError;
    # sample's was inf, and the run warned, then found every candidate degenerate
    options = dict(budget=3, estimator=estimator)
    match = f"the {estimator} estimate of sigma2 is"
    with pytest.raises(NonFiniteEstimateError, match=match):
        opt.run(algorithm, spanning, [0.0], [1.0], **options)
    with pytest.raises(NonFiniteEstimateError, match=match):
        homogeneity_check(algorithm, spanning, [0.0], [1.0], 2.0, 1.0, **options)


def wavy_surface(x):
    return math.sin(5.0 * x[0]) * math.cos(7.0 * x[1]) + x[0] ** 2


class TestVisitedMask:
    """The run's mask is ``history.visited(grid.points)``, the defining rule."""

    @staticmethod
    def checked_run(monkeypatch, *args, **kwargs):
        # Every argmax gets the mask after the observations so far: the design
        # and each step but the last.
        argmax, checks = opt.argmax_criterion, []

        def checking(kind, posterior, asp, grid, visited=None):
            expected = posterior.history.visited(grid.points)
            np.testing.assert_array_equal(visited, expected)
            checks.append(int(expected.sum()))
            return argmax(kind, posterior, asp, grid, visited)

        monkeypatch.setattr(opt, "argmax_criterion", checking)
        return opt.run(*args, **kwargs), checks

    @pytest.mark.parametrize("algorithm", [opt.P_ALGORITHM, opt.ONE_STEP_BAYES])
    def test_1d_run(self, monkeypatch, algorithm):
        trace, checks = self.checked_run(monkeypatch, algorithm, sin3x2, [-1.0], [1.0],
                                         budget=15)
        assert checks == list(range(5, 20))
        assert len(set(trace.grid_indices)) == 15

    def test_2d_run_with_off_grid_design(self, monkeypatch):
        # (0.5 + 4e-13, 0.5) is off the grid but within the threshold of the
        # grid point (0.5, 0.5); (0, 1) is a grid point; the other three are
        # off the grid and far from it.
        design = np.array([[0.013, 0.021], [0.987, 0.5], [0.5 + 4e-13, 0.5],
                           [0.3337, 0.777], [0.0, 1.0]])
        _, checks = self.checked_run(monkeypatch, opt.P_ALGORITHM, wavy_surface,
                                     [0.0, 0.0], [1.0, 1.0], budget=12,
                                     initial_design=design)
        assert checks == list(range(2, 14))

    def test_grid_finer_than_threshold(self):
        # Steps of 5e-13, 1e-13 and -0.1: some candidate would be the same point
        # as another, or the axis would not increase, so marking the chosen
        # index alone would not mark every candidate a step visits.
        for lower, upper, resolution in [(0.0, 1e-9, 2001), (0.0, 1e-10, 1001), (1.0, 0.0, 11)]:
            with pytest.raises(ValueError, match="duplicate threshold"):
                opt.CandidateGrid([lower], [upper], resolution)

    def test_2d_run_on_the_default_grid(self, monkeypatch):
        # the default design's corners and centre are grid points, and each
        # step marks its candidate by index alone
        grid = opt.CandidateGrid.for_region([0.0, 0.0], [1.0, 1.0])
        assert grid.resolution == 101
        _, checks = self.checked_run(monkeypatch, opt.P_ALGORITHM, wavy_surface,
                                     [0.0, 0.0], [1.0, 1.0], budget=12, grid=grid)
        assert checks == list(range(5, 17))

    def test_grid_finer_than_one_step_per_threshold_uses_the_full_rule(self, monkeypatch):
        # Steps of 1e-13 would put ten neighbours within the threshold of each
        # candidate, so that grid is refused.  At steps of 2e-12 the design
        # points 2.5e-11 and 7.5e-11 lie off the grid and visit both neighbours
        # of each, so the design marks 7 candidates; each step then marks its
        # own index alone, which is the full rule.
        with pytest.raises(ValueError, match="duplicate threshold"):
            opt.CandidateGrid([0.0], [1e-10], 1001)
        grid = opt.CandidateGrid([0.0], [1e-10], 51)
        trace, checks = self.checked_run(monkeypatch, opt.P_ALGORITHM,
                                         lambda x: math.sin(4e10 * x), [0.0], [1e-10],
                                         budget=6, grid=grid)
        assert len(set(trace.grid_indices)) == 6
        assert checks == list(range(7, 13))

    def test_zero_spread_fallback_takes_lowest_unvisited_index(self):
        # Grid 0, 0.1, ..., 1: indices 0 and 1 are visited (1 by a point 5e-13
        # away), 0.35 lies off the grid; every step falls back.
        grid = opt.CandidateGrid([0.0], [1.0], 11)
        design = np.array([[0.0], [0.1 + 5e-13], [0.35]])
        trace = opt.run(opt.P_ALGORITHM, lambda x: 4.0, [0.0], [1.0], budget=4,
                        grid=grid, initial_design=design)
        assert all(r.degenerate_step for r in trace.records if r.iteration > 0)
        assert trace.grid_indices == [2, 3, 4, 5]

    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    @pytest.mark.parametrize("algorithm", [opt.P_ALGORITHM, opt.ONE_STEP_BAYES])
    def test_fallback_ends_when_two_values_differ(self, algorithm, estimator):
        # The values stay 4 through the design and four fallback steps; the
        # fourth step observes 0.5, and from then on the criterion decides.
        grid = opt.CandidateGrid([0.0], [1.0], 11)
        design = np.array([[0.0], [0.1 + 5e-13], [0.35]])
        trace = opt.run(algorithm, lambda x: 4.0 if x < 0.45 else x, [0.0], [1.0],
                        budget=7, grid=grid, initial_design=design, estimator=estimator)
        assert trace.grid_indices == [2, 3, 4, 5, 6, 7, 8]
        assert [r.degenerate_step for r in trace.steps] == [True] * 4 + [False] * 3
        assert [r.criterion is None for r in trace.steps] == [True] * 4 + [False] * 3


class TestStepBookkeeping:
    """A criterion step pays for the model, not for scans of the grid or copies of the history."""

    def test_grid_steps_scan_no_grid_and_copy_no_history(self, monkeypatch):
        grid = opt.CandidateGrid([0.0, 0.0], [1.0, 1.0], 101)
        m, stepping, scans, copies = len(grid.points), [], [], []
        argmax, same_point = opt.argmax_criterion, gp.same_point

        def stepped(*args):
            stepping.append(True)
            return argmax(*args)

        def counted_same_point(a, b):
            if stepping and m in (len(a), len(b)):
                scans.append((len(a), len(b)))
            return same_point(a, b)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if stepping:
                    copies.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(opt, "argmax_criterion", stepped)
        monkeypatch.setattr(gp, "same_point", counted_same_point)
        for name in ("concatenate", "append", "vstack"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        monkeypatch.setattr(EvaluationHistory, "with_observation", counted(
            "with_observation", EvaluationHistory.with_observation))
        trace = opt.run(opt.P_ALGORITHM, wavy_surface, [0.0, 0.0], [1.0, 1.0],
                        budget=10, grid=grid)
        assert len(stepping) == len(trace.steps) == 10
        assert scans == [] and copies == []

    def test_a_run_grows_its_shared_state_once(self, monkeypatch):
        # The state is born with room for no points.  A 3-step run grows it to
        # 8 at once; a 60-step run on the same grid asks for 65 and grows to
        # that at once, not row by row as its rows come.
        grid = opt.CandidateGrid([0.0, 0.0], [1.0, 1.0], 101)
        growths, reserve = [], gp.GridCorrelations.reserve

        def counted(state, capacity):
            before = len(state._ups)
            reserve(state, capacity)
            if len(state._ups) != before:
                growths.append(len(state._ups))

        monkeypatch.setattr(gp.GridCorrelations, "reserve", counted)
        short = opt.run(opt.P_ALGORITHM, wavy_surface, [0.0, 0.0], [1.0, 1.0],
                        budget=3, grid=grid)
        assert growths == [8]
        longer = opt.run(opt.P_ALGORITHM, wavy_surface, [0.0, 0.0], [1.0, 1.0],
                         budget=60, grid=grid)
        assert growths == [8, 65]
        assert longer.grid_indices[:3] == short.grid_indices


class TestExactValue:
    def test_int_and_fraction_kept_exactly(self):
        assert opt.exact_value(2 ** 60 + 1, 0.0) == 2 ** 60 + 1
        assert opt.exact_value(Fraction(1, 3), 0.0) == Fraction(1, 3)

    @pytest.mark.parametrize("value", [np.float32(0.1), np.int64(2 ** 60 + 1),
                                       np.array(0.1), 0.1, -0.0, np.float64(-0.0)],
                             ids=["float32", "int64", "0-d array", "float", "minus-zero",
                                  "np.float64-minus-zero"])
    def test_other_values_read_through_float(self, value):
        # and kept as that float, -0.0 read as 0.0
        read = opt.exact_value(value, 0.0)
        assert type(read) is float and read == Fraction(float(value))
        assert math.copysign(1.0, read) == 1.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float32("inf"),
                                       10 ** 400, Fraction(-(10 ** 400)),
                                       "1.5", b"2", None, 1j, np.complex128(1.0),
                                       np.array([3.0])],
                             ids=["inf", "-inf", "nan", "float32 inf", "int 1e400",
                                  "Fraction -1e400", "str", "bytes", "None", "complex",
                                  "numpy complex", "1-element array"])
    def test_non_finite_or_overflowing_raises(self, value):
        with pytest.raises(ObjectiveEvaluationError):
            opt.exact_value(value, 0.0)


def restore_by_fraction(values, v, power, shifted):
    """``AffineNormalization.restore``'s defining formula, in ``Fraction``s, with
    y_0 the first of ``values`` and s the first nonzero |y - y_0| (or 1)."""
    anchor = Fraction(values[0])
    scale = next((abs(Fraction(y) - anchor) for y in values if y != values[0]), 1)
    out = Fraction(v) * scale ** power
    if shifted:
        out += anchor
    try:
        return float(out)
    except OverflowError:
        return math.inf if out > 0 else -math.inf


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRestore:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(finite, min_size=1, max_size=3), v=finite,
           power=st.sampled_from((1, 2)), shifted=st.booleans())
    @example(values=[0.0, 1e300], v=1e300, power=2, shifted=False)
    @example(values=[0.0, 1e300], v=-1e300, power=2, shifted=True)
    @example(values=[5e-324, 0.0], v=0.1, power=2, shifted=False)
    @example(values=[-3.5, 2.0], v=np.float64(-0.0), power=1, shifted=False)
    def test_matches_fraction_formula(self, values, v, power, shifted):
        normalize = opt.AffineNormalization()
        for y in values:
            with contextlib.suppress(OverflowError):  # an h beyond float64; y_0 and s are set
                normalize.rounded(y)
        got = normalize.restore(v, power, shifted)
        want = restore_by_fraction(values, v, power, shifted)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_overflow_rounds_to_infinity(self):
        normalize = opt.AffineNormalization()
        normalize.rounded(0.0)
        normalize.rounded(1e300)
        assert normalize.restore(1e300, power=2) == math.inf
        assert normalize.restore(-1e300, power=2, shifted=True) == -math.inf


class TestTraceSerialization:
    def test_csv_round_trip(self):
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=5)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["iter", "grid_index", "x0", "y", "criterion", "mu",
                          "sigma2", "y_on", "best"]
        assert len(lines) == 1 + len(trace.records)
        assert text.endswith("\n") and "\r" not in text
        # float cells parse back to the exact binary value
        row = lines[-1].split(",")
        rec = trace.records[-1]
        assert float(row[2]) == rec.point[0]
        assert float(row[3]) == rec.value
        assert float(row[4]) == rec.criterion

    def test_json_mirrors_csv(self):
        trace = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=3)
        data = json.loads(trace.to_json())
        assert data["algorithm"] == opt.P_ALGORITHM
        assert len(data["records"]) == len(trace.records)
        last = data["records"][-1]
        rec = trace.records[-1]
        assert last["iter"] == rec.iteration
        assert last["grid_index"] == rec.grid_index
        assert last["y"] == rec.value
        assert last["criterion"] == rec.criterion
        # design rows carry nulls for model fields
        assert data["records"][0]["criterion"] is None


def text_oracle(trace):
    """A trace's CSV and JSON built from text: each cell formatted, then parsed back."""
    header = (["iter", "grid_index"] + [f"x{k}" for k in range(trace.records[0].point.size)]
              + ["y", "criterion", "mu", "sigma2", "y_on", "best"])
    rows = [[str(r.iteration), str(r.grid_index)] + [repr(float(c)) for c in r.point]
            + ["" if v is None else repr(float(v))
               for v in (r.value, r.criterion, r.mu, r.sigma2, r.y_on, r.best)]
            for r in trace.records]
    records = [{key: None if cell == "" else int(cell) if key in ("iter", "grid_index")
                else float(cell) for key, cell in zip(header, row)} for row in rows]
    return (opt.csv_text([header] + rows),
            json.dumps({"algorithm": trace.algorithm, "records": records}, indent=2))


def surface_2d(x):
    return math.sin(5.0 * x[0]) * math.cos(7.0 * x[1]) + 0.3 * x[0]


class TestTraceWriters:
    def test_csv_cells(self):
        # ints as digits, None empty, each float as its repr
        row = [0, None, 0.1, 1e16, 1e-05, -0.0, math.inf, math.nan, 3]
        assert opt.csv_text([row]) == "0,,0.1,1e+16,1e-05,-0.0,inf,nan,3\n"

    @pytest.mark.parametrize("make", [
        lambda: opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=8),
        lambda: opt.run(opt.ONE_STEP_BAYES, sin3x2, [-1.0], [1.0], budget=8),
        lambda: opt.run(opt.P_ALGORITHM, surface_2d, [0.0, 0.0], [1.0, 1.0], budget=8,
                        grid=opt.CandidateGrid.for_region([0.0, 0.0], [1.0, 1.0], 21)),
        # sigma2 in the objective's units is inf on every step
        lambda: opt.run(opt.P_ALGORITHM, lambda x: Fraction(1e200) * Fraction(sin3x2(x)),
                        [-1.0], [1.0], budget=8),
    ], ids=["p", "ei", "2d", "sigma2-inf"])
    def test_writers_equal_the_text_oracle(self, make):
        trace = make()
        assert (trace.to_csv(), trace.to_json()) == text_oracle(trace)


class TestInitialDesign:
    def test_1d_equispaced(self):
        design = opt.default_initial_design([-1.0], [1.0])
        np.testing.assert_allclose(design.ravel(), [-1, -0.5, 0, 0.5, 1])

    def test_2d_corners_and_center(self):
        design = opt.default_initial_design([0.0, 0.0], [1.0, 1.0])
        assert design.shape == (5, 2)
        np.testing.assert_array_equal(design[-1], [0.5, 0.5])
