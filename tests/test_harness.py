import numpy as np
import pytest

from scaleopt import gp, grossone
from scaleopt import optimizer as opt
from scaleopt.gp import CorrelationKernel
from scaleopt.harness import compare_traces, homogeneity_check
from scaleopt.objectives import rastrigin1d, sin3x2

# Objective values of numpy types are read by the one value rule on both
# sides of the check, whether the scaling is finite or extended.
VALUE_TYPES = {
    "float32": lambda x: np.float32(sin3x2(x)),
    "int64": lambda x: np.int64(round(100 * sin3x2(x))),
    "0-d array": lambda x: np.array(sin3x2(x)),
}


@pytest.mark.parametrize("a, b", [(2, 1), ("G", "G^2")])
@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_numpy_objective_values(kind, a, b):
    report = homogeneity_check(opt.P_ALGORITHM, VALUE_TYPES[kind], [-1.0], [1.0],
                               a, b, budget=8)
    assert report.passed and len(report.steps) == 8 and report.first_mismatch is None


def test_any_divergence_fails():
    # rastrigin1d + 1e-13*x is not an affine image of rastrigin1d; the two
    # runs part at step 1 with a runner-up gap far below 1e-9.
    kwargs = dict(budget=25, kernel=CorrelationKernel("exponential", 5.0),
                  estimator="mle")
    base = opt.run(opt.P_ALGORITHM, rastrigin1d, [-2.0], [2.0], **kwargs)
    tilted = opt.run(opt.P_ALGORITHM, lambda x: rastrigin1d(x) + 1e-13 * float(x),
                     [-2.0], [2.0], **kwargs)
    report = compare_traces(base, tilted, opt.P_ALGORITHM, 1.0, 0.0)
    assert not report.passed
    assert report.first_mismatch == 1
    assert report.summary_lines()[-1] == "FAIL"


class TestSharedGrid:
    """The check runs both sides on one grid, so the scaled run replays the
    base run's point-only model state; its decisions are those of a run on a
    grid of its own."""

    REGION = ([-1.0], [1.0])
    SCALED_RUN = staticmethod(grossone.scaled_criterion_run)

    @classmethod
    def fresh_grid(cls):
        """A grid of the check's region that no other run shares."""
        return opt.CandidateGrid(*cls.REGION, 1001)

    @classmethod
    def fresh_scaled_run(cls, objective, a, b, algorithm, **options):
        return cls.SCALED_RUN(objective, a, b, *cls.REGION, algorithm=algorithm,
                              grid=cls.fresh_grid(), **options)[0]

    @classmethod
    def captured_scaled_traces(cls, monkeypatch):
        traces = []
        monkeypatch.setattr(grossone, "scaled_criterion_run",
                            lambda *a, **kw: traces.append(cls.SCALED_RUN(*a, **kw)) or traces[-1])
        return traces

    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    @pytest.mark.parametrize("family", ["exponential", "squared-exponential"])
    @pytest.mark.parametrize("algorithm", [opt.P_ALGORITHM, opt.ONE_STEP_BAYES])
    def test_scaled_trace_equals_a_run_on_a_fresh_grid(self, algorithm, family, estimator,
                                                        monkeypatch):
        options = dict(budget=12, kernel=CorrelationKernel(family, 5.0), estimator=estimator)
        traces = self.captured_scaled_traces(monkeypatch)
        report = homogeneity_check(algorithm, sin3x2, *self.REGION, 3.9765, -7.3, **options)
        assert report.passed
        alone = self.fresh_scaled_run(sin3x2, 3.9765, -7.3, algorithm, **options)
        assert traces[0][0].to_csv() == alone.to_csv()

    def test_diverging_scaled_run_reports_as_on_separate_grids(self, monkeypatch):
        options = dict(budget=12, kernel=CorrelationKernel("squared-exponential", 5.0))
        length = 5 + options["budget"]

        def objective():
            calls = []

            def f(x):  # the scaled run's values leave a*f + b from its 8th evaluation on
                calls.append(x)
                return sin3x2(x) + (0.5 * x if len(calls) > length + 7 else 0.0)
            return f

        f = objective()
        base = opt.run(opt.P_ALGORITHM, f, *self.REGION, grid=self.fresh_grid(), **options)
        scaled = self.fresh_scaled_run(f, 2.0, 1.0, opt.P_ALGORITHM, **options)
        expected = compare_traces(base, scaled, opt.P_ALGORITHM, 2.0, 1.0)
        assert expected.first_mismatch is not None
        traces = self.captured_scaled_traces(monkeypatch)
        report = homogeneity_check(opt.P_ALGORITHM, objective(), *self.REGION, 2.0, 1.0,
                                   **options)
        assert report.steps == expected.steps
        assert traces[0][0].to_csv() == scaled.to_csv()

    def test_only_the_base_run_factors(self, monkeypatch):
        phase, calls = ["base"], []
        factor = gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor",
                            lambda *a, **kw: calls.append(phase[0]) or factor(*a, **kw))

        def scaled_run(*a, **kw):
            phase[0] = "scaled"
            return self.SCALED_RUN(*a, **kw)

        monkeypatch.setattr(grossone, "scaled_criterion_run", scaled_run)
        report = homogeneity_check(opt.P_ALGORITHM, sin3x2, *self.REGION, 3.9765, -7.3,
                                   budget=15, kernel=CorrelationKernel("squared-exponential"))
        assert report.passed and phase == ["scaled"]
        assert calls and set(calls) == {"base"}

    def test_a_second_check_on_the_region_replays_the_first(self, monkeypatch):
        # for_region interns the grid, so the second check's base run replays
        # the first's state too: neither of its runs factors or solves
        options = dict(budget=12, kernel=CorrelationKernel("squared-exponential", 5.0))
        traces = self.captured_scaled_traces(monkeypatch)
        homogeneity_check(opt.P_ALGORITHM, sin3x2, *self.REGION, 2.0, 1.0, **options)
        with monkeypatch.context() as patched:
            patched.setattr(gp, "_factor_with_jitter", lambda *a: pytest.fail("factored"))
            patched.setattr(gp, "_solve_lower", lambda *a: pytest.fail("solved"))
            replayed = homogeneity_check(opt.P_ALGORITHM, sin3x2, *self.REGION, 3.9765, -7.3,
                                         **options)
        opt._last_grid.cache_clear()
        fresh = homogeneity_check(opt.P_ALGORITHM, sin3x2, *self.REGION, 3.9765, -7.3,
                                  **options)
        assert replayed.passed and replayed.steps == fresh.steps
        assert traces[1][0].to_csv() == traces[2][0].to_csv()
