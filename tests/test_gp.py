import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scipy.linalg import cho_factor, solve_triangular
from scipy.linalg import LinAlgError, cho_solve
from scaleopt import gp
from scaleopt.errors import DuplicatePointsError, InsufficientDataError, NonFiniteEstimateError
from scaleopt.gp import (
    CorrelationKernel,
    EvaluationHistory,
    GridCorrelations,
    ModelParameters,
    build_posterior,
    correlation_matrix,
    estimate_mle,
    estimate_sample,
)

KERNEL = CorrelationKernel("exponential", 5.0)

FIG1_POINTS = np.array([[0.0], [0.2], [0.5], [0.9], [1.0]])
FIG1_VALUES = np.array([-0.8, -0.9, -0.65, -0.85, -0.55])


def history_1d(points, values, lower=0.0, upper=1.0):
    return EvaluationHistory([lower], [upper], np.atleast_2d(points).T
                             if np.ndim(points) == 1 else points, values)


def fig1_history():
    return EvaluationHistory([0.0], [1.0], FIG1_POINTS, FIG1_VALUES)


class TestHistory:
    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePointsError):
            history_1d(np.array([0.1, 0.1]), [1.0, 2.0])

    def test_rejects_point_outside_region(self):
        with pytest.raises(ValueError):
            history_1d(np.array([0.1, 1.5]), [1.0, 2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            history_1d(np.array([0.1, 0.2]), [1.0])
        with pytest.raises(ValueError, match="lower/upper must be 1-d arrays of equal length"):
            EvaluationHistory([0.0], [1.0, 1.0], [[0.1]], [1.0])

    @pytest.mark.parametrize("gap, same", [(1e-12, True), (2e-12, False)])
    def test_same_point_threshold(self, gap, same):
        # max-norm: a gap in every coordinate counts once, not summed
        a = np.array([[0.25, 0.5]])
        b = a + gap
        assert gp.same_point(a, b).tolist() == [[same]]
        history = EvaluationHistory([0.0, 0.0], [1.0, 1.0], a, [1.0])
        assert history.visited(b).tolist() == [same]
        points = np.vstack([a, [[0.75, 0.75]], b])
        if same:
            with pytest.raises(DuplicatePointsError, match="points 0 and 2 are closer"):
                EvaluationHistory([0.0, 0.0], [1.0, 1.0], points, [1.0, 2.0, 3.0])
        else:
            EvaluationHistory([0.0, 0.0], [1.0, 1.0], points, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("axes, separated", [
        ([np.linspace(0.0, 1.0, 1001)], True),
        ([np.linspace(0.0, 1.0, 101), np.linspace(-2.0, 3.0, 101)], True),
        ([np.linspace(0.0, 1e-10, 1001)], False),  # steps of 1e-13
        ([np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1e-9, 2001)], False),
        ([np.array([0.0, 1e-12, 1.0])], False),  # a step of exactly the threshold
        ([np.array([0.0, 0.5, 0.5])], False),  # not strictly increasing
    ])
    def test_lattice_separated(self, axes, separated):
        assert gp.lattice_separated(axes) is separated
        lattice = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        if len(lattice) <= 3000:
            # separated exactly when each lattice point's mask is its own index
            own = np.eye(len(lattice), dtype=bool)
            assert np.array_equal(gp.same_point(lattice, lattice), own) is separated

    def test_same_point_pairwise_shape(self):
        a = np.array([[0.0], [0.5], [1.0]])
        np.testing.assert_array_equal(gp.same_point(a, a[1:]),
                                      [[False, False], [True, False], [False, True]])

    def test_append(self):
        h = history_1d(np.array([0.1, 0.2]), [1.0, 2.0])
        h2 = h.with_observation([0.4], 3.0)
        assert h2.n == 3 and h.n == 2
        assert h2.values[-1] == 3.0

    @pytest.mark.parametrize("point, value", [
        ([np.nan, 0.5], 1.0), ([0.3, 0.5], np.inf), ([0.3, 1.5], 1.0),
        ([0.75, 0.75], 1.0), ([0.75 + 1e-12, 0.75], 1.0), ([0.25, 0.5 - 7.5e-13], 1.0),
    ], ids=["nan-point", "inf-value", "outside", "duplicate", "within-threshold",
            "first-of-two"])
    def test_append_checks_new_point_as_full_build(self, point, value):
        # the same error type and message as validating the whole history,
        # from with_observation and from a run's buffer, which stays as it was
        points = np.array([[0.25, 0.5], [0.75, 0.75], [0.25, 0.5 - 1.5e-12]])
        h = EvaluationHistory([0.0, 0.0], [1.0, 1.0], points, [1.0, 2.0, 3.0])
        with pytest.raises((ValueError, DuplicatePointsError)) as full:
            EvaluationHistory(h.lower, h.upper, np.vstack([points, [point]]),
                              np.append(h.values, value))
        with pytest.raises(full.type, match=f"^{re.escape(str(full.value))}$"):
            h.with_observation(point, value)
        buffer = gp.HistoryBuffer(h, 5)
        with pytest.raises(full.type, match=f"^{re.escape(str(full.value))}$"):
            buffer.append(point, value)
        assert buffer.history.n == 3
        assert buffer.append([0.5, 0.5], 4.0).n == 4

    def test_buffer_histories_are_the_with_observation_chain(self):
        # each history views the buffer's rows, with the chain's bits, and
        # rows written later leave the histories handed out unchanged
        rng = np.random.default_rng(31)
        points, values = oracles.random_history(rng, 12, 2)
        chain = [EvaluationHistory([0.0, 0.0], [1.0, 1.0], points[:4], values[:4])]
        buffer = gp.HistoryBuffer(chain[0], 12)
        handed = [buffer.history]
        for point, value in zip(points[4:], values[4:]):
            chain.append(chain[-1].with_observation(point, value))
            handed.append(buffer.append(point, value))
        assert handed[-1] is buffer.history
        for viewed, appended in zip(handed, chain):
            assert viewed.points.tobytes() == appended.points.tobytes()
            assert viewed.values.tobytes() == appended.values.tobytes()
            assert np.shares_memory(viewed.points, handed[-1].points)

    def test_append_rejects_wrong_dimension(self):
        h = history_1d(np.array([0.1, 0.2]), [1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            h.with_observation([0.4, 0.5], 3.0)


class TestCorrelationMatrix:
    def test_single_point_unit(self):
        h = history_1d(np.array([0.3]), [1.0])
        np.testing.assert_array_equal(correlation_matrix(h.points, KERNEL), [[1.0]])

    def test_two_point_exponential(self):
        h = history_1d(np.array([0.0, 0.2]), [0.0, 1.0])
        s = correlation_matrix(h.points, KERNEL)
        assert s[0, 1] == pytest.approx(math.exp(-1.0))
        assert s[1, 0] == s[0, 1]
        assert s[0, 0] == s[1, 1] == 1.0

    def test_fig1_matches_elementwise_oracle(self):
        h = fig1_history()
        s = correlation_matrix(h.points, KERNEL)
        ref = oracles.correlation_matrix_loop(FIG1_POINTS, KERNEL)
        np.testing.assert_allclose(s, ref, rtol=0, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_distances_have_the_bits_of_numpy_s_sum(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.uniform(-5.0, 5.0, (6, d)), rng.uniform(-5.0, 5.0, (40, d))
        summed = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_array_equal(gp._cross_distances(a, b), summed)

    def test_squared_exponential(self):
        kernel = CorrelationKernel("squared-exponential", 2.0)
        h = history_1d(np.array([0.0, 0.5]), [0.0, 1.0])
        s = correlation_matrix(h.points, kernel)
        assert s[0, 1] == pytest.approx(math.exp(-2.0 * 0.25))
        with pytest.raises(ValueError, match="unknown kernel family 'gaussian'"):
            CorrelationKernel("gaussian", 2.0)


class TestNonFiniteEstimates:
    """An estimate beyond float64 range raises ``NonFiniteEstimateError``, unwarned."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    @pytest.mark.parametrize("values, estimate", [
        ([1.7e308, 1.5e308], "mu"),
        ([1.7e308, -1.7e308, 1.7e308], "sigma2"),  # mle's y - mu overflows
        ([1.7e308, -1.7e308, 1.7e308, -1.7e308], "sigma2"),  # mle's (y - mu).w is NaN
    ])
    def test_named_by_estimator_and_estimate(self, estimator, values, estimate):
        history = history_1d(np.linspace(0.0, 1.0, len(values)), values)
        with pytest.raises(NonFiniteEstimateError, match=f"the {estimator} estimate of {estimate}"):
            build_posterior(history, KERNEL, estimator)

    @pytest.mark.parametrize("mu, sigma2", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                                            (0.0, math.inf), (0.0, -1.0)])
    def test_parameters_must_be_finite(self, mu, sigma2):
        with pytest.raises(ValueError, match="finite"):
            ModelParameters(mu, sigma2)


class TestSampleEstimator:
    def test_constant_values(self):
        params = estimate_sample(history_1d(np.array([0.1, 0.5, 0.9]),
                                            [2.0, 2.0, 2.0]))
        assert params.mu == 2.0 and params.sigma2 == 0.0

    def test_two_points(self):
        params = estimate_sample(history_1d(np.array([0.1, 0.9]), [0.0, 2.0]))
        assert params.mu == pytest.approx(1.0)
        assert params.sigma2 == pytest.approx(2.0)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_sample(history_1d(np.array([0.1]), [1.0]))

    @given(a=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-6),
           b=st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_affine_equivariance(self, a, b):
        base = estimate_sample(fig1_history())
        scaled = estimate_sample(
            EvaluationHistory([0.0], [1.0], FIG1_POINTS, a * FIG1_VALUES + b))
        assert scaled.mu == pytest.approx(a * base.mu + b, rel=1e-9, abs=1e-9)
        assert scaled.sigma2 == pytest.approx(a * a * base.sigma2, rel=1e-9)


class TestMleEstimator:
    def test_single_point(self):
        params = estimate_mle(history_1d(np.array([0.3]), [1.5]), KERNEL)
        assert params.mu == 1.5 and params.sigma2 == 0.0

    def test_constant_values(self):
        params = estimate_mle(history_1d(np.array([0.1, 0.5, 0.9]),
                                         [2.0, 2.0, 2.0]), KERNEL)
        assert params.mu == pytest.approx(2.0)
        assert params.sigma2 == pytest.approx(0.0, abs=1e-28)

    def test_fig1_matches_explicit_inverse_oracle(self):
        params = estimate_mle(fig1_history(), KERNEL)
        mu_ref, sigma2_ref = oracles.mle_closed_form(FIG1_POINTS, FIG1_VALUES,
                                                     KERNEL)
        assert params.mu == pytest.approx(mu_ref, rel=1e-10)
        assert params.sigma2 == pytest.approx(sigma2_ref, rel=1e-10)

    @given(a=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-6),
           b=st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_affine_equivariance(self, a, b):
        base = estimate_mle(fig1_history(), KERNEL)
        scaled = estimate_mle(
            EvaluationHistory([0.0], [1.0], FIG1_POINTS, a * FIG1_VALUES + b),
            KERNEL)
        assert scaled.mu == pytest.approx(a * base.mu + b, rel=1e-9, abs=1e-9)
        assert scaled.sigma2 == pytest.approx(a * a * base.sigma2, rel=1e-9)


class TestLapackCalls:
    """gp's Cholesky factor is np.tril of SciPy's, and its solves are SciPy's,
    to the bit, on the arrays gp passes: potrf's factor, a C-ordered matrix
    and the strided leading block of a larger C-ordered factor."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 12):
            a = rng.normal(size=(n, n))
            yield a @ a.T + n * np.eye(n)
        points = np.linspace(0.0, 1.0, 18)[:, None]
        history = EvaluationHistory([0.0], [1.0], points, np.sin(3 * points[:, 0]))
        for family in ("exponential", "squared-exponential"):
            sigma = correlation_matrix(history.points, CorrelationKernel(family, 5.0))
            for jitter in (0.0, 1e-12, 1e-10):
                yield sigma + jitter * np.eye(len(sigma))

    def test_equal_to_scipy(self):
        rng = np.random.default_rng(29)
        factored = failed = 0
        for a in self.matrices():
            n = len(a)
            try:
                want = cho_factor(a, lower=True)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    gp.cho_factor(a)
                failed += 1
                continue
            got = gp.cho_factor(a)
            lower = np.tril(want[0])
            assert np.array_equal(got, lower)
            block = np.zeros((n + 3, n + 3))
            block[:n, :n] = lower
            for b in (rng.normal(size=n), rng.normal(size=(n, 4))):
                for c in (got, lower, block[:n, :n]):
                    assert np.array_equal(gp.cho_solve(c, b), cho_solve(want, b))
                assert np.array_equal(gp._solve_lower(lower, b),
                                      solve_triangular(lower, b, lower=True))
            for i in range(1, n + 1):  # the appended rows' views, 1 x 1 included
                b = rng.normal(size=i)
                assert np.array_equal(gp._solve_lower(block[:i, :i], b),
                                      solve_triangular(block[:i, :i], b, lower=True))
            factored += 1
        assert factored == 9 and failed == 1  # the squared-exponential one without jitter

    def test_not_positive_definite_raises(self):
        with pytest.raises(LinAlgError):
            gp.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_finite_right_hand_side_raises(self):
        # y - mu can overflow; SciPy's check on the right-hand side is kept
        factor = gp.cho_factor(np.eye(2))
        with pytest.raises(ValueError):
            gp.cho_solve(factor, np.array([1.0, np.inf]))


class TestPosteriorFactor:
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_one_cholesky_per_posterior(self, estimator, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cho_factor(*args, **kwargs)

        cho_factor = gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor", counting)
        posterior = build_posterior(fig1_history(), KERNEL, estimator)
        assert len(calls) == 1

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            build_posterior(fig1_history(), KERNEL, "median")


class TestConditionalMoments:
    def test_single_point_interpolates(self):
        posterior = build_posterior(history_1d(np.array([0.3]), [1.5]), KERNEL)
        m, s2, clamped = posterior.conditional_moments([0.3])
        assert m == pytest.approx(1.5) and s2 == pytest.approx(0.0, abs=1e-15)
        assert not clamped

    def test_far_point_reverts_to_prior(self):
        kernel = CorrelationKernel("exponential", 50.0)
        h = history_1d(np.array([0.0, 0.05]), [1.0, 3.0])
        posterior = build_posterior(h, kernel)
        m, s2, _ = posterior.conditional_moments([1.0])
        params = posterior.parameters
        assert m == pytest.approx(params.mu, rel=1e-6)
        assert s2 == pytest.approx(params.sigma2, rel=1e-6)

    def test_fig1_matches_explicit_inverse_oracle(self):
        posterior = build_posterior(fig1_history(), KERNEL)
        params = posterior.parameters
        m, s2, _ = posterior.conditional_moments([0.35])
        m_ref, s2_ref = oracles.conditional_moments_explicit(
            FIG1_POINTS, FIG1_VALUES, KERNEL, params.mu, params.sigma2, [0.35])
        assert m == pytest.approx(m_ref, rel=1e-10)
        assert s2 == pytest.approx(s2_ref, rel=1e-10)

    def test_random_histories_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 3))
            points, values = oracles.random_history(rng, n, d)
            h = EvaluationHistory([0.0] * d, [1.0] * d, points, values)
            posterior = build_posterior(h, KERNEL)
            params = posterior.parameters
            x = rng.uniform(0, 1, size=d)
            m, s2, _ = posterior.conditional_moments(x)
            m_ref, s2_ref = oracles.conditional_moments_explicit(
                points, values, KERNEL, params.mu, params.sigma2, x)
            assert m == pytest.approx(m_ref, rel=1e-10, abs=1e-12)
            assert s2 == pytest.approx(max(s2_ref, 0.0), rel=1e-10, abs=1e-12)

    def test_interpolation_and_variance_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 3))
            points, values = oracles.random_history(rng, n, d)
            h = EvaluationHistory([0.0] * d, [1.0] * d, points, values)
            posterior = build_posterior(h, KERNEL)
            sigma2 = posterior.parameters.sigma2
            for i in range(n):
                m, s2, _ = posterior.conditional_moments(points[i])
                assert abs(m - values[i]) <= 1e-8 * (1 + abs(values[i]))
                assert s2 <= 1e-8 * sigma2 + 1e-20
            grid = rng.uniform(0, 1, size=(200, d))
            _, variances, _ = posterior.moments_grid(grid)
            assert np.all(variances >= 0)
            assert np.all(variances <= sigma2 * (1 + 1e-10))

    def test_standardized_moment_scale_invariance(self):
        h = fig1_history()
        a, b = 3.9765, 3.1804
        scaled = EvaluationHistory([0.0], [1.0], FIG1_POINTS,
                                   a * FIG1_VALUES + b)
        post_f = build_posterior(h, KERNEL)
        post_z = build_posterior(scaled, KERNEL)
        y_on = FIG1_VALUES.min() - 0.1 * post_f.parameters.sigma
        z_on = (a * FIG1_VALUES + b).min() - 0.1 * post_z.parameters.sigma
        xs = np.linspace(0.01, 0.99, 97)[:, None]
        m_f, v_f, _ = post_f.moments_grid(xs)
        m_z, v_z, _ = post_z.moments_grid(xs)
        mask = np.sqrt(v_f) > 1e-6
        q_f = (y_on - m_f[mask]) / np.sqrt(v_f[mask])
        q_z = (z_on - m_z[mask]) / np.sqrt(v_z[mask])
        np.testing.assert_allclose(q_z, q_f, rtol=1e-9)

    def test_grid_moments_match_pointwise(self):
        posterior = build_posterior(fig1_history(), KERNEL)
        xs = np.linspace(0, 1, 31)[:, None]
        means, variances, _ = posterior.moments_grid(xs)
        for k, x in enumerate(xs):
            m, s2, _ = posterior.conditional_moments(x)
            assert means[k] == pytest.approx(m, rel=1e-12, abs=1e-15)
            assert variances[k] == pytest.approx(s2, rel=1e-12, abs=1e-15)


class TestGridCorrelations:
    """The appended rows of Upsilon are bit-identical to the full build; the
    appended factor, V and q agree with a bulk factorization."""

    KERNELS = [CorrelationKernel("exponential", 5.0),
               CorrelationKernel("squared-exponential", 5.0)]

    @staticmethod
    def histories(rng, n, d):
        points, values = oracles.random_history(rng, n, d)
        return [EvaluationHistory([0.0] * d, [1.0] * d, points[:k], values[:k])
                for k in range(1, n + 1)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_equal_full_build(self, kernel, d):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0, 1, size=(300, d))
        cache = GridCorrelations(grid, kernel)
        for step, history in enumerate(self.histories(rng, 12, d)):
            if step % 3 == 2:
                continue  # some steps add no row, the next adds two
            full = kernel.of_distance(gp._cross_distances(history.points, grid))
            assert np.array_equal(cache.rows(history)[0], full)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_moments_identical_with_and_without_cache(self, kernel, estimator):
        # the cached side is an appended factor, the plain side potrf's; on
        # SUMMED_MEANS_GRID points the cached means are summed
        for m in (400, gp.SUMMED_MEANS_GRID):
            rng = np.random.default_rng(5)
            grid = rng.uniform(0, 1, size=(m, 2))
            cache = GridCorrelations(grid, kernel)
            for history in self.histories(rng, 10, 2)[1:]:
                cached = build_posterior(history, kernel, estimator, cache).moments_grid(grid)
                plain = build_posterior(history, kernel, estimator).moments_grid(grid)
                np.testing.assert_allclose(cached[0], plain[0], rtol=1e-10, atol=0)
                np.testing.assert_allclose(cached[1], plain[1], rtol=1e-10, atol=0)
                assert np.array_equal(cached[2], plain[2])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_both_entry_points_give_the_same_posterior(self, kernel, estimator):
        # without a run's state the posterior factors S through a state over no grid points
        rng = np.random.default_rng(23)
        grid = rng.uniform(0, 1, size=(200, 1))
        histories = self.histories(rng, 8, 1)[1:]
        # near-duplicate pairs, on which the squared-exponential S needs jitter
        near = np.array([0.1, 0.1 + 1e-9, 0.5, 0.5 + 3e-9, 0.9, 0.3])
        histories += [history_1d(near[:k], rng.uniform(-1, 1, k)) for k in range(2, 7)]
        jittered = 0
        for history in histories:
            plain = build_posterior(history, kernel, estimator)
            stated = build_posterior(history, kernel, estimator, GridCorrelations(grid, kernel))
            assert plain.parameters == stated.parameters and plain.jitter == stated.jitter
            for a, b in zip(plain.moments_grid(grid), stated.moments_grid(grid)):
                assert a.tobytes() == b.tobytes()
            jittered += plain.jitter > 0
        assert jittered == (5 if kernel.family == "squared-exponential" else 0)

    def test_used_only_for_its_grid_and_kernel(self, monkeypatch):
        rng = np.random.default_rng(9)
        grid = rng.uniform(0, 1, size=(50, 1))
        history = self.histories(rng, 4, 1)[-1]
        cache = GridCorrelations(grid, KERNEL)
        # on another grid the moments are the plain posterior's
        other_grid = grid.copy()
        with_cache = build_posterior(history, KERNEL, "mle", cache).moments_grid(other_grid)
        plain = build_posterior(history, KERNEL, "mle").moments_grid(other_grid)
        for a, b in zip(with_cache, plain):
            assert np.array_equal(a, b)
        # a state built under another kernel is an error, raised before it is touched
        monkeypatch.setattr(cache, "rows", lambda history: pytest.fail("cache used"))
        other = CorrelationKernel("exponential", 2.0)
        with pytest.raises(ValueError, match="another kernel"):
            build_posterior(history, other, "mle", cache)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    def test_factor_reproduces_correlation_matrix(self, kernel):
        rng = np.random.default_rng(17)
        grid = rng.uniform(0, 1, size=(200, 2))
        cache = GridCorrelations(grid, kernel)
        for history in self.histories(rng, 15, 2):
            ups, lower, q, jitter = cache.rows(history)
            target = correlation_matrix(history.points, kernel) + jitter * np.eye(history.n)
            np.testing.assert_allclose(lower @ lower.T, target, rtol=0, atol=1e-14)
            assert np.array_equal(lower, np.tril(lower))
            v = solve_triangular(lower, ups, lower=True)
            np.testing.assert_allclose(q, (v * v).sum(axis=0), rtol=1e-12, atol=1e-15)

    def test_keeps_no_history_alive(self):
        # the state holds points, never a history or its values
        rng = np.random.default_rng(19)
        cache = GridCorrelations(rng.uniform(0, 1, size=(50, 1)), KERNEL)
        first, second = self.histories(rng, 6, 1)[4:]
        cache.rows(first)
        cache.rows(second)
        refs = [weakref.ref(first), weakref.ref(second)]
        del first, second
        assert [ref() for ref in refs] == [None, None]

    def test_keeps_only_the_qs_v_cannot_give_back(self, monkeypatch):
        # one bulk factor, then appends: a replay sums each q again from V's
        # rows rather than keeping one q per length
        calls, factor = [], gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor", lambda a: calls.append(a) or factor(a))
        rng = np.random.default_rng(29)
        axis = np.linspace(0, 1, 41)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        cache = GridCorrelations(grid, KERNEL)
        histories = self.histories(rng, 30, 2)
        for _ in range(2):  # 30 one-point calls, then the same lengths replayed
            for history in histories:
                cache.rows(history)
        assert len(calls) == 1
        found = []
        for value in vars(cache).values():
            if isinstance(value, dict):
                value = tuple(value.values())
            found += value if isinstance(value, tuple) else [value]
        qs = {id(a) for a in found if isinstance(a, np.ndarray) and a.shape == (len(grid),)}
        assert len(qs) <= 3

    @pytest.mark.parametrize("estimator", gp.ESTIMATORS)
    def test_ones_solved_once_per_recorded_length(self, estimator, monkeypatch):
        # either posterior solves for its residual weights only; S^-1 1 comes
        # from the state, solved once as each length is recorded, with a fresh
        # state's bits
        calls, solve = [], gp.cho_solve
        monkeypatch.setattr(gp, "cho_solve", lambda *a: calls.append(a) or solve(*a))
        rng = np.random.default_rng(37)
        grid = rng.uniform(0, 1, size=(60, 2))
        cache = GridCorrelations(grid, KERNEL)
        histories = self.histories(rng, 8, 2)[1:]
        first = [build_posterior(h, KERNEL, estimator, cache) for h in histories]
        assert len(calls) == 2 * len(histories)
        calls.clear()
        again = [build_posterior(h, KERNEL, estimator, cache) for h in histories]
        assert len(calls) == len(histories)
        assert all(np.array_equal(p.moments_grid(grid)[0], q.moments_grid(grid)[0])
                   for p, q in zip(again, first))
        parameters = [p.parameters for p in first]
        assert [p.parameters for p in again] == parameters
        assert [build_posterior(h, KERNEL, estimator).parameters for h in histories] == parameters

    def test_near_duplicate_forces_bulk_refactor(self, monkeypatch):
        # only the new point's own pivot decides between an append and a bulk factor
        calls, factor = [], gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor", lambda a: calls.append(a) or factor(a))
        kernel = CorrelationKernel("squared-exponential", 5.0)
        cache = GridCorrelations(np.linspace(0, 1, 101)[:, None], kernel)
        h = history_1d(np.array([0.1, 0.5]), [1.0, 2.0])
        cache.rows(h)
        h = h.with_observation([0.9], 0.5)
        cache.rows(h)
        assert len(calls) == 1  # a far point appends
        # a squared pivot of about 2*c*1e-10 lies below the floor
        h = h.with_observation([0.5 + 1e-5], 3.0)
        cache.rows(h)
        assert len(calls) == 2
        _, lower, _, jitter = cache.rows(h)
        sigma = correlation_matrix(h.points, kernel) + jitter * np.eye(h.n)
        assert np.array_equal(lower, np.tril(cho_factor(sigma, lower=True)[0]))
        # a far point appends again, onto the factor that holds that small pivot
        cache.rows(h.with_observation([0.2], 1.5))
        assert len(calls) == 2

    @staticmethod
    def state_bytes(cache, history):
        """Upsilon, L, q and the jitter that ``rows(history)`` gives, as bytes."""
        ups, lower, q, jitter = cache.rows(history)
        return [ups.tobytes(), lower.tobytes(), q.tobytes(), jitter]

    def test_history_that_does_not_extend_the_seen_points_gets_a_fresh_state(self):
        rng = np.random.default_rng(13)
        grid = rng.uniform(0, 1, size=(50, 1))
        short, longer = self.histories(rng, 4, 1)[1:4:2]
        cache = GridCorrelations(grid, KERNEL)
        handed = cache.rows(longer)[:3]
        before = [a.copy() for a in handed]
        moved = EvaluationHistory([0.0], [1.0], longer.points[::-1], longer.values)
        # fewer points than seen, the same count in another order, then the
        # first history extended, which now leaves the points seen
        for history in (short, moved, longer.with_observation([0.999], 1.0)):
            fresh = GridCorrelations(grid, KERNEL)
            assert self.state_bytes(cache, history) == self.state_bytes(fresh, history)
        for a, b in zip(handed, before):  # arrays handed out are never written again
            assert np.array_equal(a, b)

    # Near-duplicates in a 1-D pool, on which the squared-exponential S needs
    # bulk refactors and jitter.
    POOL = [0.1, 0.1 + 1e-9, 0.1 + 2e-5, 0.5, 0.5 + 3e-9, 0.9, 0.3, 0.7, 0.31, 0.0, 1.0,
            0.9 - 1e-8]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_state_gives_a_fresh_state_bits(self, data):
        kernel = CorrelationKernel("squared-exponential", 5.0)
        grid = np.linspace(0, 1, 41)[:, None]
        indices = st.lists(st.integers(0, len(self.POOL) - 1), min_size=3,
                           max_size=len(self.POOL), unique=True)
        first = data.draw(indices, label="first")
        split = data.draw(st.integers(0, len(first) - 1), label="split")
        rest = [i for i in data.draw(st.permutations(range(len(self.POOL))), label="rest")
                if i not in first[:split]]
        second = first[:split] + rest[:data.draw(st.integers(1, len(rest)), label="more")]
        start = data.draw(st.integers(1, 3), label="start")
        steps = data.draw(st.lists(st.integers(1, 2), min_size=len(self.POOL)), label="steps")
        lengths = [start + sum(steps[:k]) for k in range(len(self.POOL))]

        def calls(run):
            points = np.array([self.POOL[i] for i in run])
            return [history_1d(points[:n], np.zeros(n)) for n in lengths if n <= len(run)]

        shared = GridCorrelations(grid, kernel)
        for run in (first, second, first):  # the third run rewinds back to the first's points
            fresh = GridCorrelations(grid, kernel)
            for history in calls(run):
                assert self.state_bytes(shared, history) == self.state_bytes(fresh, history)

    def test_recorded_state_is_replayed(self, monkeypatch):
        kernel = CorrelationKernel("squared-exponential", 5.0)
        points = np.array(self.POOL)
        histories = [history_1d(points[:n], np.zeros(n)) for n in range(2, len(points) + 1)]
        cache = GridCorrelations(np.linspace(0, 1, 41)[:, None], kernel)
        first = [self.state_bytes(cache, history) for history in histories]
        # the second pass over the same points factors nothing and solves nothing
        monkeypatch.setattr(gp, "_factor_with_jitter", lambda *a: pytest.fail("factored"))
        monkeypatch.setattr(gp, "_solve_lower", lambda *a: pytest.fail("solved"))
        assert [self.state_bytes(cache, history) for history in histories] == first
        assert any(state[3] > 0 for state in first)  # some states carry jitter


class TestMeanSums:
    """On a grid of ``SUMMED_MEANS_GRID`` points or more a posterior sums its
    means from V's rows, one row per observation; every entry point gives the
    same bytes, and the means agree with the product w.Upsilon."""

    KERNELS = TestGridCorrelations.KERNELS

    @staticmethod
    def lattice():
        axis = np.linspace(0, 1, 65)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        assert len(grid) >= gp.SUMMED_MEANS_GRID
        return grid

    @staticmethod
    def run_histories(points, values, start=5):
        """One run's histories from ``start`` points on, viewed from its buffer."""
        design = EvaluationHistory([0.0, 0.0], [1.0, 1.0], points[:start], values[:start])
        buffer = gp.HistoryBuffer(design, len(points))
        return [buffer.history] + [buffer.append(p, v)
                                   for p, v in zip(points[start:], values[start:])]

    @staticmethod
    def moments_bytes(posterior, grid):
        return [a.tobytes() for a in posterior.moments_grid(grid)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_summed_means_agree_with_the_product(self, monkeypatch, kernel, estimator):
        # Each side on its own path: the product side's state is built with the
        # size rule above the grid, so it records no V and its means are never
        # summed.  Both states factor the same points alike, so variances and
        # clamped are the same bytes.
        grid = self.lattice()
        summing, means = [], gp.MeanSums.means
        monkeypatch.setattr(gp.MeanSums, "means", lambda *a: summing.append(1) or means(*a))
        summed_state, product_state = GridCorrelations(grid, kernel), GridCorrelations(grid, kernel)
        sums = gp.MeanSums()
        for history in self.run_histories(*oracles.random_history(np.random.default_rng(41), 14, 2)):
            summing.clear()
            summed = build_posterior(history, kernel, estimator, summed_state, sums).moments_grid(grid)
            assert summing == [1] and summed_state.whitened(history.n) is not None
            with monkeypatch.context() as patched:
                patched.setattr(gp, "SUMMED_MEANS_GRID", len(grid) + 1)
                posterior = build_posterior(history, kernel, estimator, product_state)
            product = posterior.moments_grid(grid)
            assert summing == [1] and product_state.whitened(history.n) is None
            # values lie in [-1, 1]: a mean near 0 is held to their scale
            np.testing.assert_allclose(summed[0], product[0], rtol=1e-10, atol=1e-12)
            assert summed[1].tobytes() == product[1].tobytes()
            assert summed[2].tobytes() == product[2].tobytes()

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("estimator", ["mle", "sample"])
    def test_kept_sums_equal_sums_from_scratch(self, kernel, estimator):
        # a run's sums, kept across its buffer's histories, against a posterior
        # on a plain history with the same points, which sums from row 0
        grid = self.lattice()
        state, sums = GridCorrelations(grid, kernel), gp.MeanSums()
        for history in self.run_histories(*oracles.random_history(np.random.default_rng(43), 14, 2)):
            kept = build_posterior(history, kernel, estimator, state, sums)
            plain = EvaluationHistory(history.lower, history.upper, history.points.copy(),
                                      history.values.copy())
            scratch = build_posterior(plain, kernel, estimator, state)
            assert self.moments_bytes(kept, grid) == self.moments_bytes(scratch, grid)
        # other values on the same points start the kept sums again
        other = EvaluationHistory(plain.lower, plain.upper, plain.points, -plain.values)
        assert (self.moments_bytes(build_posterior(other, kernel, estimator, state, sums), grid)
                == self.moments_bytes(build_posterior(other, kernel, estimator, state), grid))

    def test_grid_below_the_size_rule_records_no_v(self):
        # its means are the product, so no bulk factor leaves a V buffer alive
        kernel = CorrelationKernel("squared-exponential", 5.0)
        cache = GridCorrelations(np.linspace(0, 1, 1001)[:, None], kernel)
        points = np.array(TestGridCorrelations.POOL)
        lengths = range(2, len(points) + 1)
        for n in lengths:
            cache.rows(history_1d(points[:n], np.zeros(n)))
        assert [cache.whitened(n) for n in lengths] == [None] * len(lengths)

    def test_replayed_state_gives_a_fresh_state_bytes(self):
        # a near-duplicate point makes the squared-exponential state factor in
        # bulk at length 10; a replay of the lengths before reads the V rows
        # their L was built with, also after the state grows by reserve
        kernel = CorrelationKernel("squared-exponential", 5.0)
        grid = self.lattice()
        points, values = oracles.random_history(np.random.default_rng(47), 14, 2)
        points[9] = points[3] + [1e-9, 0.0]
        shared = GridCorrelations(grid, kernel)
        shared.reserve(12)
        histories = self.run_histories(points, values)

        def run(state, lengths):
            sums = gp.MeanSums()
            posteriors = [build_posterior(h, kernel, "mle", state, sums)
                          for h in histories if h.n in lengths]
            return [[p.jitter] + self.moments_bytes(p, grid) for p in posteriors]

        first = run(shared, range(5, 13))
        assert first[4][0] == 0 and first[5][0] > 0  # jitter from the bulk factor at 10
        assert run(shared, range(5, 13)) == first
        shared.reserve(40)
        assert run(shared, range(5, 13)) == first
        fresh = GridCorrelations(grid, kernel)
        assert run(fresh, range(5, 15)) == run(shared, range(5, 15))
        assert run(fresh, range(5, 15))[:8] == first
