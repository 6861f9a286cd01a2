import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scaleopt import acquisition as acq
from scaleopt.gp import CorrelationKernel, EvaluationHistory, build_posterior, estimate_mle

KERNEL = CorrelationKernel("exponential", 5.0)

FIG1_POINTS = np.array([[0.0], [0.2], [0.5], [0.9], [1.0]])
FIG1_VALUES = np.array([-0.8, -0.9, -0.65, -0.85, -0.55])


def fig1_history(values=FIG1_VALUES):
    return EvaluationHistory([0.0], [1.0], FIG1_POINTS, values)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert acq.normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert acq.normal_cdf(40.0) == 1.0
        assert acq.normal_cdf(-40.0) == 0.0

    def test_reference_value(self):
        assert acq.normal_cdf(1.0) == pytest.approx(0.8413447460685429,
                                                    abs=1e-15)

    def test_reflection(self):
        for t in np.linspace(-6, 6, 25):
            assert acq.normal_cdf(-t) == pytest.approx(1 - acq.normal_cdf(t),
                                                       abs=1e-14)

    def test_against_high_precision_erf(self):
        mpmath.mp.dps = 50
        ts = np.arange(-8.0, 8.0 + 1e-9, 0.05)
        for t in ts:
            ref = float(0.5 * mpmath.erfc(-mpmath.mpf(t) / mpmath.sqrt(2)))
            assert abs(acq.normal_cdf(t) - ref) <= 1e-12

    def test_monotone(self):
        ts = np.linspace(-8, 8, 801)
        vals = acq.normal_cdf(ts)
        assert np.all(np.diff(vals) >= 0)


class TestAspiration:
    def test_two_point_hand_value(self):
        h = EvaluationHistory([0.0], [1.0], [[0.1], [0.9]], [0.0, 2.0])
        from scaleopt.gp import ModelParameters
        params = ModelParameters(1.0, 2.0)
        assert acq.aspiration(h, params, 0.1) == pytest.approx(-0.1 * math.sqrt(2.0))

    def test_zero_spread(self):
        h = EvaluationHistory([0.0], [1.0], [[0.1], [0.9]], [3.0, 3.0])
        from scaleopt.gp import ModelParameters
        params = ModelParameters(3.0, 0.0)
        assert acq.aspiration(h, params, 0.1) == 3.0

    def test_scales_affinely(self):
        a, b = 2.5, -1.0
        h = fig1_history()
        params = estimate_mle(h, KERNEL)
        hz = fig1_history(a * FIG1_VALUES + b)
        params_z = estimate_mle(hz, KERNEL)
        y_on = acq.aspiration(h, params, 0.1)
        z_on = acq.aspiration(hz, params_z, 0.1)
        assert z_on == pytest.approx(a * y_on + b, rel=1e-12)

    def test_epsilon_must_be_positive(self):
        h = fig1_history()
        params = estimate_mle(h, KERNEL)
        for epsilon in (0.0, math.nan, math.inf):  # and finite
            with pytest.raises(ValueError):
                acq.aspiration(h, params, epsilon)


class TestPCriterion:
    def test_history_points_rank_below_unvisited(self):
        # Re-evaluating a known point cannot improve: under either criterion
        # each history point is degenerate or valued below every unvisited one.
        history = fig1_history()
        posterior = build_posterior(history, KERNEL)
        asp = acq.aspiration(history, posterior.parameters, 0.1)
        xs = np.linspace(0, 1, 1001)[:, None]
        known = history.visited(xs)
        assert known.sum() == len(FIG1_POINTS)
        with pytest.raises(ValueError, match="unknown criterion kind 'pi'"):
            acq.criterion_grid("pi", posterior, asp, xs)
        for kind in (acq.P_CRITERION, acq.EXPECTED_IMPROVEMENT):
            values, degenerate = acq.criterion_grid(kind, posterior, asp, xs)
            assert not degenerate[~known].any()
            floor = values[~known].min()
            assert all(d or v < floor
                       for v, d in zip(values[known], degenerate[known]))

    def test_centered_case_zero(self):
        posterior = build_posterior(fig1_history(), KERNEL)
        m, s2, _ = posterior.conditional_moments([0.35])
        values, degenerate = acq.criterion_grid(acq.P_CRITERION, posterior, m,
                                                np.array([[0.35]]))
        assert not degenerate[0]
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_fig1_scaled_curve_coincides(self):
        a, b = 3.9765, 3.1804
        post_f = build_posterior(fig1_history(), KERNEL)
        post_z = build_posterior(fig1_history(a * FIG1_VALUES + b), KERNEL)
        asp_f = acq.aspiration(fig1_history(), post_f.parameters, 0.1)
        asp_z = acq.aspiration(fig1_history(a * FIG1_VALUES + b),
                               post_z.parameters, 0.1)
        xs = np.linspace(0, 1, 1001)[:, None]
        c_f, deg_f = acq.criterion_grid(acq.P_CRITERION, post_f, asp_f, xs)
        c_z, deg_z = acq.criterion_grid(acq.P_CRITERION, post_z, asp_z, xs)
        np.testing.assert_array_equal(deg_f, deg_z)
        mask = ~deg_f
        np.testing.assert_allclose(c_z[mask], c_f[mask], rtol=1e-9)
        assert np.argmax(np.where(deg_f, -np.inf, c_f)) == \
            np.argmax(np.where(deg_z, -np.inf, c_z))


class TestExpectedImprovement:
    def test_u_overflowing_to_minus_inf_has_limit_zero(self):
        # (y_on - m)/s overflows to -inf, where u*Phi(u) would be -inf*0 = nan
        ei = acq.ei_closed_form(np.array([0.0, 0.0]), np.array([1e-300, 1.0]), -1e10)
        assert ei[0] == 0.0 and np.isfinite(ei[1])

    def test_deterministic_limit(self):
        assert acq.ei_closed_form(1.0, 0.0, 3.0) == pytest.approx(2.0)
        assert acq.ei_closed_form(5.0, 0.0, 3.0) == 0.0

    def test_centered_value(self):
        # u = 0: only the density term survives.
        s = 0.7
        assert acq.ei_closed_form(2.0, s, 2.0) == pytest.approx(
            s / math.sqrt(2 * math.pi), rel=1e-14)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            m = rng.uniform(-5, 5)
            s = rng.uniform(0.05, 3.0)
            y_on = m + rng.uniform(-4, 4) * s
            ref = oracles.ei_quadrature(m, s, y_on)
            assert abs(acq.ei_closed_form(m, s, y_on) - ref) <= 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-10, 10, size=500)
        s = rng.uniform(0, 3, size=500)
        y_on = rng.uniform(-10, 10, size=500)
        assert np.all(acq.ei_closed_form(m, s, y_on) >= 0)

    def test_monotone_in_s(self):
        ss = np.linspace(0.01, 5.0, 400)
        for y_on, m in [(0.0, 1.0), (0.0, -1.0), (2.0, 2.0)]:
            vals = acq.ei_closed_form(np.full_like(ss, m), ss, y_on)
            assert np.all(np.diff(vals) >= -1e-14)

    @given(a=st.floats(1e-3, 1e3), b=st.floats(-1e2, 1e2))
    @settings(max_examples=30, deadline=None)
    def test_scaling_property(self, a, b):
        post_f = build_posterior(fig1_history(), KERNEL)
        post_z = build_posterior(fig1_history(a * FIG1_VALUES + b), KERNEL)
        asp_f = acq.aspiration(fig1_history(), post_f.parameters, 0.1)
        asp_z = acq.aspiration(fig1_history(a * FIG1_VALUES + b),
                               post_z.parameters, 0.1)
        xs = np.linspace(0.02, 0.98, 49)[:, None]
        c_f, deg_f = acq.criterion_grid(acq.EXPECTED_IMPROVEMENT, post_f,
                                        asp_f, xs)
        c_z, deg_z = acq.criterion_grid(acq.EXPECTED_IMPROVEMENT, post_z,
                                        asp_z, xs)
        mask = ~(deg_f | deg_z)
        np.testing.assert_allclose(c_z[mask], a * c_f[mask], rtol=1e-9,
                                   atol=1e-12 * a)

    def test_degenerate_uses_deterministic_limit(self):
        posterior = build_posterior(fig1_history(), KERNEL)
        values, degenerate = acq.criterion_grid(acq.EXPECTED_IMPROVEMENT, posterior,
                                                -0.5, np.array([[0.2]]))
        assert degenerate[0]
        # history value at 0.2 is -0.9 < y_on, improvement is certain
        assert values[0] == pytest.approx(-0.5 - (-0.9), rel=1e-9)
