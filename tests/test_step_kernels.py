"""The in-place kernels of a grid step against the expressions they replaced.

Each oracle below is the earlier, temporary-per-operation form of a kernel,
kept as the reference: the kernel must give its bytes, not values close to
them, because the goldens and the pinned 1-D decisions rest on those bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from scaleopt import acquisition as acq
from scaleopt import gp
from scaleopt import optimizer as opt
from scaleopt.errors import DuplicatePointsError, NonFiniteEstimateError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def ei_oracle(m, s, y_on):
    """The closed-form EI as np.where expressions over fresh temporaries (the
    last of which warned on an overflowing y_on - m; the in-place form does not)."""
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        u = np.where(s > 0, (y_on - m) / np.where(s > 0, s, 1.0), 0.0)
        cdf = 0.5 * erfc(-np.asarray(u, dtype=float) / _SQRT2)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
        ei = np.where(u > -np.inf, s * (u * cdf + pdf), 0.0)
        return np.where(s > 0, ei, np.maximum(y_on - m, 0.0))


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


means = st.floats(allow_nan=False, allow_infinity=False)
# s = 0, subnormal, tiny enough that u overflows, ordinary, huge and infinite
spreads = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-300),
                    st.floats(min_value=0.0), st.sampled_from([5e-324, 1e-310, 1.0, np.inf]))


class TestExpectedImprovement:
    @settings(max_examples=400, deadline=None)
    @given(pairs=st.lists(st.tuples(means, spreads), min_size=1, max_size=40), y_on=means)
    @example(pairs=[(0.0, 1e-300), (0.0, 1.0)], y_on=-1e10)  # u = -inf, then ordinary
    @example(pairs=[(-1e300, 1e-300), (1e300, 5e-324), (1e308, 0.0)], y_on=1e308)  # u = +-inf
    @example(pairs=[(1e300, 1.0), (-1e300, 2.0)], y_on=-1e300)  # m far beyond y_on
    def test_arrays(self, pairs, y_on):
        m, s = np.array(pairs).T
        assert same_bytes(acq.ei_closed_form(m, s, y_on), ei_oracle(m, s, y_on))

    @settings(max_examples=300, deadline=None)
    @given(m=means, s=spreads, y_on=means)
    @example(m=1.0, s=0.0, y_on=3.0)
    @example(m=0.0, s=1e-310, y_on=-1.0)
    def test_floats_and_0d_arrays(self, m, s, y_on):
        want = ei_oracle(m, s, y_on)
        assert want.shape == ()
        assert same_bytes(acq.ei_closed_form(m, s, y_on), want)
        assert same_bytes(acq.ei_closed_form(np.array(m), np.array(s), y_on), want)
        assert same_bytes(acq.ei_closed_form(np.float64(m), s, np.float64(y_on)), want)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_moments(self, seed):
        # ordinary values, where a re-rounded operation shows in most entries
        rng = np.random.default_rng(seed)
        m, s = rng.normal(size=5000), rng.lognormal(-2.0, 3.0, size=5000)
        s[::17] = 0.0
        y_on = float(rng.normal())
        assert same_bytes(acq.ei_closed_form(m, s, y_on), ei_oracle(m, s, y_on))

    def test_criterion_grid_on_a_run_state(self):
        # the criterion's EI is the oracle's on the moments it was built from
        history = gp.EvaluationHistory([-1.0], [1.0], np.linspace(-1, 1, 7)[:, None],
                                       np.sin(3 * np.linspace(-1, 1, 7)))
        points = opt.CandidateGrid.for_region([-1.0], [1.0]).points
        for estimator in gp.ESTIMATORS:
            posterior = gp.build_posterior(history, gp.CorrelationKernel(), estimator)
            asp = acq.aspiration(history, posterior.parameters, 0.1)
            means_, variances, _ = posterior.moments_grid(points)
            s = np.sqrt(variances)
            s[s <= acq.DEGENERATE_FACTOR * posterior.parameters.sigma] = 0.0
            values, _ = acq.criterion_grid(acq.EXPECTED_IMPROVEMENT, posterior, asp, points)
            assert same_bytes(values, ei_oracle(means_, s, asp.y_on))


def sample_history(values):
    n = len(values)
    return gp.EvaluationHistory([0.0], [1.0], np.linspace(0.0, 1.0, n)[:, None], values)


class TestSampleEstimate:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e200, max_value=1e200), min_size=2,
                           max_size=70))
    @example(values=[0.1, 0.2, 0.3])
    @example(values=[1e200, -1e200] * 10)  # deviations squared overflow
    def test_numpy_mean_and_var_bits(self, values):
        y = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            mu, sigma2 = np.mean(y), np.var(y, ddof=1)
        if np.isfinite(mu) and np.isfinite(sigma2):
            params = gp.estimate_sample(sample_history(y))
            assert same_bytes([params.mu, params.sigma2], [mu, sigma2])
        else:
            with pytest.raises(NonFiniteEstimateError):
                gp.estimate_sample(sample_history(y))

    @pytest.mark.parametrize("values, estimate", [
        ([1e308, 1e308, 1e308], "mu"), ([1e308, -1e308], "sigma2"),
        ([-1.7e308, 1e308, 1.5e308], "sigma2")])
    def test_overflow_raises(self, values, estimate):
        with pytest.raises(NonFiniteEstimateError, match=f"the sample estimate of {estimate} "):
            gp.estimate_sample(sample_history(values))


def rounded_or_overflow(rounded, y):
    try:
        return rounded(y)
    except OverflowError:
        return "overflow"


def normalized_by_fraction(values):
    """float((y - y_0)/s) for each y, with s the first nonzero |y - y_0|,
    or "overflow" where that float raises ``OverflowError``."""
    anchor, scale, out = values[0], None, []
    for y in values:
        diff = y - anchor
        if scale is None and diff != 0:
            scale = abs(diff)
        out.append(rounded_or_overflow(float, diff if scale is None else diff / scale))
    return out


exact = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
                  st.fractions(max_denominator=10**30),
                  st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)))


class TestNormalizedRounding:
    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(exact, min_size=1, max_size=8))
    @example(values=[Fraction(1, 3), Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11)])
    @example(values=[Fraction(0.1), Fraction(0.2), Fraction(-0.3)])
    def test_one_division_matches_the_fraction(self, values):
        normalize = opt.AffineNormalization()
        got = [rounded_or_overflow(normalize.rounded, y) for y in values]
        want = normalized_by_fraction(values)
        assert [type(h) for h in got] == [type(h) for h in want]
        floats = [(g, w) for g, w in zip(got, want) if w != "overflow"]
        assert same_bytes([g for g, _ in floats], [w for _, w in floats])

    def test_quotient_beyond_float64_raises_both_ways(self):
        values = [Fraction(0), Fraction(5e-324), Fraction(1e308)]
        assert normalized_by_fraction(values) == [0.0, 1.0, "overflow"]
        normalize = opt.AffineNormalization()
        assert [normalize.rounded(y) for y in values[:2]] == [0.0, 1.0]
        with pytest.raises(OverflowError):
            normalize.rounded(values[2])


@pytest.mark.parametrize("point, first", [
    ([1e-12, 1e-12], 0),  # exactly the threshold from point 0 on both axes, and from 2
    ([0.5, 0.5 - 1e-12], 1), ([2e-12, 2e-12], 2), ([2e-12, 1e-12], 2),
    ([3e-12, 0.0], None), ([0.5, 0.5 + 2e-12], None)])
def test_observation_check_at_the_threshold(point, first):
    # the same error and first index as the full check of every pair (same_point)
    points = np.array([[0.0, 0.0], [0.5, 0.5], [1e-12, 2e-12]])
    history = gp.EvaluationHistory([0.0, 0.0], [1.0, 1.0], points, [1.0, 2.0, 3.0])
    if first is None:
        gp.EvaluationHistory(history.lower, history.upper, np.vstack([points, [point]]),
                             [1.0, 2.0, 3.0, 4.0])
        assert gp.HistoryBuffer(history, 4).append(point, 4.0).n == 4
        return
    with pytest.raises(DuplicatePointsError, match=f"^points {first} and 3 are closer"):
        gp.EvaluationHistory(history.lower, history.upper, np.vstack([points, [point]]),
                             [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DuplicatePointsError, match=f"^points {first} and 3 are closer"):
        gp.HistoryBuffer(history, 4).append(point, 4.0)


def test_shared_prefix_counts_signed_zeros_equal():
    a = np.array([[0.0, 1.0], [0.5, -0.0], [0.25, 0.25]])
    b = np.array([[0.0, 1.0], [0.5, 0.0], [0.75, 0.25]])
    assert gp._shared_prefix(a, b) == 2
    assert gp._shared_prefix(a, a.copy()) == 3
    assert gp._shared_prefix(a[:2], b) == 2
