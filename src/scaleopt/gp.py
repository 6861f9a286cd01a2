"""Gaussian stochastic-function surrogate.

Correlation kernels, the correlation matrix over observed points, the
conditional mean / variance of the model given the observations, and the
two parameter estimators (sample moments and maximum likelihood).  Both
estimators are affine equivariant: scaling the observed values by
``a*y + b`` maps the mean estimate to ``a*mu + b`` and the variance
estimate to ``a**2 * sigma2``, which is what makes the acquisition
criteria built on top of this module scale invariant.  A run's
``GridCorrelations`` appends one row of grid correlations per observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import (
    DuplicatePointsError,
    IllConditionedModelError,
    InsufficientDataError,
)

# Minimum pairwise distance (max-norm) between history points.
DUPLICATE_THRESHOLD = 1e-12

# Raw conditional variances in [-VARIANCE_CLAMP_TOL * sigma2, 0) clamp
# silently to zero; anything more negative is flagged.
VARIANCE_CLAMP_TOL = 1e-10

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


@dataclass(frozen=True)
class EvaluationHistory:
    """Observed pairs (x_i, y_i) inside a feasible hyper-rectangle."""

    lower: np.ndarray
    upper: np.ndarray
    points: np.ndarray  # shape (n, d)
    values: np.ndarray  # shape (n,)

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("region bounds must satisfy lower < upper")
        if points.ndim != 2 or points.shape[1] != lower.size:
            raise ValueError("points must have shape (n, d)")
        if values.shape != (points.shape[0],):
            raise ValueError("values must have one entry per point")
        if points.shape[0] < 1:
            raise ValueError("history needs at least one observation")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
            raise ValueError("points and values must be finite")
        if np.any(points < lower - 1e-12) or np.any(points > upper + 1e-12):
            raise ValueError("history points must lie inside the region")
        same = same_point(points, points)
        np.fill_diagonal(same, False)
        if same.any():
            i, j = np.argwhere(same)[0]  # i < j, as same is symmetric
            raise DuplicatePointsError(
                f"points {i} and {j} are closer than {DUPLICATE_THRESHOLD} (max-norm)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def visited(self, points) -> np.ndarray:
        """Mask of the (m, d) query points that are the same point as a history point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return same_point(points, self.points).any(axis=1)

    def with_observation(self, point, value) -> "EvaluationHistory":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return EvaluationHistory(
            self.lower,
            self.upper,
            np.vstack([self.points, point[None, :]]),
            np.append(self.values, float(value)),
        )


def same_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) mask of point pairs within DUPLICATE_THRESHOLD
    (max-norm): the one rule for when two points count as the same."""
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2) <= DUPLICATE_THRESHOLD


@dataclass(frozen=True)
class CorrelationKernel:
    """Stationary correlation function rho(x, x')."""

    family: str = "exponential"  # or "squared-exponential"
    c: float = 5.0

    def __post_init__(self):
        if self.family not in ("exponential", "squared-exponential"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (self.c > 0):
            raise ValueError("decay rate c must be positive")

    def of_distance(self, r):
        """Correlation as a function of the Euclidean distance r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.family == "exponential":
            return np.exp(-self.c * r)
        return np.exp(-self.c * r * r)


@dataclass(frozen=True)
class ModelParameters:
    """Estimated prior mean and variance."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


class Moments(NamedTuple):
    mean: float
    variance: float
    clamped: bool  # raw variance was below -VARIANCE_CLAMP_TOL * sigma2


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def correlation_matrix(history: EvaluationHistory, kernel: CorrelationKernel) -> np.ndarray:
    """The n x n matrix of pairwise correlations between history points."""
    d = _cross_distances(history.points, history.points)
    sigma = kernel.of_distance(d)
    np.fill_diagonal(sigma, 1.0)
    return sigma


class GridCorrelations:
    """The correlations Upsilon of fixed (m, d) points with a growing history.

    ``rows(history)`` computes each new history point's row once, and raises
    ``ValueError`` for a history that does not extend the points seen so far.
    """

    def __init__(self, points: np.ndarray, kernel: CorrelationKernel):
        self.points, self.kernel = points, kernel
        self._seen, self._ups = points[:0], np.empty((0, len(points)))

    def rows(self, history: EvaluationHistory) -> np.ndarray:
        n, k = history.n, len(self._seen)
        if not np.array_equal(history.points[:k], self._seen):
            raise ValueError("history does not extend the points cached so far")
        if n > len(self._ups):  # doubling keeps the copying O(m) per row
            self._ups = np.resize(self._ups, (max(n, 2 * len(self._ups)), len(self.points)))
        for i in range(k, n):
            self._ups[i] = self.kernel.of_distance(
                _cross_distances(history.points[i:i + 1], self.points))
        self._seen = history.points.copy()
        return self._ups[:n]


def estimate_sample(history: EvaluationHistory) -> ModelParameters:
    """Plain sample mean and unbiased sample variance of the observed values."""
    y = history.values
    if y.size < 2:
        raise InsufficientDataError("sample variance needs at least two observations")
    return ModelParameters(float(y.mean()), float(y.var(ddof=1)))


def _factor_with_jitter(sigma: np.ndarray):
    """Cholesky of sigma, escalating diagonal jitter until it succeeds."""
    jitter = 0.0
    while True:
        try:
            factor = cho_factor(sigma + jitter * np.eye(sigma.shape[0]), lower=True)
            return factor, jitter
        except LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_MAX:
                raise IllConditionedModelError(
                    f"correlation matrix not factorizable with jitter up to {_JITTER_MAX}"
                ) from None


def estimate_mle(history: EvaluationHistory, kernel: CorrelationKernel) -> ModelParameters:
    """Maximum likelihood estimates of (mu, sigma2) under the correlated model."""
    return SurrogatePosterior(history, kernel, "mle").parameters


class SurrogatePosterior:
    """Conditional Gaussian model given an evaluation history.

    The one place that factors the correlation matrix S.  The ``mle``
    estimates are the generalized-least-squares mean (1' S^-1 y) / (1' S^-1 1)
    and the averaged quadratic form of the residual weights S^-1 (y - mu),
    which the moments use too; ``sample`` uses ``estimate_sample``.
    Immutable after construction; moment queries are read-only.
    """

    def __init__(self, history: EvaluationHistory, kernel: CorrelationKernel,
                 estimator: str = "mle", grid_correlations: Optional[GridCorrelations] = None):
        if estimator not in ("mle", "sample"):
            raise ValueError(f"unknown estimator tag {estimator!r}")
        self.history = history
        self.kernel = kernel
        self.grid_correlations = grid_correlations
        self._factor, self.jitter = _factor_with_jitter(correlation_matrix(history, kernel))
        y = history.values
        if estimator == "sample":
            self.parameters = estimate_sample(history)
            mu = self.parameters.mu
        else:
            ones = np.ones_like(y)
            s_inv_ones = cho_solve(self._factor, ones)
            mu = float(s_inv_ones @ y) / float(s_inv_ones @ ones)
        # Premultiplied residual weights: (y - mu)' S^-1
        self._resid_weights = cho_solve(self._factor, y - mu)
        if estimator == "mle":
            sigma2 = float((y - mu) @ self._resid_weights) / y.size
            self.parameters = ModelParameters(mu, max(sigma2, 0.0))

    def conditional_moments(self, x) -> Moments:
        """Conditional mean and variance of the model at x."""
        means, variances, clamped = self.moments_grid(np.atleast_1d(x)[None, :])
        return Moments(float(means[0]), float(variances[0]), bool(clamped[0]))

    def moments_grid(self, points: np.ndarray):
        """Vectorized conditional moments for an (m, d) array of query points.

        Returns (means, variances, clamped_mask) as arrays of length m.  The
        correlations come from ``grid_correlations`` if ``points`` is its grid.
        """
        cache = self.grid_correlations
        if cache is None or points is not cache.points or cache.kernel != self.kernel:
            cache = GridCorrelations(np.atleast_2d(np.asarray(points, dtype=float)), self.kernel)
        ups = cache.rows(self.history)  # (n, m)
        means = self.parameters.mu + self._resid_weights @ ups
        raw = 1.0 - np.einsum("im,im->m", ups, cho_solve(self._factor, ups))
        sigma2 = self.parameters.sigma2
        clamped = raw < -VARIANCE_CLAMP_TOL
        variances = sigma2 * np.clip(raw, 0.0, 1.0)
        return means, variances, clamped


def build_posterior(history: EvaluationHistory, kernel: CorrelationKernel, estimator: str = "mle",
                    grid_correlations: Optional[GridCorrelations] = None) -> SurrogatePosterior:
    """Estimate parameters and construct the posterior in one step."""
    return SurrogatePosterior(history, kernel, estimator, grid_correlations)
