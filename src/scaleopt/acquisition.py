"""Acquisition criteria over the Gaussian surrogate.

Two criteria are provided: the improvement-probability statistic
``(y_on - m(x)) / s(x)`` and the expected improvement over the
aspiration level, in its closed form ``s * (u * Phi(u) + phi(u))``
with ``u = (y_on - m) / s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .gp import EvaluationHistory, ModelParameters, SurrogatePosterior

# s(x) <= DEGENERATE_FACTOR * sigma marks a query point degenerate.
DEGENERATE_FACTOR = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

P_CRITERION = "p-criterion"
EXPECTED_IMPROVEMENT = "expected-improvement"


@dataclass(frozen=True)
class AspirationLevel:
    """Target level below the current best, scaled by the estimated spread."""

    y_on: float
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


def aspiration(history: EvaluationHistory, parameters: ModelParameters,
               epsilon: float) -> AspirationLevel:
    """Aspiration level min_i y_i - epsilon * sigma-hat."""
    return AspirationLevel(float(history.values.min()) - epsilon * parameters.sigma,
                           epsilon)


def normal_cdf(t):
    """Standard normal cumulative distribution function."""
    return 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)


def normal_pdf(t):
    t = np.asarray(t, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


def ei_closed_form(m, s, y_on):
    """Vectorized closed-form EI for given posterior moments.

    Entries with s == 0 get the deterministic limit max(y_on - m, 0), and
    those whose u overflows to -inf the limit 0.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        u = np.where(s > 0, (y_on - m) / np.where(s > 0, s, 1.0), 0.0)
        ei = np.where(u > -np.inf, s * (u * normal_cdf(u) + normal_pdf(u)), 0.0)
    return np.where(s > 0, ei, np.maximum(y_on - m, 0.0))


def criterion_grid(kind: str, posterior: SurrogatePosterior, asp: AspirationLevel,
                   points: np.ndarray):
    """Criterion values and degeneracy mask over an (m, d) candidate array."""
    means, variances, _ = posterior.moments_grid(points)
    s = np.sqrt(variances)
    degenerate = s <= DEGENERATE_FACTOR * posterior.parameters.sigma
    if kind == P_CRITERION:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (asp.y_on - means) / np.where(degenerate, 1.0, s)
        values = np.where(degenerate, -np.inf, values)
    elif kind == EXPECTED_IMPROVEMENT:
        values = ei_closed_form(means, np.where(degenerate, 0.0, s), asp.y_on)
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    return values, degenerate
