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
    return AspirationLevel(float(np.minimum.reduce(history.values)) - epsilon * parameters.sigma,
                           epsilon)


def normal_cdf(t, out=None):
    """Standard normal cumulative distribution function, into ``out`` if given."""
    cdf = erfc(np.divide(t, -_SQRT2, out=out), out=out)  # erfc(-t / sqrt 2): -t is exact
    return np.multiply(cdf, 0.5, out=out)


def normal_pdf(t, out=None):
    """Standard normal density exp((-0.5 * t) * t) / sqrt(2 pi), into ``out`` if given."""
    pdf = np.exp(np.multiply(np.multiply(t, -0.5, out=out), t, out=out), out=out)
    return np.multiply(pdf, _INV_SQRT_2PI, out=out)


def ei_closed_form(m, s, y_on):
    """Vectorized closed-form EI for given posterior moments, one in-place pass per operation.

    Entries with s == 0 get the deterministic limit max(y_on - m, 0), and
    those whose u overflows to -inf the limit 0; float inputs give a 0-d array.
    """
    s = np.asarray(s, dtype=float)
    shape = np.broadcast(m, s, y_on).shape
    gain, u, ei, pdf = np.empty(shape), np.zeros(shape), np.empty(shape), np.empty(shape)
    with np.errstate(all="ignore"):
        positive = s > 0
        np.divide(np.subtract(y_on, m, out=gain), s, out=u, where=positive)  # else u = 0
        normal_cdf(u, out=ei)
        normal_pdf(u, out=pdf)
        np.multiply(np.add(np.multiply(ei, u, out=ei), pdf, out=ei), s, out=ei)  # s*(u*cdf + pdf)
        np.copyto(ei, 0.0, where=~(u > -np.inf))
        np.maximum(gain, 0.0, out=ei, where=~positive)
    return ei


def criterion_grid(kind: str, posterior: SurrogatePosterior, asp: AspirationLevel,
                   points: np.ndarray):
    """Criterion values and degeneracy mask over an (m, d) candidate array."""
    means, variances, _ = posterior.moments_grid(points)
    s = np.sqrt(variances, out=variances)
    degenerate = s <= DEGENERATE_FACTOR * posterior.parameters.sigma
    if kind == P_CRITERION:
        values = np.subtract(asp.y_on, means, out=means)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values /= s  # a degenerate entry's quotient is replaced next
        np.copyto(values, -np.inf, where=degenerate)
    elif kind == EXPECTED_IMPROVEMENT:
        np.copyto(s, 0.0, where=degenerate)
        values = ei_closed_form(means, s, asp.y_on)
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    return values, degenerate
