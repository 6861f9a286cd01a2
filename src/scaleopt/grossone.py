"""Minimal extended-numeral arithmetic for affine value scaling.

A numeral is a finite sum of terms ``c * G^p`` with integer grades p,
where G denotes the base infinite unit: p > 0 terms are infinite, p = 0
finite, p < 0 infinitesimal.  The supported operations (+, -, *,
division by a monomial, total order) are exactly what is needed to scale
objective values by ``a * y + b`` with infinite or infinitesimal a, b
and to evaluate the improvement-probability criterion on the scaled
values.  The criterion is a ratio whose grades cancel, so each evaluation
collapses back to an ordinary finite number; the collapse is checked at
run time.  Sums are exact gradewise: a grade vanishes only if its terms
cancel exactly, and single numerals are equal only if their terms are.
Coefficients may be float arrays of one shape, an array of numerals over
shared grades whose zero entries are absent terms; order, hashing and the
text form are defined for single numerals only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import acquisition as acq
from .errors import CollapseError, UnsupportedDivisionError, UnsupportedScaleError
from .gp import CorrelationKernel
from .optimizer import (
    P_ALGORITHM,
    CandidateGrid,
    default_initial_design,
    grid_run,
    select_best,
)

# Largest relative deviation of a collapsed criterion from the float one.
COLLAPSE_TOL = 1e-9


class ExtendedNumeral:
    """Immutable finite sum of c * G^p terms in canonical form."""

    __slots__ = ("terms",)
    __array_ufunc__ = None  # ndarray operands defer to the reflected operators

    def __init__(self, terms=None):
        canonical = {int(g): np.asarray(c, dtype=float) for g, c in (terms or {}).items()}
        shape = np.broadcast_shapes(*(c.shape for c in canonical.values()))
        if shape:
            canonical = {g: np.broadcast_to(c, shape) for g, c in canonical.items()}
        else:
            canonical = {g: float(c) for g, c in canonical.items() if c != 0.0}
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedNumeral is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_real(cls, r) -> "ExtendedNumeral":
        return cls({0: float(r)})

    @classmethod
    def monomial(cls, coeff: float, grade: int) -> "ExtendedNumeral":
        return cls({int(grade): float(coeff)})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        """Purely finite: zero or a single grade-0 term."""
        return self.is_zero or set(self.terms) == {0}

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading(self):
        """(grade, coefficient) of the highest-grade term."""
        if self.is_zero:
            return (0, 0.0)
        grade = max(self.terms)
        return grade, self.terms[grade]

    def coefficient(self, grade: int) -> float:
        return self.terms.get(int(grade), 0.0)

    def to_real(self) -> float:
        if not self.is_finite:
            raise ValueError(f"{self} has infinite or infinitesimal part")
        return self.coefficient(0)

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other, sign):
        other = _coerce(other)
        terms = dict(self.terms)
        for grade, coeff in other.terms.items():
            terms[grade] = terms.get(grade, 0.0) + sign * coeff
        return ExtendedNumeral(terms)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return ExtendedNumeral({g: -c for g, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        terms = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                terms[g1 + g2] = terms.get(g1 + g2, 0.0) + c1 * c2
        return ExtendedNumeral(terms)

    __rmul__ = __mul__

    def div_monomial(self, divisor) -> "ExtendedNumeral":
        divisor = _coerce(divisor)
        if not divisor.is_monomial:
            raise UnsupportedDivisionError(
                "division is supported only by a single nonzero term")
        grade, coeff = next(iter(divisor.terms.items()))
        return ExtendedNumeral({g - grade: c / coeff for g, c in self.terms.items()})

    def __truediv__(self, other):
        return self.div_monomial(other)

    # -- order --------------------------------------------------------

    def compare(self, other) -> int:
        """Sign of self - other under the grade-lexicographic order."""
        diff = self - other
        if diff.is_zero:
            return 0
        _, coeff = diff.leading()
        return 1 if coeff > 0 else -1

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (ExtendedNumeral, int, float)):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self):
        # Equal numerals have equal terms, and a finite one equals its real.
        return hash(self.to_real() if self.is_finite else tuple(sorted(self.terms.items())))

    # -- text form ----------------------------------------------------

    def __repr__(self):
        return f"ExtendedNumeral({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for grade in sorted(self.terms, reverse=True):
            coeff = self.terms[grade]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if grade == 0:
                body = repr(mag)
            else:
                power = "G" if grade == 1 else f"G^{grade}"
                body = power if mag == 1.0 else f"{mag!r}*{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _coerce(value) -> ExtendedNumeral:
    if isinstance(value, ExtendedNumeral):
        return value
    if isinstance(value, (int, float, np.ndarray)):
        return ExtendedNumeral({0: value})
    raise TypeError(f"cannot interpret {value!r} as an extended numeral")


GROSSONE = ExtendedNumeral.monomial(1.0, 1)

_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*(?:\*\s*(?P<unit1>G(?:\^(?P<p1>-?\d+))?))?
          | (?P<unit2>G(?:\^(?P<p2>-?\d+))?)
        )\s*""",
    re.VERBOSE,
)


def parse_numeral(text: str) -> ExtendedNumeral:
    """Parse the textual numeral form, e.g. ``3*G^2 + 1.5 - 2*G^-1``."""
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty numeral")
    total = ExtendedNumeral()
    first = True
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse numeral {text!r} at position {pos}")
        sign = match.group("sign")
        if not first and sign == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        factor = -1.0 if sign == "-" else 1.0
        coeff = match.group("coeff")
        unit = match.group("unit1") or match.group("unit2")
        power = match.group("p1") or match.group("p2")
        grade = 0
        if unit is not None:
            grade = int(power) if power is not None else 1
        magnitude = float(coeff) if coeff is not None else 1.0
        total = total + ExtendedNumeral.monomial(factor * magnitude, grade)
        pos = match.end()
        first = False
    if not all(np.isfinite(c) for c in total.terms.values()):
        raise ValueError(f"numeral {text!r} has a coefficient beyond float64 range")
    return total


def as_numeral(value) -> ExtendedNumeral:
    """Accept a numeral, a number, or the textual form."""
    if isinstance(value, str):
        return parse_numeral(value)
    return _coerce(value)


@dataclass(frozen=True)
class StepCertificate:
    """Evidence that every extended criterion value collapsed to grade 0."""

    iteration: int
    max_relative_deviation: float
    collapsed: bool


def scaled_criterion_run(objective, a, b, lower, upper,
                         initial_design=None, budget: int = 15,
                         kernel: Optional[CorrelationKernel] = None,
                         estimator: str = "mle", epsilon: float = 0.1,
                         grid: Optional[CandidateGrid] = None):
    """P-algorithm run on extended-numeral values z = a*f(x) + b.

    The common run loop (``optimizer.grid_run``) builds the float model
    from the values h_i = y_i - y_0 centred on the first observation.  Its
    selector carries z_i = a*h_i + b (a shift by a*y_0, which changes no
    criterion), the scaled estimates, the scaled aspiration level and the
    criterion numerator/denominator as extended numerals, with one array
    coefficient per eligible candidate.  Each candidate's criterion is
    divided by the monomial ``a * s_n(x)`` and must collapse to a purely
    finite value matching the conventional criterion; the per-step
    certificates record that this happened.

    Returns (trace, certificates).
    """
    a = as_numeral(a)
    b = as_numeral(b)
    if not a.is_monomial:
        raise UnsupportedScaleError("scale factor a must be a single term c*G^p")
    if a.leading()[1] <= 0:
        raise UnsupportedScaleError("scale factor a must be positive")
    if initial_design is None:
        initial_design = default_initial_design(lower, upper)
    n_initial = len(np.atleast_2d(initial_design))
    certificates = []

    def select(posterior, asp, grid):
        history, params = posterior.history, posterior.parameters
        points = grid.points
        # Scaled observations and equivariant estimates, as numerals.
        z = [a * h + b for h in history.values]
        mu_ext = a * params.mu + b
        sigma_ext = a * params.sigma  # positive monomial
        z_on = min(z) - asp.epsilon * sigma_ext

        # Residual weights S^-1 Ups per candidate, shared with the float moments.
        means, variances, _, weights = posterior.moments_with_weights(points)
        conventional, degenerate = acq.criterion_from_moments(
            acq.P_CRITERION, posterior, asp, means, variances)
        ratio = np.sqrt(variances) / params.sigma  # sqrt(1 - Ups' S^-1 Ups), scale free
        eligible = ~history.visited(points) & ~degenerate
        idx = np.flatnonzero(eligible)

        # Numerals with one coefficient per eligible candidate.
        m_ext = mu_ext
        for w, zi in zip(weights[:, idx], z):
            m_ext = m_ext + w * (zi - mu_ext)
        crit = (z_on - m_ext).div_monomial(sigma_ext * ratio[idx])
        for grade, coeff in sorted(crit.terms.items(), reverse=True):
            if grade != 0 and coeff.any():
                raise CollapseError(f"criterion at grid index "
                                    f"{idx[np.flatnonzero(coeff)[0]]} kept grade {grade}")
        val = crit.coefficient(0)
        ref = conventional[idx]
        dev = np.abs(val - ref) / np.maximum(np.maximum(np.abs(val), np.abs(ref)), 1e-300)
        max_dev = float(np.fmax.reduce(dev, initial=0.0))  # NaN deviations skipped
        values = np.full(points.shape[0], -np.inf)
        values[idx] = val
        certificates.append(StepCertificate(history.n - n_initial + 1, max_dev,
                                            max_dev <= COLLAPSE_TOL))
        if max_dev > COLLAPSE_TOL:
            raise CollapseError(
                f"extended criterion deviates from conventional by {max_dev:.3e}")
        return select_best(values, eligible, points)

    trace = grid_run(P_ALGORITHM, select, objective, lower, upper, initial_design,
                     budget, kernel, estimator, epsilon, grid)
    return trace, certificates
