"""Minimal extended-numeral arithmetic for affine value scaling.

A numeral is a finite sum of terms ``c * G^p`` with integer grades p,
where G denotes the base infinite unit: p > 0 terms are infinite, p = 0
finite, p < 0 infinitesimal.  Coefficients are exact ``Fraction``s, so
every operation (+, -, *, division by a monomial, total order) is exact:
a grade vanishes only if its terms cancel, two numerals are equal only if
their terms are, and hashing agrees with equality.

``scaled_criterion_run`` runs an optimizer on ``z = a*f(x) + b`` for any
positive single-term a, finite, infinite or infinitesimal, and any b; it
is the scaled run of every homogeneity check.  It normalizes the numeral
values by the optimizer's own rule, ``(z - z_0)/s``; for a positive
monomial a this cancels every grade and leaves exactly the finite value a
run on f would see, so the scaled values themselves are never rounded,
and any value that keeps a term outside grade 0 raises ``CollapseError``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CollapseError,
    UnsupportedDivisionError,
    UnsupportedScaleError,
)
from .optimizer import (
    P_ALGORITHM,
    AffineNormalization,
    exact_value,
    grid_run,
)


class ExtendedNumeral:
    """Immutable finite sum of c * G^p terms in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical = {int(g): c if isinstance(c, Fraction) else Fraction(c)
                     for g, c in (terms or {}).items()}
        object.__setattr__(self, "terms", {g: c for g, c in canonical.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedNumeral is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_real(cls, r) -> "ExtendedNumeral":
        return cls({0: r})

    @classmethod
    def monomial(cls, coeff, grade: int) -> "ExtendedNumeral":
        return cls({grade: coeff})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        """Purely finite: zero or a single grade-0 term."""
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading(self):
        """(grade, coefficient) of the highest-grade term."""
        if self.is_zero:
            return (0, Fraction(0))
        grade = max(self.terms)
        return grade, self.terms[grade]

    def coefficient(self, grade: int) -> Fraction:
        return self.terms.get(int(grade), Fraction(0))

    def to_real(self) -> Fraction:
        if not self.is_finite:
            raise ValueError(f"{self} has infinite or infinitesimal part")
        return self.coefficient(0)

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other, sign):
        other = _coerce(other)
        terms = dict(self.terms)
        for grade, coeff in other.terms.items():
            terms[grade] = terms.get(grade, 0) + sign * coeff
        return _canonical(terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _canonical({g: -c for g, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        terms = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                terms[g1 + g2] = terms.get(g1 + g2, 0) + c1 * c2
        return _canonical(terms)

    __rmul__ = __mul__

    def div_monomial(self, divisor) -> "ExtendedNumeral":
        divisor = _coerce(divisor)
        if not divisor.is_monomial:
            raise UnsupportedDivisionError(
                "division is supported only by a single nonzero term")
        grade, coeff = next(iter(divisor.terms.items()))
        return _canonical({g - grade: c / coeff for g, c in self.terms.items()})

    def __truediv__(self, other):
        return self.div_monomial(other)

    # -- order --------------------------------------------------------

    def compare(self, other) -> int:
        """Sign of self - other under the grade-lexicographic order."""
        diff = self if type(other) is int and other == 0 else self - other
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
        if not isinstance(other, (ExtendedNumeral, int, float, Fraction)):
            return NotImplemented
        if isinstance(other, float) and not math.isfinite(other):
            return False  # every numeral has finite coefficients
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
                body = _coefficient_text(mag)
            else:
                power = "G" if grade == 1 else f"G^{grade}"
                body = power if mag == 1 else f"{_coefficient_text(mag)}*{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _canonical(terms: dict) -> ExtendedNumeral:
    """The numeral of terms that are already canonical, int grades and
    ``Fraction`` coefficients, with its zero terms dropped: what ``__init__``
    makes of them, without converting each term again."""
    numeral = object.__new__(ExtendedNumeral)
    object.__setattr__(numeral, "terms", {g: c for g, c in terms.items() if c})
    return numeral


def _coefficient_text(c: Fraction) -> str:
    """A coefficient that is a float as that float's repr, any other as p/q."""
    as_float = float(c) if abs(c) <= sys.float_info.max else math.inf
    return repr(as_float) if as_float == c else str(c)


def _coerce(value) -> ExtendedNumeral:
    if isinstance(value, ExtendedNumeral):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite, so it is no extended numeral")
    if isinstance(value, (int, float, Fraction)):
        return ExtendedNumeral({0: value})
    raise TypeError(f"cannot interpret {value!r} as an extended numeral")


GROSSONE = ExtendedNumeral.monomial(1, 1)

_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?:/0*[1-9]\d*)?)\s*
            (?:\*\s*(?P<unit1>G(?:\^(?P<p1>-?\d+))?))?
          | (?P<unit2>G(?:\^(?P<p2>-?\d+))?)
        )\s*""",
    re.VERBOSE | re.ASCII,  # \d is 0-9 alone, not every Unicode digit
)


def parse_numeral(text: str) -> ExtendedNumeral:
    """Parse the textual numeral form, e.g. ``3*G^2 + 1.5 - 2*G^-1`` or ``1/3*G``."""
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
        factor = -1 if sign == "-" else 1
        coeff = match.group("coeff")
        unit = match.group("unit1") or match.group("unit2")
        power = match.group("p1") or match.group("p2")
        grade = 0
        if unit is not None:
            grade = int(power) if power is not None else 1
        if coeff is None:
            magnitude = 1.0
        else:  # a decimal is read as a float, p/q exactly
            magnitude = Fraction(coeff) if "/" in coeff else float(coeff)
        underflow = magnitude == 0 and re.search("[1-9]", re.split("[eE/]", coeff)[0])
        if magnitude > sys.float_info.max or underflow:  # 1e400 and 1e-400 alike
            raise ValueError(f"numeral {text!r} has a coefficient outside float64 range")
        total = total + ExtendedNumeral.monomial(factor * magnitude, grade)
        pos = match.end()
        first = False
    if any(abs(c) > sys.float_info.max for c in total.terms.values()):
        raise ValueError(f"numeral {text!r} has a coefficient outside float64 range")
    return total


def as_numeral(value) -> ExtendedNumeral:
    """Accept a numeral, a number, or the textual form."""
    if isinstance(value, str):
        return parse_numeral(value)
    return _coerce(value)


def positive_scale(a) -> ExtendedNumeral:
    """The scale factor a as a numeral, checked to be one positive term c*G^p.

    Any finite a > 0 is such a term; this is the one rule for every scaling.
    """
    a = as_numeral(a)
    if a.leading()[1] <= 0:
        raise UnsupportedScaleError("scale factor a must be positive")
    if not a.is_monomial:
        raise UnsupportedScaleError("scale factor a must be a single term c*G^p")
    return a


@dataclass(frozen=True)
class StepCertificate:
    """Evidence that a step's normalized observation collapsed to grade 0.

    A run that returns has collapsed every value exactly, so every
    certificate reads ``collapsed`` with deviation 0.0; a value that does
    not collapse raises ``CollapseError`` instead.
    """

    iteration: int
    max_relative_deviation: float
    collapsed: bool


def scaled_criterion_run(objective, a, b, lower, upper, algorithm: str = P_ALGORITHM,
                         **options):
    """Run ``algorithm`` on the extended-numeral values z = a*f(x) + b.

    f may return numerals or numbers; a number is read by
    ``optimizer.exact_value``.  Each z is formed as a numeral and normalized
    by the optimizer's rule, ``AffineNormalization``: h = (z - z_0)/s.  The
    normalized value must be purely finite, or ``CollapseError`` is raised;
    the exact finite value then goes to the common run loop
    (``optimizer.grid_run``), whose own normalization leaves it unchanged.
    For a positive monomial a the model therefore sees bit for bit what a
    run on f sees.  The trace is in the normalized frame, for finite and
    extended scalings alike, so it does not depend on a and b.  ``options``
    and their defaults are ``optimizer.grid_run``'s.

    Returns (trace, certificates), one certificate per step.
    """
    a = positive_scale(a)
    b = as_numeral(b)
    normalize = AffineNormalization()

    def collapsed(x):
        y = objective(x)
        if not isinstance(y, ExtendedNumeral):
            y = exact_value(y, x)
        try:
            h = normalize(a * y + b)
        except UnsupportedDivisionError:
            raise CollapseError(f"the values up to x={np.atleast_1d(x).tolist()} "
                                f"differ in more than one grade") from None
        if not h.is_finite:
            raise CollapseError(f"normalized value {h} at x={np.atleast_1d(x).tolist()} "
                                f"kept a term outside grade 0")
        return h.to_real()

    trace = grid_run(algorithm, collapsed, lower, upper, **options)
    # Every observation collapsed exactly, or the run would have raised.
    return trace, [StepCertificate(r.iteration, 0.0, True) for r in trace.steps]
