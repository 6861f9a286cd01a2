"""Exception hierarchy for scaleopt."""


class ScaleoptError(Exception):
    """Base class for all scaleopt errors."""


class DuplicatePointsError(ScaleoptError):
    """Two evaluation points are closer than the distinctness threshold."""


class InsufficientDataError(ScaleoptError):
    """Not enough observations for the requested estimate."""


class IllConditionedModelError(ScaleoptError):
    """Correlation matrix could not be factorized even with maximum jitter."""


class ObjectiveEvaluationError(ScaleoptError):
    """The objective returned a value that is not finite or, as is or normalized, overflows."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"objective value {value!r} at {point!r} is not finite or overflows")


class NonFiniteEstimateError(ScaleoptError):
    """A model estimate, mu or sigma2, is not finite: the values overflow it."""

    def __init__(self, estimator, estimate, value):
        super().__init__(f"the {estimator} estimate of {estimate} is {value}, not finite: "
                         f"the normalized values overflow it")


class AllCandidatesDegenerateError(ScaleoptError):
    """Every candidate on the grid is degenerate; argmax cannot select."""


class UnsupportedDivisionError(ScaleoptError):
    """Extended-numeral division by a non-monomial or zero."""


class CollapseError(ScaleoptError):
    """Extended criterion failed to collapse to a purely finite value."""


class PreconditionError(ScaleoptError):
    """A documented precondition of an operation does not hold."""


class ConfigError(ScaleoptError):
    """Invalid run configuration."""


class UnsupportedScaleError(ConfigError):
    """Scale factor for an extended-arithmetic run must be a positive monomial."""
