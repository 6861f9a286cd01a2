"""Built-in 1-D test objectives and the fixed-design example data."""

from __future__ import annotations

import math

import numpy as np

# Five-point planning example: design points, observed values, and the
# affine constants relating the two data sets (phi = a*f + b).
FIG1_POINTS = (0.0, 0.2, 0.5, 0.9, 1.0)
FIG1_F_VALUES = (-0.8, -0.9, -0.65, -0.85, -0.55)
FIG1_PHI_VALUES = (0.0, -0.4, 0.6, -0.2, 0.99)
FIG1_A = 3.9765
FIG1_B = 3.1804
FIG1_KERNEL_C = 5.0


def sin3x2(x):
    x = float(np.atleast_1d(x)[0])
    return math.sin(3.0 * x) + x * x


def rastrigin1d(x):
    x = float(np.atleast_1d(x)[0])
    return x * x - 10.0 * math.cos(2.0 * math.pi * x) + 10.0


def gramacy_lee(x):
    x = float(np.atleast_1d(x)[0])
    return math.sin(10.0 * math.pi * x) / (2.0 * x) + (x - 1.0) ** 4


BUILTIN_OBJECTIVES = {
    "sin3x2": (sin3x2, (-1.0, 1.0)),
    "rastrigin1d": (rastrigin1d, (-2.0, 2.0)),
    "gramacy-lee": (gramacy_lee, (0.5, 2.5)),
}
DEFAULT_OBJECTIVE = "sin3x2"


def get_objective(name: str):
    """Look up a built-in objective; returns (callable, (lower, upper))."""
    try:
        return BUILTIN_OBJECTIVES[name]
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; available: {sorted(BUILTIN_OBJECTIVES)}"
        ) from None
