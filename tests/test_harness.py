import numpy as np
import pytest

from scaleopt import optimizer as opt
from scaleopt.harness import homogeneity_check
from scaleopt.objectives import sin3x2

# Objective values of numpy types are read by the one value rule on both
# sides of the check, whether the scaling is finite or extended.
VALUE_TYPES = {
    "float32": lambda x: np.float32(sin3x2(x)),
    "int64": lambda x: np.int64(round(100 * sin3x2(x))),
    "0-d array": lambda x: np.array(sin3x2(x)),
}


@pytest.mark.parametrize("a, b", [(2, 1), ("G", "G^2")])
@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_numpy_objective_values(kind, a, b):
    report = homogeneity_check(opt.P_ALGORITHM, VALUE_TYPES[kind], [-1.0], [1.0],
                               a, b, budget=8)
    assert report.passed and len(report.steps) == 8
