import numpy as np
import pytest

from scaleopt import optimizer as opt
from scaleopt.gp import CorrelationKernel
from scaleopt.harness import compare_traces, homogeneity_check
from scaleopt.objectives import rastrigin1d, sin3x2

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


def test_any_divergence_fails():
    # rastrigin1d + 1e-13*x is not an affine image of rastrigin1d; the two
    # runs part at step 1 with a runner-up gap far below 1e-9.
    kwargs = dict(budget=25, kernel=CorrelationKernel("exponential", 5.0),
                  estimator="mle")
    base = opt.run(opt.P_ALGORITHM, rastrigin1d, [-2.0], [2.0], **kwargs)
    tilted = opt.run(opt.P_ALGORITHM, lambda x: rastrigin1d(x) + 1e-13 * float(x),
                     [-2.0], [2.0], **kwargs)
    report = compare_traces(base, tilted, opt.P_ALGORITHM, 1.0, 0.0)
    assert not report.passed
    assert report.first_mismatch == 1
    assert report.summary_lines()[-1] == "FAIL"
