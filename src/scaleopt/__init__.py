"""Global optimization with Gaussian surrogates, 1-D DIRECT, and an
affine-scaling comparison harness with extended-numeral support."""

from .acquisition import AspirationLevel, aspiration, normal_cdf
from .direct1d import (
    DirectPartition,
    Interval,
    counterexample_shift,
    potentially_optimal,
    run_direct,
)
from .gp import (
    CorrelationKernel,
    EvaluationHistory,
    ModelParameters,
    SurrogatePosterior,
    build_posterior,
    correlation_matrix,
    estimate_mle,
    estimate_sample,
)
from .grossone import GROSSONE, ExtendedNumeral, parse_numeral, scaled_criterion_run
from .harness import compare_traces, fig1_reproduction, homogeneity_check
from .optimizer import (
    ONE_STEP_BAYES,
    P_ALGORITHM,
    CandidateGrid,
    OptimizationTrace,
    argmax_criterion,
    run,
)

__version__ = "0.1.0"
