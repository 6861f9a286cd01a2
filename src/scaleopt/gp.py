"""Gaussian stochastic-function surrogate.

Correlation kernels, the correlation matrix over observed points, the
conditional mean / variance of the model given the observations, and the
two parameter estimators (sample moments and maximum likelihood).  Both
estimators are affine equivariant: scaling the observed values by
``a*y + b`` maps the mean estimate to ``a*mu + b`` and the variance
estimate to ``a**2 * sigma2``, which is what makes the acquisition
criteria built on top of this module scale invariant; an estimate beyond
float64 range raises ``NonFiniteEstimateError``.  What depends on the
points alone (S's Cholesky factor with S^-1 1 beside it, the grid
correlations and variances) is kept in a ``GridCorrelations``, which holds
points, never values.  A call one observation longer adds one row,
O(n**2 + n*m) on m grid points instead of O(n**2 * m): the new row of
V = L^-1 Upsilon reads every earlier row, so a fresh run still pays O(n*m)
per observation there.  The state records one ``GridState`` per length,
its q beside its L and V rows, and a later run on the same points replays
it; a history that leaves those points rewinds, replaying its own points at
those lengths.  Runs from one design size share a state
(``CandidateGrid.correlations``), so each gets a fresh state's bits.  A
run's observations live in a ``HistoryBuffer``, whose histories view its
rows, so a step copies no history; past the product a 1-D step pays only
scipy's ``erfc``, and a fresh 2-D run each V row's ``l.V``.

The grid means take one of two paths, by the grid's size.  Below
``SUMMED_MEANS_GRID`` points they are the product mu + w.Upsilon, O(n*m) a
step; from it on, a run's ``MeanSums`` adds one row a step and the means
cost O(m).  One step's means, in microseconds, product / sums
(exponential kernel, one BLAS thread, a shared 2-core x86-64 box):

    m     n = 10        15        25        45        65
    1,001    3 / 9     4 / 10    6 / 15    9 / 15   12 / 15
    4,096    9 / 14   12 / 14   19 / 15   32 / 14   58 / 14
    10,201  22 / 26   30 / 23   55 / 26  156 / 24  225 / 28

The product stays the cheaper on the 1,001-point 1-D grids at every
length a run reaches, and the sums win on a 101 x 101 grid from n = 15.
The two paths round differently, and 1-D runs take many steps at mirror
near-ties that a change of rounding can flip, so the 1-D grids keep the
product and its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import (
    DuplicatePointsError,
    IllConditionedModelError,
    InsufficientDataError,
    NonFiniteEstimateError,
)

# The kernel families and estimators the model knows; the estimator when none is given.
KERNEL_FAMILIES = ("exponential", "squared-exponential")
ESTIMATORS = ("mle", "sample")
DEFAULT_ESTIMATOR = "mle"

# Minimum pairwise distance (max-norm) between history points.
DUPLICATE_THRESHOLD = 1e-12

# The unitless raw variance 1 - q clamps silently to zero in [-VARIANCE_CLAMP_TOL, 0)
# and is flagged below that; it reads points alone, so f and a*f + b cannot differ.
VARIANCE_CLAMP_TOL = 1e-10

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6

# On a state's grid of this many points or more, the grid means come from a
# run's ``MeanSums``, O(m) a step, instead of the O(n*m) product w.Upsilon.
SUMMED_MEANS_GRID = 4096

# An appended squared pivot 1 + jitter - l.l below 2**-26 (about sqrt(eps))
# has lost about half its digits to cancellation, which potrf's factor of the
# same matrix does not: with the squared-exponential kernel an appended 1.7e-14
# put grid variances off by 1.4e-5, potrf's by 2e-13.  Positivity is not enough.
_PIVOT_FLOOR = 2.0 ** -26


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
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
        if values.shape != (points.shape[0],):
            raise ValueError("values must have one entry per point")
        if points.shape[0] < 1:
            raise ValueError("history needs at least one observation")
        check_inside(points, lower, upper, values)
        same = same_point(points, points)
        np.fill_diagonal(same, False)
        if same.any():
            raise _duplicates(*np.argwhere(same)[0])  # i < j, as same is symmetric

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def visited(self, points) -> np.ndarray:
        """Mask of the (m, d) query points that are the same point as a history point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return same_point(points, self.points).any(axis=1)

    def with_observation(self, point, value) -> "EvaluationHistory":
        """This history and one more observation; only the new point is checked."""
        return HistoryBuffer(self, self.n + 1).append(point, value)


class HistoryBuffer:
    """A run's observations, kept in arrays with room for ``capacity`` of them.

    ``history`` views the rows observed so far.  ``append`` checks the new
    point by the history's rules, writes its row and moves ``history`` on,
    so nothing is concatenated or copied; a row is written once, beyond
    every history handed out, so those never change.
    """

    def __init__(self, history: EvaluationHistory, capacity: int):
        n = history.n
        self._points = np.empty((capacity, history.points.shape[1]))
        self._values = np.empty(capacity)
        self._points[:n], self._values[:n] = history.points, history.values
        self.history = _with_rows(history, self._points[:n], self._values[:n])

    def append(self, point, value) -> EvaluationHistory:
        """The history one observation longer, now ``history``."""
        n = self.history.n
        self._points[n], self._values[n] = _checked_observation(self.history, point, value)
        self.history = _with_rows(self.history, self._points[:n + 1], self._values[:n + 1])
        return self.history


def _checked_observation(history: EvaluationHistory, point, value):
    """The new point (d,) and value as a float, checked by the history's rules:
    finite, inside the region and not the same point as any history point.
    Only the new point is tested, in O(n*d), read as floats once, with a full check's messages."""
    point = np.array(point, dtype=float, ndmin=1)
    value = float(value)
    if point.shape != history.lower.shape:
        raise ValueError("points must have shape (n, d)")
    coords = point.tolist()
    if not (all(map(math.isfinite, coords)) and math.isfinite(value)):
        raise ValueError("points and values must be finite")
    if any(x < lo - 1e-12 or x > hi + 1e-12
           for x, lo, hi in zip(coords, history.lower.tolist(), history.upper.tolist())):
        raise ValueError("points must lie inside the region")
    same = same_point(history.points, point[None, :])[:, 0]
    first = same.argmax()
    if same[first]:
        raise _duplicates(int(first), history.n)
    return point, value


def _with_rows(history: EvaluationHistory, points: np.ndarray,
               values: np.ndarray) -> EvaluationHistory:
    """``history`` on these checked points and values, skipping ``__post_init__``,
    which checks every point."""
    extended = object.__new__(type(history))
    vars(extended).update(vars(history), points=points, values=values)
    return extended


def check_inside(points: np.ndarray, lower: np.ndarray, upper: np.ndarray, values=()):
    """A history's region rule: finite values, finite (n, d) points in [lower, upper] to 1e-12."""
    if points.ndim != 2 or points.shape[1] != lower.size:
        raise ValueError("points must have shape (n, d)")
    if not (np.isfinite(points).all() and np.isfinite(values).all()):
        raise ValueError("points and values must be finite")
    if (points < lower - 1e-12).any() or (points > upper + 1e-12).any():
        raise ValueError("points must lie inside the region")


def _duplicates(i, j) -> DuplicatePointsError:
    return DuplicatePointsError(
        f"points {i} and {j} are closer than {DUPLICATE_THRESHOLD} (max-norm)")


def same_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) mask of point pairs within DUPLICATE_THRESHOLD
    (max-norm): the one rule for when two points count as the same.

    It tests one axis at a time, which is the max-norm rule without the
    (len(a), len(b), d) difference array."""
    same = np.abs(a[:, None, 0] - b[None, :, 0]) <= DUPLICATE_THRESHOLD
    for k in range(1, a.shape[1]):
        same &= np.abs(a[:, None, k] - b[None, :, k]) <= DUPLICATE_THRESHOLD
    return same


def lattice_separated(axes) -> bool:
    """Whether each step along every axis of a lattice exceeds DUPLICATE_THRESHOLD
    (False for an axis that is not strictly increasing).  Then two lattice points
    that differ on an axis differ there by a step or more, so a lattice point's
    ``same_point`` mask over the lattice is its own index."""
    return all(bool((np.diff(axis) > DUPLICATE_THRESHOLD).all()) for axis in axes)


@dataclass(frozen=True)
class CorrelationKernel:
    """Stationary correlation function rho(x, x')."""

    family: str = "exponential"  # one of KERNEL_FAMILIES
    c: float = 5.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not 0 < self.c < np.inf:
            raise ValueError("decay rate c must be positive and finite")

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
        if not (math.isfinite(self.mu) and 0 <= self.sigma2 < math.inf):
            raise ValueError("mu must be finite, and sigma2 finite and nonnegative")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)  # correctly rounded, as np.sqrt


class Moments(NamedTuple):
    mean: float
    variance: float
    clamped: bool  # the unitless 1 - q was below -VARIANCE_CLAMP_TOL


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) Euclidean distances, summed one axis at a time as
    ``same_point`` tests them: no (len(a), len(b), d) array, and below 8 axes
    the order of numpy's own sum, so the same bits."""
    squared = (a[:, None, 0] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        squared += (a[:, None, k] - b[None, :, k]) ** 2
    return np.sqrt(squared)


def correlation_matrix(points: np.ndarray, kernel: CorrelationKernel) -> np.ndarray:
    """The n x n matrix of pairwise correlations between (n, d) points."""
    sigma = kernel.of_distance(_cross_distances(points, points))
    np.fill_diagonal(sigma, 1.0)
    return sigma


class GridState(NamedTuple):
    """The point-only state a ``GridCorrelations`` records at n points."""

    ups: np.ndarray  # Upsilon's rows (n, m)
    lower: np.ndarray  # L of S + jitter*I, in column order
    q: np.ndarray  # the column sums of V**2
    jitter: float
    v: Optional[np.ndarray]  # V's buffer, L^-1 Upsilon in its first n rows, or None
    s_inv_ones: np.ndarray
    ones_norm: float  # 1' S^-1 1


class GridCorrelations:
    """The point-only model state of the runs on fixed (m, d) grid points.

    It depends on points alone and keeps no values.  For a growing set of
    points: the grid correlations Upsilon (n, m), the lower Cholesky factor L
    of S + jitter*I, V = L^-1 Upsilon and q, the column sums of V**2.  A call
    that adds one point, with correlations s to the earlier ones, appends one
    row of each, at O(n**2 + n*m):

        l = L^-1 s,  d**2 = 1 + jitter - l.l,  v = (upsilon - l'V)/d,  q += v**2

    S is factored in bulk instead by a first call, a call that adds several
    points, and a new point whose d**2 falls below ``_PIVOT_FLOOR``.  This is
    the only code that factors S; a posterior without a run's state builds one
    over no grid points.  ``rows`` records a ``GridState`` at each length it
    is called with: Upsilon's rows, L, q, the jitter, S^-1 1 and 1' S^-1 1
    (solved once on that L) and, on a grid whose means are summed, V's
    buffer, so a second run on the same points replays it, reading the V rows
    its L was built with; a history that leaves those points rewinds,
    replaying on its own points the recorded lengths it shares.  The bits
    depend on the lengths asked for (7 points factored in bulk are not 5
    with 2 appended), so only runs from one design size share a state.
    Arrays handed out are never written again: later rows go beyond them,
    and a bulk factor, ``reserve`` or a rewind gets new ones.  A state is
    born with room for no points and grows only by ``reserve``, to exactly
    the length reserved.
    """

    def __init__(self, points: np.ndarray, kernel: CorrelationKernel):
        self.points, self.kernel = points, kernel
        self._restart(0)

    def _restart(self, capacity: int):
        """Empty buffers for ``capacity`` points, and no recorded state."""
        m = len(self.points)
        self._seen, self._states = self.points[:0], {}
        self._ups, self._v = np.zeros((capacity, m)), np.zeros((capacity, m))
        self._lower = np.zeros((capacity, capacity))
        self._jitter = 0.0

    def reserve(self, capacity: int):
        """Room for ``capacity`` points, grown at once if there is less."""
        if capacity > len(self._ups):
            k, m = len(self._seen), len(self.points)
            self._ups = _grown(self._ups[:k], (capacity, m))
            self._v = _grown(self._v[:k], (capacity, m))
            self._lower = _grown(self._lower[:k, :k], (capacity, capacity))

    def rows(self, history: EvaluationHistory) -> GridState:
        """The state recorded at ``history``'s points.

        The first n points seen, at a length called before, get the state
        recorded there; points that extend those seen are added.  Any others
        rewind: new buffers replay the recorded lengths that these points share
        with those seen, on these points, so the bits are a fresh state's.
        """
        points, n = history.points, history.n
        shared = _shared_prefix(points, self._seen)
        if shared < n or n not in self._states:
            if shared < len(self._seen):
                lengths = [k for k in self._states if k <= shared]
                self._restart(len(self._ups))
                for k in lengths:
                    self._advance(points[:k])
            self._advance(points)
        return self._states[n]

    def _advance(self, points: np.ndarray):
        """Add the (n, d) points beyond those seen to the state, and record length n."""
        n, k = len(points), len(self._seen)
        self.reserve(n)
        self._ups[k:n] = self.kernel.of_distance(_cross_distances(points[k:n], self.points))
        if k == 0 or n > k + 1 or (q := self._append(points, self._states[k].q)) is None:
            q = self._refactor(points)
        self._seen = points.copy()
        # L in column order, which LAPACK reads as it is: a view would be copied per solve.
        lower, ones = np.asfortranarray(self._lower[:n, :n]), np.ones(n)
        s_inv_ones = cho_solve(lower, ones)
        # V's buffer only where the means are summed from it: a bulk factor would leave it alive.
        v = self._v if len(self.points) >= SUMMED_MEANS_GRID else None
        self._states[n] = GridState(self._ups[:n], lower, q, self._jitter, v, s_inv_ones,
                                    float(s_inv_ones @ ones))

    def _append(self, points: np.ndarray, q: np.ndarray) -> Optional[np.ndarray]:
        """Append the last point's row of L and V; the new q from the previous
        length's q, or None if its pivot is below the floor."""
        i = len(points) - 1
        s = self.kernel.of_distance(_cross_distances(points[i:], points[:i]))[0]
        l = _solve_lower(self._lower[:i, :i], s)
        pivot2 = 1.0 + self._jitter - l @ l
        if not pivot2 >= _PIVOT_FLOOR:
            return None
        d = np.sqrt(pivot2)
        self._lower[i, :i], self._lower[i, i] = l, d
        v = self._v[i]
        np.subtract(self._ups[i], l @ self._v[:i], out=v)
        v /= d
        return _plus_square(q, v)

    def _refactor(self, points: np.ndarray) -> np.ndarray:
        """Factor S and V in bulk, into new buffers; the bulk q."""
        lower, self._jitter = _factor_with_jitter(correlation_matrix(points, self.kernel))
        v, q = _whitened(lower, self._ups[:len(points)])
        self._lower, self._v = _grown(lower, self._lower.shape), _grown(v, self._v.shape)
        return q


def _plus_square(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A new q + v**2 (IEEE + commutes), with v**2 as the one temporary."""
    total = v ** 2
    total += q
    return total


def _shared_prefix(a: np.ndarray, b: np.ndarray) -> int:
    """How many leading rows of a and b are equal (by bytes, else -0.0 is 0.0)."""
    k = min(len(a), len(b))
    if a[:k].tobytes() == b[:k].tobytes():
        return k
    differ = np.flatnonzero((a[:k] != b[:k]).any(axis=1))
    return int(differ[0]) if differ.size else k


def _grown(array: np.ndarray, shape) -> np.ndarray:
    """A new zero array of ``shape`` with ``array`` in its leading block."""
    grown = np.zeros(shape)
    grown[:array.shape[0], :array.shape[1]] = array
    return grown


def _whitened(lower: np.ndarray, ups: np.ndarray):
    """V = L^-1 Upsilon and q, the column sums of V**2, in bulk."""
    v = _solve_lower(lower, ups)
    return v, np.einsum("im,im->m", v, v)


class MeanSums:
    """A run's sums for its grid means, grown by one row per observation.

    With L and V = L^-1 Upsilon from a ``GridCorrelations``, the means
    mu + w.Upsilon are mu + Gy - mu*G1, where Gy and G1 sum the rows
    z_i*V_i and u_i*V_i of z = L^-1 y and u = L^-1 1 (the whitened mean of
    Rasmussen & Williams, 2006, Alg. 2.1).  L is lower triangular, so a new
    observation adds one entry to z and u, by forward substitution on L's
    new row, and one row to each sum: O(m) a step.  The sums go on from the
    rows summed before while V's buffer (``GridState.v``) and
    the values summed are the same, and start again from row 0 otherwise,
    by the same rule for each entry and row, so the bits never depend on
    which.
    """

    def __init__(self):
        self._v, self._y = None, np.empty(0)  # the V buffer and the values summed

    def means(self, lower: np.ndarray, v: np.ndarray, y: np.ndarray, mu: float) -> np.ndarray:
        """mu + Gy - mu*G1 for the values y, with L's first len(y) rows and V's."""
        n, k = len(y), len(self._y)
        if v is not self._v or k > n or self._y.tobytes() != y[:k].tobytes():
            k, self._v = 0, v
            self._z, self._u = np.empty(len(v)), np.empty(len(v))
            self._gy, self._g1 = np.zeros(v.shape[1]), np.zeros(v.shape[1])
        z, u = self._z, self._u
        for i in range(k, n):
            row, d = np.array(lower[i, :i]), lower[i, i]  # contiguous in any L's order
            z[i] = (y[i] - row @ z[:i]) / d
            u[i] = (1.0 - row @ u[:i]) / d
            self._gy += z[i] * v[i]
            self._g1 += u[i] * v[i]
        self._y = y.copy()
        means = self._g1 * mu
        np.subtract(self._gy, means, out=means)
        means += mu
        return means


# LAPACK is called without SciPy's per-call wrappers, exactly as they call it
# for the arrays passed here, so the bits are theirs.  Correlations are finite,
# so only a right-hand side y - mu, which can overflow, is checked, as SciPy does.

def _solved(result):
    x, info = result
    if info:
        raise LinAlgError(f"LAPACK reported info {info}")
    return x


def cho_factor(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of a, zeros above its diagonal, as SciPy's
    ``cho_factor`` computes it.  ``LinAlgError`` if a is not positive definite."""
    return _solved(dpotrf(a, lower=1, clean=1))


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SciPy's ``cho_solve``: x with A x = b, from ``cho_factor``'s L of A."""
    return _solved(dpotrs(factor, np.asarray_chkfinite(b), lower=1))


def _solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for a lower-triangular L, solved as (L')' x = b, which is SciPy's
    ``solve_triangular`` call for a C-ordered L or a strided view of one."""
    return _solved(dtrtrs(lower.T, b, lower=0, trans=1))


def estimate_sample(history: EvaluationHistory) -> ModelParameters:
    """Sample mean and unbiased variance of the values, as ``np.mean`` and ``np.var`` sum them."""
    y, n = history.values, history.n
    if n < 2:
        raise InsufficientDataError("sample variance needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite estimate
        mu = float(np.add.reduce(y)) / n
        deviations = np.subtract(y, mu)
        sigma2 = float(np.add.reduce(np.square(deviations, out=deviations))) / (n - 1)
    return ModelParameters(_finite("sample", "mu", mu), _finite("sample", "sigma2", sigma2))


def _finite(estimator: str, estimate: str, value: float) -> float:
    """value, or ``NonFiniteEstimateError`` naming the estimate if it is not finite."""
    if not math.isfinite(value):
        raise NonFiniteEstimateError(estimator, estimate, value)
    return value


def _factor_with_jitter(sigma: np.ndarray):
    """Cholesky of sigma, escalating diagonal jitter until it succeeds."""
    jitter = 0.0
    while True:
        try:
            return cho_factor(sigma + jitter * np.eye(sigma.shape[0])), jitter
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

    It reads the Cholesky factor L of S + jitter*I from the run's
    ``grid_correlations``, built under the same kernel, or else from a
    ``GridCorrelations`` over no grid points built for this history.
    The ``mle`` estimates are the generalized-least-squares mean
    (1' S^-1 y) / (1' S^-1 1), with S^-1 1 recorded in the state's ``GridState``,
    and the averaged quadratic form of the residual weights w = S^-1 (y - mu);
    ``sample`` uses ``estimate_sample``.  Both solve w, which product means read.
    On a large grid the means come from the run's ``mean_sums``, or else
    from a ``MeanSums`` of its own, which sums from row 0 to the same bits.
    The raw conditional variance is 1 - q, with q the column sums of
    (L^-1 Upsilon)**2.  Immutable after construction; a moment query
    changes nothing but the sums it goes on from.
    """

    def __init__(self, history: EvaluationHistory, kernel: CorrelationKernel,
                 estimator: str, grid_correlations: Optional[GridCorrelations] = None,
                 mean_sums: Optional[MeanSums] = None):
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator tag {estimator!r}")
        self.history = history
        self.kernel = kernel
        state = grid_correlations or GridCorrelations(history.points[:0], kernel)
        if state.kernel is not kernel and state.kernel != kernel:
            raise ValueError("grid correlations were built under another kernel")
        self._grid = state.points
        self._rows = rows = state.rows(history)
        self.jitter = rows.jitter
        self._sums = mean_sums or MeanSums()
        y = history.values
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite estimate
            if estimator == "sample":
                self.parameters = estimate_sample(history)  # finite: |y - mu|**2 <= (n - 1)*sigma2
                resid = y - self.parameters.mu
            else:
                mu = _finite("mle", "mu", float(rows.s_inv_ones @ y) / rows.ones_norm)
                resid = y - mu
                if not np.isfinite(resid).all():  # then sigma2 >= |y - mu|**2 / n**2 overflows
                    raise NonFiniteEstimateError("mle", "sigma2", math.inf)
            # Premultiplied residual weights: (y - mu)' S^-1
            self._resid_weights = cho_solve(rows.lower, resid)
            if estimator == "mle":
                sigma2 = _finite("mle", "sigma2", float(resid @ self._resid_weights) / y.size)
                self.parameters = ModelParameters(mu, max(sigma2, 0.0))

    def conditional_moments(self, x) -> Moments:
        """Conditional mean and variance of the model at x."""
        means, variances, clamped = self.moments_grid(np.atleast_1d(x)[None, :])
        return Moments(float(means[0]), float(variances[0]), bool(clamped[0]))

    def moments_grid(self, points: np.ndarray):
        """Vectorized conditional moments for an (m, d) array of query points.

        Returns (means, variances, clamped_mask) as arrays of length m.
        Upsilon and q come from ``grid_correlations`` if ``points`` is its grid;
        where that state recorded V, so do the means, from the ``MeanSums``.
        """
        rows = self._rows
        on_grid = points is self._grid
        if on_grid:
            ups, q = rows.ups, rows.q
        else:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            ups = self.kernel.of_distance(_cross_distances(self.history.points, points))
            _, q = _whitened(rows.lower, ups)
        if on_grid and rows.v is not None:
            means = self._sums.means(rows.lower, rows.v, self.history.values, self.parameters.mu)
        else:
            # In place; IEEE + and * commute, and 1 - q is at most 1 and never -0.0,
            # so these are mu + w.Upsilon and sigma2 * clip(1 - q, 0, 1) bit for bit.
            means = self._resid_weights @ ups
            means += self.parameters.mu
        variances = 1.0 - q
        clamped = variances < -VARIANCE_CLAMP_TOL
        np.maximum(variances, 0.0, out=variances)
        variances *= self.parameters.sigma2
        return means, variances, clamped


def build_posterior(history: EvaluationHistory, kernel: CorrelationKernel,
                    estimator: str = DEFAULT_ESTIMATOR,
                    grid_correlations: Optional[GridCorrelations] = None,
                    mean_sums: Optional[MeanSums] = None) -> SurrogatePosterior:
    """Estimate parameters and construct the posterior in one step."""
    return SurrogatePosterior(history, kernel, estimator, grid_correlations, mean_sums)
