"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: matrix inversion is
done by Gauss-Jordan elimination instead of a Cholesky solve, expected
improvement by adaptive quadrature instead of the closed form, the
potentially-optimal test by a dense scan over Lipschitz constants, and a
step's criteria by an mpmath inverse at 60 digits.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad


def gauss_jordan_inverse(matrix):
    """Plain Gauss-Jordan elimination with partial pivoting."""
    a = [list(map(float, row)) for row in np.asarray(matrix)]
    n = len(a)
    aug = [row + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [v / factor for v in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0.0:
                f = aug[row][col]
                aug[row] = [v - f * p for v, p in zip(aug[row], aug[col])]
    return np.array([row[n:] for row in aug])


def kernel_value(kernel, x1, x2):
    r = float(np.linalg.norm(np.atleast_1d(x1) - np.atleast_1d(x2)))
    if kernel.family == "exponential":
        return math.exp(-kernel.c * r)
    return math.exp(-kernel.c * r * r)


def correlation_matrix_loop(points, kernel):
    n = len(points)
    return np.array([[kernel_value(kernel, points[i], points[j])
                      for j in range(n)] for i in range(n)])


def mle_closed_form(points, values, kernel):
    """MLE (mu, sigma2) evaluated through an explicit inverse."""
    sigma_inv = gauss_jordan_inverse(correlation_matrix_loop(points, kernel))
    ones = np.ones(len(values))
    y = np.asarray(values, dtype=float)
    mu = (ones @ sigma_inv @ y) / (ones @ sigma_inv @ ones)
    resid = y - mu
    sigma2 = (resid @ sigma_inv @ resid) / len(values)
    return float(mu), float(max(sigma2, 0.0))


def conditional_moments_explicit(points, values, kernel, mu, sigma2, x):
    """Conditional mean/variance through an explicit inverse."""
    sigma_inv = gauss_jordan_inverse(correlation_matrix_loop(points, kernel))
    ups = np.array([kernel_value(kernel, p, x) for p in points])
    y = np.asarray(values, dtype=float)
    m = mu + (y - mu) @ sigma_inv @ ups
    s2 = sigma2 * (1.0 - ups @ sigma_inv @ ups)
    return float(m), float(s2)


def ei_quadrature(m, s, y_on):
    """Expected improvement by adaptive quadrature of the defining integral."""
    def integrand(t):
        return (y_on - t) * math.exp(-0.5 * ((t - m) / s) ** 2) / (
            s * math.sqrt(2.0 * math.pi))
    value, _ = quad(integrand, m - 12.0 * s, y_on, limit=200)
    return value


def breakpoint_ls(deltas, values, eps):
    """Candidate Lipschitz constants where some defining inequality flips.

    Both conditions are linear in L, so the feasible set is an interval
    whose endpoints are pairwise slopes or threshold crossings; testing
    every breakpoint and the midpoints between consecutive ones makes
    the scan exact regardless of how narrow the feasible window is.
    """
    d = np.asarray(deltas, dtype=float)
    v = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (v[:, None] - v[None, :]) / (d[:, None] - d[None, :])
    f_min = v.min()
    crossings = (v - (f_min - eps * abs(f_min))) / d
    cands = np.concatenate([slopes.ravel(), crossings])
    # stay inside the scan's L domain; this also drops the astronomical
    # slopes between intervals whose lengths differ only in the last ulp,
    # which the closed form treats as equal-length by design
    cands = np.unique(cands[np.isfinite(cands) & (cands > 1e-8)
                            & (cands < 1e8)])
    if cands.size == 0:
        return np.array([1.0])
    return np.concatenate([cands, 0.5 * (cands[1:] + cands[:-1])])


def _l_scan(deltas, values, j, eps, ls, slack):
    f_min = values.min()
    lb_j = values[j] - ls * deltas[j]
    lb_all = values[None, :] - ls[:, None] * deltas[None, :]
    cond_p = lb_j <= lb_all.min(axis=1) + slack
    cond_a = lb_j <= f_min - eps * abs(f_min) + slack
    return bool(np.any(cond_p & cond_a))


def dense_l_potentially_optimal(deltas, values, j, eps, slack=1e-12,
                                n_grid=20001):
    """Scan L over a dense log grid plus all breakpoint candidates and
    check both defining inequalities."""
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    ls = np.concatenate([np.logspace(-8, 8, n_grid),
                         breakpoint_ls(deltas, values, eps)])
    return _l_scan(deltas, values, j, eps, ls, slack)


def dense_l_batch(deltas, values, eps, slack=1e-12, n_grid=20001,
                  l_chunk=128):
    """Vectorized dense-L oracle for a batch of equally sized partitions.

    deltas, values: arrays of shape (P, n). Returns a (P, n) boolean array.
    The log grid is scanned ``l_chunk`` values of L at a time through
    buffers allocated once, laid out (n, P, L) so that the minimum over
    the intervals is an elementwise minimum of contiguous slices.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    p, n = deltas.shape
    f_min = values.min(axis=1)
    threshold = f_min - eps * np.abs(f_min) + slack
    ls = np.logspace(-8, 8, n_grid)
    found = np.zeros((n, p), dtype=bool)
    lb_buf, g_buf = np.empty((n, p, l_chunk)), np.empty((p, l_chunk))
    ok_buf, below_buf = np.empty((2, n, p, l_chunk), dtype=bool)
    for start in range(0, n_grid, l_chunk):
        chunk = ls[start:start + l_chunk]
        width = len(chunk)
        lb, g = lb_buf[..., :width], g_buf[:, :width]
        ok, below = ok_buf[..., :width], below_buf[..., :width]
        np.multiply(chunk, deltas.T[:, :, None], out=lb)
        np.subtract(values.T[:, :, None], lb, out=lb)  # lower bounds f_i - L*d_i
        np.min(lb, axis=0, out=g)
        g += slack
        np.less_equal(lb, g, out=ok)
        np.less_equal(lb, threshold[:, None], out=below)
        ok &= below
        found |= ok.any(axis=2)
    out = found.T.copy()
    # breakpoint candidates differ per partition; finish row by row
    for row in range(p):
        bp = breakpoint_ls(deltas[row], values[row], eps)
        lb = values[row][None, :] - bp[:, None] * deltas[row][None, :]
        g = lb.min(axis=1)
        ok = (lb <= g[:, None] + slack) & (lb <= threshold[row])
        out[row] |= ok.any(axis=0)
    return out


def random_trisection_partition(rng, splits=4, positive=True):
    """Random tiling of [0, 1] produced by repeated trisection.

    Returns (deltas, values, endpoints) with random midpoint values.
    """
    intervals = [(0.0, 1.0)]
    for _ in range(splits):
        k = rng.integers(len(intervals))
        a, b = intervals.pop(k)
        w = (b - a) / 3.0
        intervals.extend([(a, a + w), (a + w, a + 2 * w), (a + 2 * w, b)])
    intervals.sort()
    deltas = np.array([(b - a) / 2.0 for a, b in intervals])
    low = 0.5 if positive else -1.0
    values = rng.uniform(low, 2.0, size=len(intervals))
    return deltas, values, intervals


def random_history(rng, n, d, min_dist=0.05):
    """Random distinct points in [0,1]^d with values in [-1, 1]."""
    points = []
    while len(points) < n:
        cand = rng.uniform(0.0, 1.0, size=d)
        if all(np.abs(cand - p).max() > min_dist for p in points):
            points.append(cand)
    values = rng.uniform(-1.0, 1.0, size=n)
    return np.array(points), values


def criteria_60(sigma, jitter, ups, values, estimator, epsilon, kind, dps=60):
    """A step's criterion at ``dps`` digits for the candidates of ``ups``.

    Takes the step's float data as exact: the correlation matrix ``sigma``
    (n, n) with ``jitter`` added to its diagonal, the candidate correlations
    ``ups`` (n, k) and the normalized values.  ``kind`` is "p" or "ei".
    Returns (criteria, raw_variances, sigma2) as mpf; a criterion whose raw
    variance or sigma2 is not positive is -inf.
    """
    with mpmath.workdps(dps):
        n = len(values)
        s = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in sigma])
        for i in range(n):
            s[i, i] += mpmath.mpf(float(jitter))
        y = [mpmath.mpf(float(v)) for v in values]

        s_inv = mpmath.inverse(s)

        def solve(b):
            return s_inv * mpmath.matrix(b)

        def dot(a, b):
            return mpmath.fsum(a[i] * b[i] for i in range(n))

        if estimator == "mle":
            s_inv_ones = solve([1] * n)
            mu = dot(s_inv_ones, y) / dot(s_inv_ones, [1] * n)
        else:
            mu = mpmath.fsum(y) / n
        resid = [v - mu for v in y]
        weights = solve(resid)
        if estimator == "mle":
            sigma2 = dot(resid, weights) / n
        else:
            sigma2 = mpmath.fsum(r * r for r in resid) / (n - 1)
        sd = mpmath.sqrt(sigma2) if sigma2 > 0 else mpmath.mpf(0)
        y_on = min(y) - mpmath.mpf(float(epsilon)) * sd
        criteria, raws = [], []
        for col in np.asarray(ups, dtype=float).T:
            u = [mpmath.mpf(float(v)) for v in col]
            raw = 1 - dot(u, solve(u))
            raws.append(raw)
            if raw <= 0 or sigma2 <= 0:
                criteria.append(mpmath.mpf("-inf"))
                continue
            m = mu + dot(u, weights)
            spread = sd * mpmath.sqrt(raw)
            t = (y_on - m) / spread
            criteria.append(t if kind == "p"
                            else spread * (t * mpmath.ncdf(t) + mpmath.npdf(t)))
        return criteria, raws, sigma2
