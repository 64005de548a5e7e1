"""Power transform for overdispersed count data.

Raises every entry to a power alpha in (0, 1] chosen so that the Pearson
chi-squared statistic of the transformed matrix against its rank-one
total-count fit matches the degrees of freedom (n-1)(p-1). Overdispersed
data yield alpha < 1; data already consistent with the independence fit are
left untouched (alpha = 1). No algorithm inflates data toward alpha > 1.

Rows or columns whose totals are zero carry no information for the fit;
they are excluded from the statistic and the degrees-of-freedom target
shrinks accordingly (zero entries stay zero under the transform, so the
exclusion is stable in alpha).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .count_matrix import CountMatrix
from .errors import ValidationError

ALPHA_MIN = 0.01
GRID_POINTS = 21
BRACKET_TOL = 1e-6
STAT_RTOL = 1e-3


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Outcome of the exponent search.

    ``converged`` is true when the statistic is within STAT_RTOL of the
    target, or when the raw data already satisfied the fit at alpha = 1
    (in which case the statistic may sit anywhere below the target).
    """

    alpha: float
    statistic: float
    target: float
    converged: bool
    matrix: CountMatrix


def _positive_submatrix(values: np.ndarray) -> np.ndarray:
    rows = values.sum(axis=1) > 0
    cols = values.sum(axis=0) > 0
    if rows.sum() < 2 or cols.sum() < 2:
        raise ValidationError(
            "goodness-of-fit statistic needs at least 2 samples and 2 features "
            "with positive totals"
        )
    return values[np.ix_(rows, cols)]


def _pearson_stat(x: np.ndarray) -> float:
    """Pearson statistic of ``x`` against its rank-one fit; overwrites ``x``.

    The operations are those of ``(resid * resid / fitted).sum()`` with
    ``fitted = np.outer(row sums, column sums) / total`` and
    ``resid = x - fitted``, done in place to save two temporaries.
    """
    fitted = np.outer(x.sum(axis=1), x.sum(axis=0))
    fitted /= x.sum()
    x -= fitted
    x *= x
    x /= fitted
    return float(x.sum())


def gof_statistic(matrix: CountMatrix) -> float:
    """Pearson chi-squared statistic against the rank-one total-count fit.

    Compare to (n-1)(p-1) counted over positive-total rows and columns.
    """
    return _pearson_stat(_positive_submatrix(matrix.values))


def apply_alpha(matrix: CountMatrix, alpha: float) -> CountMatrix:
    """Entrywise power transform; alpha = 1 returns the matrix unchanged."""
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return matrix
    return CountMatrix(matrix.values**alpha, matrix.sample_ids, matrix.feature_ids)


def find_alpha(matrix: CountMatrix) -> TransformResult:
    """Search for the exponent that calibrates the goodness-of-fit statistic.

    The statistic decreases empirically as alpha shrinks, so a coarse
    21-point scan from 1 downward brackets the crossing and bisection
    refines it, stopping once the statistic is within 0.1% of the target or
    the bracket is narrower than 1e-6. If even ALPHA_MIN leaves the
    statistic above target, ALPHA_MIN is returned with ``converged=False``
    and a warning; downstream methods still run on the transformed data.
    """
    alpha, statistic, target, converged = calibrate(matrix.values)
    return TransformResult(alpha, statistic, target, converged, apply_alpha(matrix, alpha))


def calibrate(values: np.ndarray) -> tuple[float, float, float, bool]:
    """The search of :func:`find_alpha` on a raw value array.

    Returns ``(alpha, statistic, target, converged)``; raising ``values`` to
    ``alpha`` gives the transformed matrix.
    """
    sub = _positive_submatrix(values)
    n_pos, p_pos = sub.shape
    target = float((n_pos - 1) * (p_pos - 1))

    stat_at_one = _pearson_stat(sub.copy())
    if stat_at_one <= target:
        return 1.0, stat_at_one, target, True

    grid = np.linspace(ALPHA_MIN, 1.0, GRID_POINTS)
    stats = {1.0: stat_at_one}

    def stat_at(alpha: float) -> float:
        if alpha not in stats:
            stats[alpha] = _pearson_stat(sub**alpha)
        return stats[alpha]

    # scan downward for the rightmost bracket (least aggressive transform)
    lo = None
    for i in range(GRID_POINTS - 2, -1, -1):
        if stat_at(float(grid[i])) <= target:
            lo, hi = float(grid[i]), float(grid[i + 1])
            break
    if lo is None:
        stat_min = stat_at(float(grid[0]))
        warnings.warn(
            f"power transform did not reach the goodness-of-fit target even at "
            f"alpha={ALPHA_MIN} (statistic {stat_min:.6g} > target {target:.6g})",
            RuntimeWarning,
        )
        return ALPHA_MIN, stat_min, target, False

    while True:
        mid = 0.5 * (lo + hi)
        stat_mid = stat_at(mid)
        if abs(stat_mid - target) <= STAT_RTOL * target:
            return mid, stat_mid, target, True
        if hi - lo < BRACKET_TOL:
            return mid, stat_mid, target, False
        if stat_mid > target:
            hi = mid
        else:
            lo = mid
