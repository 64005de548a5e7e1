"""Power transform for overdispersed count data.

Raises every entry to a power alpha in (0, 1] chosen so that the Pearson
chi-squared statistic of the transformed matrix against its rank-one
total-count fit matches the degrees of freedom (n-1)(p-1). Overdispersed
data yield alpha < 1; data already consistent with the independence fit are
left untouched (alpha = 1). No algorithm inflates data toward alpha > 1.

The exponent is the rightmost crossing of the target on a 21-point grid
over [ALPHA_MIN, 1], refined to STAT_RTOL. The search predicts the grid
bracket from a line through the log statistic at alpha = 1 and at the next
grid point, checks that bracket with one or two evaluations (walking one
grid point at a time if the check fails), and refines inside it by Illinois
regula falsi on log(statistic / target), falling back to bisection.

On simulated draws the statistic falls as alpha falls from 1 down to the
crossing. Below it, near ALPHA_MIN, it can rise again: every positive entry
tends to 1, so the statistic tends to that of the zero pattern. The search
does not rely on either: if any evaluation rises as alpha falls, every grid
point above the bracket is evaluated, as a plain downward scan would.
Typical calls take 4 or 5 evaluations of the statistic;
``TransformResult.evaluations`` counts them.

Rows or columns whose totals are zero carry no information for the fit;
they are excluded from the statistic and the degrees-of-freedom target
shrinks accordingly (zero entries stay zero under the transform, so the
exclusion is stable in alpha).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .count_matrix import CountMatrix
from .errors import ValidationError
from .parallel import warn

ALPHA_MIN = 0.01
GRID_POINTS = 21
BRACKET_TOL = 1e-6
STAT_RTOL = 1e-3
# entries of the rank-one fit held at once by the Pearson statistic
_FIT_BLOCK = 32_768


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Outcome of the exponent search.

    ``converged`` is true when the statistic is within STAT_RTOL of the
    target, or when the raw data already satisfied the fit at alpha = 1
    (in which case the statistic may sit anywhere below the target).
    ``monotone`` is false when some evaluation of the statistic rose as
    alpha fell; ``evaluations`` counts the statistics computed.
    """

    alpha: float
    statistic: float
    target: float
    converged: bool
    monotone: bool
    evaluations: int
    matrix: CountMatrix


class Calibration(NamedTuple):
    """Outcome of :func:`calibrate`; ``values`` is the input raised to ``alpha``."""

    alpha: float
    statistic: float
    target: float
    converged: bool
    monotone: bool
    evaluations: int
    values: np.ndarray


def _positive_submatrix(
    values: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, tuple | None]:
    """The rows ``rows`` of ``values`` (all when None) without their zero-total
    rows and columns, taken in one indexing step, and the index that selects
    those entries within the rows, None if none was dropped. With all rows
    and none dropped, the array returned is ``values`` itself."""
    whole = rows is None
    if whole:
        rows, taken = np.arange(values.shape[0]), True
    else:
        taken = np.zeros((values.shape[0], 1), dtype=bool)
        taken[rows] = True
    positive_rows = values.sum(axis=1)[rows] > 0
    cols = values.sum(axis=0, where=taken) > 0
    if positive_rows.sum() < 2 or cols.sum() < 2:
        raise ValidationError(
            "goodness-of-fit statistic needs at least 2 samples and 2 features "
            "with positive totals"
        )
    if positive_rows.all() and cols.all():
        return (values if whole else values[rows]), None
    return values[np.ix_(rows[positive_rows], cols)], np.ix_(positive_rows, cols)


def _pearson_stat(x: np.ndarray, work: np.ndarray) -> float:
    """Pearson statistic of ``x`` against its rank-one fit; overwrites ``work``.

    The operations are those of ``(resid * resid / fitted).sum()`` with
    ``fitted = np.outer(row sums, column sums) / total`` and
    ``resid = x - fitted``, done in place in ``work`` (which may be ``x``
    itself). ``fitted`` is formed a block of rows at a time, so it never
    takes more than about ``_FIT_BLOCK`` entries; every entry of ``work``
    gets the same bits as from the whole outer product.
    """
    row_sums, col_sums, total = x.sum(axis=1), x.sum(axis=0), x.sum()
    step = max(1, _FIT_BLOCK // x.shape[1])
    block = np.empty((min(step, x.shape[0]), x.shape[1]))
    for lo in range(0, x.shape[0], step):
        fitted, resid = block[: min(step, x.shape[0] - lo)], work[lo : lo + step]
        np.multiply(row_sums[lo : lo + step, None], col_sums, out=fitted)
        fitted /= total
        np.subtract(x[lo : lo + step], fitted, out=resid)
        resid *= resid
        resid /= fitted
    return float(work.sum())


def gof_statistic(matrix: CountMatrix) -> float:
    """Pearson chi-squared statistic against the rank-one total-count fit.

    Compare to (n-1)(p-1) counted over positive-total rows and columns.
    """
    sub, _ = _positive_submatrix(matrix.values)
    return _pearson_stat(sub, np.empty_like(sub))


def apply_alpha(matrix: CountMatrix, alpha: float) -> CountMatrix:
    """Entrywise power transform; alpha = 1 returns the matrix unchanged."""
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return matrix
    return CountMatrix(matrix.values**alpha, matrix.sample_ids, matrix.feature_ids)


def find_alpha(matrix: CountMatrix) -> TransformResult:
    """Search for the exponent that calibrates the goodness-of-fit statistic.

    The result is the rightmost crossing of the target among the 21 grid
    points from ALPHA_MIN to 1, refined inside its grid bracket until the
    statistic is within 0.1% of the target or the bracket is narrower than
    1e-6. The bracket is predicted from the log statistic at alpha = 1 and
    at the next grid point, then checked; Illinois regula falsi refines it.
    If any evaluation rises as alpha falls, the grid points above the
    bracket are all evaluated, so the rightmost crossing is found without
    assuming the statistic is monotone; ``monotone`` and ``evaluations``
    report this. If even ALPHA_MIN leaves the statistic above target,
    ALPHA_MIN is returned with ``converged=False`` and a warning;
    downstream methods still run on the transformed data.
    """
    cal = calibrate(matrix.values)
    transformed = matrix
    if cal.alpha != 1.0:
        transformed = CountMatrix(cal.values, matrix.sample_ids, matrix.feature_ids)
    return TransformResult(
        cal.alpha, cal.statistic, cal.target, cal.converged, cal.monotone, cal.evaluations,
        transformed,
    )


def calibrate(values: np.ndarray, rows: np.ndarray | None = None) -> Calibration:
    """The search of :func:`find_alpha` on a raw value array.

    ``rows`` (distinct row indices, all rows when None) restricts the search
    to those rows of ``values``, which are copied once, without the rows and
    columns whose totals are zero. ``values`` of the result is those rows
    raised to ``alpha`` (``values`` itself at alpha = 1 with all rows). When
    the last statistic was computed at the returned exponent, that power is
    handed back rather than computed again, with any dropped row or column
    filled with zeros (0 ** alpha is 0).
    """
    sub, kept = _positive_submatrix(values, rows)
    n_pos, p_pos = sub.shape
    target = float((n_pos - 1) * (p_pos - 1))
    powered = np.empty_like(sub)
    work = np.empty_like(sub)
    held = 1.0  # the exponent whose power ``powered`` holds

    def stat_of(alpha: float) -> float:
        nonlocal held
        if alpha == 1.0:
            return _pearson_stat(sub, work)
        np.power(sub, alpha, out=powered)
        held = alpha
        return _pearson_stat(powered, work)

    alpha, statistic, converged, seen = _search(stat_of, target)
    del work  # free what is no longer read before building the transformed array
    if alpha != 1.0 and held == alpha:
        if kept is None:
            transformed = powered
        else:
            del sub
            n_rows = values.shape[0] if rows is None else len(rows)
            transformed = np.zeros((n_rows, values.shape[1]))
            transformed[kept] = powered
    else:
        del powered
        if kept is None:
            picked = sub  # the rows themselves
        else:
            del sub
            picked = values if rows is None else values[rows]
        transformed = picked if alpha == 1.0 else picked**alpha
    return Calibration(
        alpha, statistic, target, converged, _monotone(seen), len(seen), transformed
    )


def _monotone(seen: dict[float, float]) -> bool:
    """Whether no evaluated statistic rises as alpha falls."""
    stats = [seen[alpha] for alpha in sorted(seen)]
    return all(low <= high for low, high in zip(stats, stats[1:]))


def _search(
    stat_of: Callable[[float], float], target: float
) -> tuple[float, float, bool, dict[float, float]]:
    """Rightmost grid crossing of ``stat_of(alpha) = target``, refined.

    Returns ``(alpha, statistic, converged, seen)``, where ``seen`` maps
    every exponent evaluated to its statistic.
    """
    seen: dict[float, float] = {}

    def stat_at(alpha: float) -> float:
        if alpha not in seen:
            seen[alpha] = stat_of(alpha)
        return seen[alpha]

    if stat_at(1.0) <= target:
        return 1.0, seen[1.0], True, seen
    grid = np.linspace(ALPHA_MIN, 1.0, GRID_POINTS).tolist()
    top = GRID_POINTS - 1
    i = _predicted_bracket(grid, seen[1.0], stat_at(grid[top - 1]), target)
    # check grid[i] <= target < grid[i + 1], walking a grid point at a time
    while i + 1 < top and stat_at(grid[i + 1]) <= target:
        i += 1
    while i >= 0 and stat_at(grid[i]) > target:
        i -= 1

    guarded = False
    while True:
        if not guarded and not _monotone(seen):
            # the bracket's upper end proves nothing about the points above it
            guarded = True
            above = range(i + 2, top)
            i = max([i] + [j for j in above if stat_at(grid[j]) <= target])
        if i < 0:
            stat_min = stat_at(grid[0])
            warn(
                f"power transform did not reach the goodness-of-fit target even at "
                f"alpha={ALPHA_MIN} (statistic {stat_min:.6g} > target {target:.6g})"
            )
            return ALPHA_MIN, stat_min, False, seen
        alpha, statistic, converged = _refine(stat_at, grid[i], grid[i + 1], target)
        if guarded or _monotone(seen):
            return alpha, statistic, converged, seen


def _predicted_bracket(grid: list[float], stat_top: float, stat_next: float, target: float) -> int:
    """Grid index ``i`` whose interval ``[grid[i], grid[i + 1]]`` should hold the crossing.

    A line through the log statistic at the two highest grid points is
    extrapolated to the target. Without a fall between them there is no
    line to follow, and the scan starts at the next grid point down.
    """
    top = len(grid) - 1
    if stat_next <= target:
        return top - 1
    if stat_next >= stat_top:
        return top - 2
    slope = math.log(stat_top / stat_next) / (grid[top] - grid[top - 1])
    guess = grid[top] - math.log(stat_top / target) / slope
    return min(max(bisect_right(grid, guess) - 1, 0), top - 2)


def _log_ratio(statistic: float, target: float) -> float:
    return math.log(statistic / target) if statistic > 0 else -math.inf


def _refine(
    stat_at: Callable[[float], float], lo: float, hi: float, target: float
) -> tuple[float, float, bool]:
    """Illinois regula falsi on log(stat / target) in [lo, hi], where the sign changes.

    A step that leaves the open bracket, or two steps that together fail to
    halve it, are replaced by bisection.
    """
    tol = STAT_RTOL * target
    f_lo, f_hi = _log_ratio(stat_at(lo), target), _log_ratio(stat_at(hi), target)
    widths = [hi - lo]
    kept = 0  # +1 after moving hi, -1 after moving lo
    while True:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
            x = 0.5 * (lo + hi)
        stat = stat_at(x)
        if abs(stat - target) <= tol:
            return x, stat, True
        if hi - lo < BRACKET_TOL:
            return x, stat, False
        f = _log_ratio(stat, target)
        if f > 0:
            if kept > 0:
                f_lo *= 0.5  # Illinois: the same end moved twice, so weaken the other
            hi, f_hi, kept = x, f, 1
        else:
            if kept < 0:
                f_hi *= 0.5
            lo, f_lo, kept = x, f, -1
        widths.append(hi - lo)
