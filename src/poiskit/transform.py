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
``Calibration.evaluations`` counts them.

Rows or columns whose totals are zero carry no information for the fit:
they add zero terms to the statistic, and the degrees-of-freedom target
counts only the positive-total rows and columns (zero entries stay zero
under the transform, so the count is stable in alpha).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from .count_matrix import CountMatrix
from .errors import ValidationError
from .parallel import warn

ALPHA_MIN = 0.01
GRID_POINTS = 21
BRACKET_TOL = 1e-6
STAT_RTOL = 1e-3


@dataclass(frozen=True, eq=False)
class Calibration:
    """Outcome of the exponent search on a value array.

    ``converged`` is true when the statistic is within STAT_RTOL of the
    target, or when the raw data already satisfied the fit at alpha = 1
    (in which case the statistic may sit anywhere below the target).
    ``monotone`` is false when some evaluation of the statistic rose as
    alpha fell; ``evaluations`` counts the statistics computed. ``values``
    is the input raised to ``alpha`` (the input itself at alpha = 1).
    """

    alpha: float
    statistic: float
    target: float
    converged: bool
    monotone: bool
    evaluations: int
    values: np.ndarray

    def to_json(self) -> dict[str, Any]:
        """Every field but ``values``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(Calibration) if f.name != "values"}


@dataclass(frozen=True, eq=False)
class TransformResult(Calibration):
    """:class:`Calibration` of a matrix; ``matrix`` is the transformed matrix,
    and ``values`` is ``matrix.values``."""

    matrix: CountMatrix


def _target(values: np.ndarray) -> float:
    """Degrees of freedom (n-1)(p-1) over the rows and columns with positive totals."""
    with np.errstate(over="ignore"):  # an inf sum is positive all the same
        n_pos = np.count_nonzero(values.sum(axis=1) > 0)
        p_pos = np.count_nonzero(values.sum(axis=0) > 0)
    if n_pos < 2 or p_pos < 2:
        raise ValidationError(
            "goodness-of-fit statistic needs at least 2 samples and 2 features "
            "with positive totals"
        )
    return float((n_pos - 1) * (p_pos - 1))


def _reciprocal(sums: np.ndarray) -> np.ndarray:
    """1 / sums where a sum is a positive normal float, else 0.

    A subnormal sum's reciprocal would overflow. Taking it as 0 drops terms
    of at most T times that sum over a cell's other total, below rounding
    unless that total is subnormal too.
    """
    return np.divide(1.0, sums, out=np.zeros_like(sums), where=sums >= np.finfo(sums.dtype).tiny)


def _pearson_stat(x: np.ndarray) -> float:
    """Pearson statistic of ``x`` against its rank-one fit r_i c_j / T.

    Summing (x - f)^2 / f with f = r_i c_j / T gives T * sum x^2 / (r_i c_j) - T.
    One pass sums x^2 / c_j along each row, with no array the size of ``x``
    in between, and a dot product weights the rows by 1 / r_i. A row or
    column whose total is zero holds only zeros, so taking its reciprocal
    total as 0 adds nothing. The subtraction can cancel to just below 0, so
    the result is clamped at 0. A total past the largest float gives inf,
    above any target.
    """
    with np.errstate(over="ignore"):  # an inf total, returned below
        row_sums = x.sum(axis=1)
        total = row_sums.sum()
    if total == np.inf:
        return np.inf
    scaled = np.einsum("ij,ij,j->i", x, x, _reciprocal(x.sum(axis=0))) @ _reciprocal(row_sums)
    return max(float(total * scaled - total), 0.0)


def gof_statistic(matrix: CountMatrix) -> float:
    """Pearson chi-squared statistic against the rank-one total-count fit.

    Compare to (n-1)(p-1) counted over positive-total rows and columns.
    """
    _target(matrix.values)  # the check that calibrate makes
    return _pearson_stat(matrix.values)


def apply_alpha(matrix: CountMatrix, alpha: float) -> CountMatrix:
    """Entrywise power transform; alpha = 1 returns the matrix unchanged."""
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return matrix
    return CountMatrix(matrix.values**alpha, matrix.sample_ids, matrix.feature_ids)


def find_alpha(matrix: CountMatrix) -> TransformResult:
    """:func:`calibrate` on the matrix's values, with the transformed matrix."""
    cal = calibrate(matrix.values)
    if cal.alpha != 1.0:
        matrix = CountMatrix(cal.values, matrix.sample_ids, matrix.feature_ids)
    return TransformResult(**cal.to_json(), values=matrix.values, matrix=matrix)


def calibrate(values: np.ndarray) -> Calibration:
    """The exponent search described above, on a raw value array.

    Refinement stops when the statistic is within STAT_RTOL of the target
    or the bracket is narrower than BRACKET_TOL. If even ALPHA_MIN leaves
    the statistic above target, ALPHA_MIN is returned with
    ``converged=False`` and a warning; downstream methods still run on the
    transformed data.

    ``values`` of the result is ``values`` itself at alpha = 1, else
    ``np.power(values, alpha)`` in the one buffer the search powers into,
    recomputed only if the search's last evaluation was at another exponent.
    Rows and columns whose totals are zero stay zero (0 ** alpha is 0).
    """
    target = _target(values)
    powered = np.empty_like(values)
    held = 1.0  # the exponent whose power ``powered`` holds

    def stat_of(alpha: float) -> float:
        nonlocal held
        if alpha == 1.0:
            return _pearson_stat(values)
        np.power(values, alpha, out=powered)
        held = alpha
        return _pearson_stat(powered)

    alpha, statistic, converged, seen = _search(stat_of, target)
    if alpha not in (1.0, held):  # the search's last evaluation was at another exponent
        np.power(values, alpha, out=powered)
    return Calibration(
        alpha, statistic, target, converged, _monotone(seen), len(seen),
        values if alpha == 1.0 else powered,
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
