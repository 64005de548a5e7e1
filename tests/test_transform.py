"""Power transform calibration."""

import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import pearson_statistic

from poiskit import transform
from poiskit.count_matrix import CountMatrix
from poiskit.errors import ValidationError
from poiskit.plda import stratified_folds
from poiskit.replicate import _rep_seeds
from poiskit.simulate import SimulationConfig, simulate, split_train_test
from poiskit.transform import (
    ALPHA_MIN,
    BRACKET_TOL,
    GRID_POINTS,
    STAT_RTOL,
    _pearson_stat,
    _refine,
    _search,
    _target,
    apply_alpha,
    calibrate,
    find_alpha,
    gof_statistic,
)

GRID = np.linspace(ALPHA_MIN, 1.0, GRID_POINTS)
# the closed-form statistic's allowance for rounding, in units of the total
ROUNDING = 64 * np.finfo(float).eps


def matrix(rows):
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    return CountMatrix(rows, tuple(f"s{i}" for i in range(n)), tuple(f"f{j}" for j in range(p)))


def test_rank_one_matrix_scores_zero():
    r = np.array([2.0, 3.0, 5.0])
    c = np.array([1.0, 4.0, 2.0, 7.0])
    assert gof_statistic(matrix(np.outer(r, c))) == pytest.approx(0.0, abs=1e-9)


def test_hand_case_identity_matrix():
    # fitted values are all 0.5, so the statistic is 4 * (0.25 / 0.5) = 2
    assert gof_statistic(matrix([[1, 0], [0, 1]])) == pytest.approx(2.0)


def assert_within_rounding_of_the_oracle(x):
    assert abs(_pearson_stat(x) - pearson_statistic(x)) <= ROUNDING * x.sum()


@st.composite
def count_tables(draw):
    """Count tables up to 6 x 40 with some rows and columns set to 0.0 or -0.0,
    raised to a power in [ALPHA_MIN, 1] as the search raises them."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    x = draw(arrays(np.float64, (n, p), elements=st.integers(0, 10**6).map(float)))
    x[draw(arrays(bool, n))] = draw(st.sampled_from([0.0, -0.0]))
    x[:, draw(arrays(bool, p))] = draw(st.sampled_from([0.0, -0.0]))
    return np.power(x, draw(st.floats(ALPHA_MIN, 1.0)))


@given(x=count_tables())
@settings(max_examples=200, deadline=None)
def test_pearson_stat_is_within_rounding_of_the_out_of_place_formula(x):
    assert_within_rounding_of_the_oracle(x)


@pytest.mark.parametrize("shape", [(12, 10_000), (300, 1_000), (5, 40_000), (7, 4_681)])
def test_pearson_stat_on_large_shapes_is_within_rounding_of_the_oracle(shape):
    x = np.random.default_rng(sum(shape)).negative_binomial(3, 0.05, shape).astype(float) + 1
    assert_within_rounding_of_the_oracle(x)
    assert_within_rounding_of_the_oracle(np.power(x, 0.5))


@pytest.mark.parametrize("total", [1e11, 1e12, 1e13])
def test_pearson_stat_of_deep_poisson_tables_is_within_rounding_of_the_oracle(total):
    """Near a rank-one fit the statistic is about its target, far below the total,
    so the closed form's T * (...) - T cancels in all but its last digits."""
    rng = np.random.default_rng(int(math.log10(total)))
    means = np.outer(rng.uniform(0.5, 2.0, 10), rng.uniform(0.5, 2.0, 1_000))
    x = rng.poisson(means * (total / means.sum())).astype(float)
    assert abs(x.sum() / total - 1.0) < 1e-3
    assert abs(_pearson_stat(x) / _target(x) - 1.0) < 0.2
    assert_within_rounding_of_the_oracle(x)


@given(
    r=st.lists(st.integers(0, 1_000), min_size=1, max_size=8),
    c=st.lists(st.integers(0, 1_000), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_pearson_stat_of_an_exact_rank_one_table_is_zero_to_rounding(r, c):
    x = np.outer(r, c).astype(float)
    assert 0.0 <= _pearson_stat(x) <= ROUNDING * x.sum()


@pytest.mark.parametrize("axis", [0, 1])
def test_pearson_stat_of_a_subnormal_total_is_within_rounding_of_the_oracle(axis):
    """A subnormal row or column total, whose reciprocal would overflow."""
    x = np.array([[5.0, 3.0, 1e-310], [2.0, 4.0, 0.0], [1.0, 1.0, 0.0]])
    x = x if axis == 1 else x.T.copy()
    assert_within_rounding_of_the_oracle(x)
    assert calibrate(x).alpha == 1.0


def test_statistic_near_target_for_rank_one_poisson_data():
    config = SimulationConfig(n=20, p=2000, K=3, phi=0.0, sigma=0.1, de_prob=0.0, seed=2)
    data = simulate(config).data.matrix
    stat = gof_statistic(data)
    target = find_alpha(data).target
    assert abs(stat / target - 1.0) < 0.02


def test_rank_one_poisson_data_keeps_alpha_one():
    config = SimulationConfig(n=20, p=2000, K=3, phi=0.0, sigma=0.1, de_prob=0.0, seed=2)
    data = simulate(config).data.matrix
    result = find_alpha(data)
    assert result.alpha == 1.0
    assert result.converged
    assert result.matrix is data and result.evaluations == 1 and result.monotone
    assert calibrate(data.values).values is data.values


def test_overdispersed_data_is_calibrated():
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    result = find_alpha(simulate(config).data.matrix)
    assert result.alpha < 1.0
    assert result.converged
    assert abs(result.statistic - result.target) <= 1e-3 * result.target


def test_find_alpha_is_deterministic():
    config = SimulationConfig(n=10, p=400, K=2, phi=0.5, sigma=0.3, seed=5)
    data = simulate(config).data.matrix
    first = find_alpha(data)
    second = find_alpha(data)
    assert first.alpha == second.alpha
    assert first.statistic == second.statistic


def test_alpha_nonincreasing_in_dispersion():
    alphas = []
    for phi in (0.01, 0.1, 1.0):
        config = SimulationConfig(n=15, p=1500, K=3, phi=phi, sigma=0.1, seed=37)
        alphas.append(find_alpha(simulate(config).data.matrix).alpha)
    assert alphas[0] >= alphas[1] >= alphas[2]


def test_apply_alpha_identity_and_root():
    m = matrix([[4.0, 9.0]])
    assert apply_alpha(m, 1.0) is m
    assert np.allclose(apply_alpha(m, 0.5).values, [[2.0, 3.0]])


def test_zeros_survive_any_alpha():
    m = matrix([[0, 4], [2, 0]])
    for alpha in (0.01, 0.3, 1.0):
        out = apply_alpha(m, alpha)
        assert out.values[0, 0] == 0.0
        assert out.values[1, 1] == 0.0


def test_apply_alpha_rejects_out_of_range():
    m = matrix([[1.0, 2.0]])
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            apply_alpha(m, alpha)


def test_transform_tolerates_zero_columns():
    # a silent feature contributes nothing; the df target shrinks instead
    rng = np.random.default_rng(3)
    values = rng.poisson(20.0, size=(6, 40)).astype(float)
    values[:, 7] = 0.0
    result = find_alpha(matrix(values))
    assert result.target == (6 - 1) * (39 - 1)


def test_degenerate_matrix_rejected():
    with pytest.raises(ValidationError):
        gof_statistic(matrix([[1, 2, 3]]))


# --- the exponent search ---

def scan_bracket(stats, target):
    """Grid bracket of a plain downward scan over the statistics at GRID.

    The index i of the rightmost grid crossing, so that the crossing lies in
    [GRID[i], GRID[i + 1]]; None when alpha = 1 already meets the target and
    -1 when no grid point does.
    """
    if stats[-1] <= target:
        return None
    for i in range(GRID_POINTS - 2, -1, -1):
        if stats[i] <= target:
            return i
    return -1


def grid_stats(values):
    return [_pearson_stat(np.power(values, alpha)) for alpha in GRID]


def assert_in_bracket(alpha, i):
    if i is None:
        assert alpha == 1.0
    elif i < 0:
        assert alpha == ALPHA_MIN
    else:
        assert GRID[i] <= alpha <= GRID[i + 1]


@given(
    n=st.integers(4, 60),
    p=st.integers(2, 2_000),
    # subnormal phi overflows 1/phi in the simulator's gamma draw
    phi=st.floats(0.0, 2.0, allow_subnormal=False),
    sigma=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_statistic_falls_with_alpha_and_search_finds_the_scan_bracket(n, p, phi, sigma, seed):
    """From the scan bracket up to alpha = 1 the statistic does not rise as
    alpha falls (below the bracket it may: see the next test)."""
    config = SimulationConfig(n=n, p=p, K=3, phi=phi, sigma=sigma, seed=seed)
    values = simulate(config).data.matrix.values
    try:
        target = _target(values)
    except ValidationError:
        assume(False)
    stats = grid_stats(values)
    bracket = scan_bracket(stats, target)
    upper = stats[max(bracket, 0):] if bracket is not None else []
    assert all(low <= high for low, high in zip(upper, upper[1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ALPHA_MIN may not reach the target
        result = calibrate(values)
    assert_in_bracket(result.alpha, bracket)


def test_statistic_can_rise_near_alpha_min_below_the_crossing():
    # as alpha -> 0 every positive entry tends to 1, so the statistic tends to
    # that of the zero pattern, which a sparse draw can push back up
    config = SimulationConfig(n=4, p=299, K=3, phi=0.05078125, sigma=0.0625, seed=2671)
    values = simulate(config).data.matrix.values
    target = _target(values)
    stats = grid_stats(values)
    assert stats[0] > stats[1]
    bracket = scan_bracket(stats, target)
    assert bracket > 1
    result = calibrate(values)
    assert_in_bracket(result.alpha, bracket)
    assert result.monotone  # the search never evaluates that far down


def table_statistic(table):
    """A statistic equal to ``table`` on GRID and linear between grid points."""
    return lambda alpha: float(np.interp(alpha, GRID, table))


def test_guard_finds_the_rightmost_crossing_of_a_non_monotone_statistic():
    # target 1; the line through alpha = 1 and 0.9505 predicts a crossing
    # near 0.79, and the check walks up to the bracket [0.802, 0.8515]. The
    # rise from 0.9505 (2.9) to 0.8515 (3.0) sends the search back up to the
    # grid points above that bracket, and 0.901 (0.9) is the rightmost crossing.
    table = np.full(GRID_POINTS, 0.5)
    table[17:] = [3.0, 0.9, 2.9, 4.0]
    alpha, statistic, converged, seen = _search(table_statistic(table), 1.0)
    assert scan_bracket(table, 1.0) == 18
    assert_in_bracket(alpha, 18)
    assert converged and abs(statistic - 1.0) <= STAT_RTOL
    assert GRID[17] in seen and GRID[16] in seen  # the prediction was checked first


def test_search_matches_the_scan_when_the_top_points_rise():
    # no fall between alpha = 1 and 0.9505, so there is no line to follow
    table = np.linspace(0.2, 3.0, GRID_POINTS)
    table[-1] = 2.0
    alpha, statistic, converged, seen = _search(table_statistic(table), 1.0)
    assert_in_bracket(alpha, scan_bracket(table, 1.0))
    assert converged and abs(statistic - 1.0) <= STAT_RTOL


def test_search_warns_when_no_grid_point_reaches_the_target():
    table = np.linspace(2.0, 5.0, GRID_POINTS)
    with pytest.warns(RuntimeWarning, match="did not reach"):
        alpha, statistic, converged, _ = _search(table_statistic(table), 1.0)
    assert (alpha, statistic, converged) == (ALPHA_MIN, 2.0, False)


def refine_traced(stat_of, lo, hi, target=1.0):
    """``_refine`` on ``stat_of``, with the exponents it evaluated in order and
    the bracket they leave: the highest one at or below the target and the
    lowest one above it."""
    evaluated = []

    def stat_at(alpha):
        evaluated.append(alpha)
        return stat_of(alpha)

    alpha, statistic, converged = _refine(stat_at, lo, hi, target)
    below = max(a for a in evaluated if stat_of(a) <= target)
    above = min(a for a in evaluated if stat_of(a) > target)
    return alpha, statistic, converged, evaluated, (below, above)


def test_refine_bisects_when_the_secant_step_leaves_the_bracket():
    # a zero statistic at lo is log ratio -inf, which puts the secant root on hi
    crossing = 0.6
    alpha, statistic, converged, evaluated, (below, above) = refine_traced(
        lambda a: 0.0 if a < 0.4 else math.exp(5 * (a - crossing)), 0.2, 0.9
    )
    assert evaluated[2] == 0.5 * (0.2 + 0.9)
    assert converged and abs(statistic - 1.0) <= STAT_RTOL
    assert below <= crossing < above


def test_refine_halves_the_far_end_when_the_near_end_moves_twice():
    # a convex log ratio puts each secant root below the crossing, so lo moves
    # again and again, and Illinois halves f_hi to pull the next root up
    crossing = 0.5

    def stat_of(a):
        return math.exp(math.expm1(5 * (a - crossing)))

    alpha, statistic, converged, evaluated, (below, above) = refine_traced(stat_of, 0.1, 0.9)
    moved_lo = [stat_of(a) <= 1.0 for a in evaluated[2:]]
    assert any(x and y for x, y in zip(moved_lo, moved_lo[1:]))
    assert converged and abs(statistic - 1.0) <= STAT_RTOL
    assert below <= crossing < above


def test_refine_reports_no_convergence_when_the_bracket_closes_on_a_jump():
    # the statistic jumps over the target's tolerance band, so no exponent
    # meets it and the search stops once the bracket is narrower than BRACKET_TOL
    crossing = 0.6137
    alpha, statistic, converged, _, (below, above) = refine_traced(
        lambda a: 0.5 if a < crossing else 2.0, 0.5, 0.7
    )
    assert not converged and statistic in (0.5, 2.0)
    assert below < crossing <= above and above - below < BRACKET_TOL
    assert below <= alpha <= above


def test_calibrate_hands_back_the_power_bit_for_bit():
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    values = simulate(config).data.matrix.values
    rows = np.array([0, 2, 3, 4, 6, 7, 9, 12, 14])
    dropped = values.copy()
    dropped[:, 3] = 0.0  # a silent feature
    signed = values.copy()
    signed[4] = 0.0  # a silent observation
    signed[:, 7] = -0.0  # a silent feature of -0.0
    signed[[4, 6], 8] = -0.0  # -0.0 in the silent observation and in a kept cell
    outside = values.copy()
    outside[rows, 5] = 0.0  # positive only in rows left out: silent within the rows
    silent = outside.copy()
    silent[4] = 0.0  # a silent observation among the rows
    for draw in (values, dropped, signed, outside[rows], silent[rows]):
        result = calibrate(draw)
        assert result.alpha < 1.0
        expected = np.power(draw, result.alpha)
        assert np.array_equal(result.values.view(np.uint64), expected.view(np.uint64))
    flat = np.full((6, 9), 5.0)  # a perfect rank-one fit: alpha = 1
    flat[:, 2] = 0.0
    flat = flat[[1, 2, 5]]
    result = calibrate(flat)
    assert result.alpha == 1.0 and result.values is flat


def test_calibrate_of_rows_equals_calibrate_of_the_copied_rows():
    """A strided view of some rows, not copied, calibrates as their copy does."""
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    values = simulate(config).data.matrix.values
    rows = slice(0, 15, 2)
    outside = values.copy()
    outside[rows, 5] = 0.0  # positive only in rows left out: silent within the rows
    silent = outside.copy()
    silent[4] = 0.0  # a silent observation among the rows
    flat = np.full((6, 9), 5.0)  # a perfect rank-one fit: alpha = 1
    flat[:, 2] = 0.0
    cases = [(values, rows), (outside, rows), (silent, rows), (values, slice(None)),
             (flat, slice(1, 6, 2))]
    for draw, picked in cases:
        view = draw[picked]
        whole, part = calibrate(view.copy()), calibrate(view)
        assert part[:-1] == whole[:-1]
        assert np.array_equal(part.values.view(np.uint64), whole.values.view(np.uint64))
    assert calibrate(flat[1:6:2]).alpha == 1.0


def test_calibrate_recomputes_the_power_when_the_search_ends_elsewhere(monkeypatch):
    """The search's last evaluation is not at the exponent it returns."""
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    values = simulate(config).data.matrix.values
    dropped = values.copy()
    dropped[:, 3] = 0.0  # a silent feature
    dropped[4] = 0.0  # a silent observation
    rows = np.array([0, 2, 3, 4, 6, 7, 9, 12, 14])
    search = transform._search

    def search_then_evaluate_once_more(stat_of, target):
        found = search(stat_of, target)
        stat_of(0.5 if found[0] != 0.5 else 0.25)
        return found

    monkeypatch.setattr(transform, "_search", search_then_evaluate_once_more)
    for draw in (values, dropped, dropped[rows]):
        result = calibrate(draw)
        assert result.alpha < 1.0
        expected = np.power(draw, result.alpha)
        assert np.array_equal(result.values.view(np.uint64), expected.view(np.uint64))


def test_silent_rows_and_columns_move_alpha_only_by_rounding():
    """All-zero rows and columns, some of -0.0, keep the target and add zero
    terms; they regroup the sums, so alpha may move in its last bits."""
    for seed in range(30):
        config = SimulationConfig(n=8, p=300, K=2, phi=0.5, sigma=0.3, seed=seed)
        values = simulate(config).data.matrix.values
        rng = np.random.default_rng(seed)
        quiet_rows = rng.choice(values.shape[0] + 3, 3, replace=False)
        quiet_cols = rng.choice(values.shape[1] + 5, 5, replace=False)
        padded = np.zeros((values.shape[0] + 3, values.shape[1] + 5))
        kept_rows = np.setdiff1d(np.arange(padded.shape[0]), quiet_rows)
        kept_cols = np.setdiff1d(np.arange(padded.shape[1]), quiet_cols)
        padded[np.ix_(kept_rows, kept_cols)] = values
        padded[quiet_rows[0]] = -0.0
        padded[:, quiet_cols[:2]] = -0.0
        base, result = calibrate(values), calibrate(padded)
        assert result.target == base.target
        assert abs(result.alpha - base.alpha) <= 1e-12 * base.alpha


def test_median_calibration_takes_at_most_five_evaluations():
    """Over criterion 1's first classify draw (full data and each cv fold's
    training rows), criterion 9's phi=1 draw and an n=300, p=1k draw."""
    train_seed, test_seed, cv_seed = (int(x) for x in _rep_seeds(20260810, 50, 3)[0])
    config = SimulationConfig(n=12, p=10_000, K=3, phi=0.01, sigma=0.05, seed=train_seed)
    train, _ = split_train_test(simulate(config), test_seed)
    m = train.data.matrix
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="reducing folds")
        fold_of, folds = stratified_folds(train.data.labels, 5, cv_seed)
    draws = [m] + [
        CountMatrix(m.values[rows], [m.sample_ids[i] for i in rows], m.feature_ids)
        for rows in (np.flatnonzero(fold_of != f) for f in range(folds))
    ]
    for config in (
        SimulationConfig(n=25, p=2_000, K=3, phi=1.0, sigma=0.5, seed=13),
        SimulationConfig(n=300, p=1_000, K=3, phi=0.01, sigma=0.1, seed=1),
    ):
        draws.append(simulate(config).data.matrix)
    results = [find_alpha(draw) for draw in draws]
    assert all(r.converged and r.monotone and r.alpha < 1.0 for r in results)
    counts = [r.evaluations for r in results]
    assert statistics.median(counts) <= 5, counts
    # criterion 9's draw crosses near alpha = 0.45, 12 grid points below 1:
    # only the predicted bracket keeps it short
    assert results[-2].alpha < 0.5 and results[-2].evaluations <= 6, counts
