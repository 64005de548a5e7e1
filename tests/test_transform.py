"""Power transform calibration."""

import statistics
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poiskit.count_matrix import CountMatrix
from poiskit.errors import ValidationError
from poiskit.plda import stratified_folds
from poiskit.replicate import _rep_seeds
from poiskit.simulate import SimulationConfig, simulate, split_train_test
from poiskit.transform import (
    ALPHA_MIN,
    GRID_POINTS,
    STAT_RTOL,
    _pearson_stat,
    _positive_submatrix,
    _search,
    apply_alpha,
    calibrate,
    find_alpha,
    gof_statistic,
)

GRID = np.linspace(ALPHA_MIN, 1.0, GRID_POINTS)


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


@given(
    x=st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(0, 1e6))
    )
)
@settings(max_examples=200, deadline=None)
def test_in_place_pearson_stat_equals_out_of_place_formula(x):
    with np.errstate(divide="ignore", invalid="ignore"):  # zero sums give nan or inf
        fitted = np.outer(x.sum(axis=1), x.sum(axis=0)) / x.sum()
        resid = x - fitted
        expected = float((resid * resid / fitted).sum())
        assert repr(_pearson_stat(x.copy(), np.empty_like(x))) == repr(expected)


@pytest.mark.parametrize("shape", [(12, 10_000), (300, 1_000), (5, 40_000), (7, 4_681)])
def test_pearson_stat_in_row_blocks_equals_the_whole_outer_product(shape):
    """Shapes whose rank-one fit takes several row blocks, one row or many at a time."""
    x = np.random.default_rng(sum(shape)).negative_binomial(3, 0.05, shape).astype(float) + 1
    fitted = np.outer(x.sum(axis=1), x.sum(axis=0)) / x.sum()
    resid = x - fitted
    expected = float((resid * resid / fitted).sum())
    assert repr(_pearson_stat(x, np.empty_like(x))) == repr(expected)
    in_place = x.copy()
    assert repr(_pearson_stat(in_place, in_place)) == repr(expected)


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


def grid_stats(sub):
    return [_pearson_stat(x, x) for x in (sub**alpha for alpha in GRID)]


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
        sub, _ = _positive_submatrix(values)
    except ValidationError:
        assume(False)
    target = (sub.shape[0] - 1) * (sub.shape[1] - 1)
    stats = grid_stats(sub)
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
    sub, _ = _positive_submatrix(values)
    target = (sub.shape[0] - 1) * (sub.shape[1] - 1)
    stats = grid_stats(sub)
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


def test_calibrate_hands_back_the_power_bit_for_bit():
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    values = simulate(config).data.matrix.values
    dropped = values.copy()
    dropped[:, 3] = 0.0  # a silent feature: the power is scattered into zeros
    signed = values.copy()
    signed[4] = 0.0  # a silent observation
    signed[:, 7] = -0.0  # a silent feature of -0.0
    signed[[4, 6], 8] = -0.0  # -0.0 in the silent observation and in a kept cell
    for draw in (values, dropped, signed):
        result = calibrate(draw)
        assert result.alpha < 1.0
        expected = draw**result.alpha
        assert np.array_equal(result.values.view(np.uint64), expected.view(np.uint64))


def test_calibrate_of_rows_equals_calibrate_of_the_copied_rows():
    config = SimulationConfig(n=15, p=800, K=3, phi=1.0, sigma=0.5, seed=11)
    values = simulate(config).data.matrix.values
    rows = np.array([0, 2, 3, 4, 6, 7, 9, 12, 14])
    outside = values.copy()
    outside[rows, 5] = 0.0  # positive only in rows left out: dropped within the rows
    silent = outside.copy()
    silent[4] = 0.0  # a silent observation among the rows
    flat = np.full((6, 9), 5.0)  # a perfect rank-one fit: alpha = 1
    flat[:, 2] = 0.0
    cases = [(values, rows), (outside, rows), (silent, rows), (values, np.arange(15)),
             (flat, np.array([1, 2, 5]))]
    for draw, picked in cases:
        whole, part = calibrate(draw[picked]), calibrate(draw, picked)
        assert part[:-1] == whole[:-1]
        assert np.array_equal(part.values.view(np.uint64), whole.values.view(np.uint64))
    assert calibrate(flat, np.array([1, 2, 5])).alpha == 1.0


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
