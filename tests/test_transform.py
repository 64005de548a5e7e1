"""Power transform calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poiskit.count_matrix import CountMatrix
from poiskit.errors import ValidationError
from poiskit.simulate import SimulationConfig, simulate
from poiskit.transform import _pearson_stat, apply_alpha, find_alpha, gof_statistic


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
        assert repr(_pearson_stat(x.copy())) == repr(expected)


def test_statistic_near_target_for_rank_one_poisson_data():
    config = SimulationConfig(n=20, p=2000, K=3, phi=0.0, sigma=0.1, de_prob=0.0, seed=2)
    data = simulate(config).data.matrix
    stat = gof_statistic(data)
    target = find_alpha(data).target
    assert abs(stat / target - 1.0) < 0.02


def test_rank_one_poisson_data_keeps_alpha_one():
    config = SimulationConfig(n=20, p=2000, K=3, phi=0.0, sigma=0.1, de_prob=0.0, seed=2)
    result = find_alpha(simulate(config).data.matrix)
    assert result.alpha == 1.0
    assert result.converged


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
