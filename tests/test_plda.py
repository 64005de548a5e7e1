"""Classifier fitting, shrinkage, prediction, and cross-validation."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_rho_cross_validate, scalar_plda_scores, soft_threshold

from poiskit.count_matrix import CountMatrix, LabeledDataset
from poiskit.errors import ValidationError
from poiskit.size_factors import SizeFactors
from poiskit.simulate import SimulationConfig, simulate
from poiskit.transform import calibrate
from poiskit import plda
from poiskit.plda import (
    PldaModel,
    _ratio_shrinker,
    _score_rows,
    cross_validate,
    default_rho_grid,
    fit,
    predict,
    predict_matrix,
    read_model,
    shrunken_ratios,
    stratified_folds,
    write_model,
)


def make_dataset(values, labels, K=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    m = CountMatrix(values, tuple(f"s{i}" for i in range(n)), tuple(f"f{j}" for j in range(p)))
    labels = np.asarray(labels)
    return LabeledDataset(m, labels, K or labels.max())


def random_dataset(seed, n=12, p=30, K=3):
    rng = np.random.default_rng(seed)
    values = rng.poisson(25.0, size=(n, p)).astype(float) + rng.integers(0, 3, (n, p))
    labels = (np.arange(n) % K) + 1
    return make_dataset(values, labels, K)


def injected_model(g, d, priors, beta=1.0, rho=0.0):
    """Model assembled from known parameters; prediction needs explicit s*."""
    g = np.asarray(g, float)
    d = np.asarray(d, float)
    return PldaModel(
        g_hat=g,
        d_hat=d,
        priors=np.asarray(priors, float),
        beta=beta,
        rho=rho,
        size_factors=None,
        alpha=1.0,
        class_names=tuple(str(k + 1) for k in range(d.shape[0])),
    )


# --- soft thresholding ---

def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(1.7, 0.0) == 1.7


@given(x=st.floats(-1e6, 1e6), t=st.floats(0, 1e6))
@settings(max_examples=200, deadline=None)
def test_soft_threshold_properties(x, t):
    s = float(soft_threshold(x, t))
    assert abs(s) <= abs(x) + 1e-12
    assert s * x >= 0.0


# --- fitting ---

def test_rho_zero_matches_posterior_mean_formula_bitwise():
    data = random_dataset(0)
    model = fit(data, rho=0.0, transform=False)
    factors = model.size_factors
    g = data.matrix.values.sum(axis=0)
    for k in range(1, data.K + 1):
        idx = np.flatnonzero(data.labels == k)
        a = data.matrix.values[idx].sum(axis=0) + model.beta
        b = factors.values[idx].sum() * g + model.beta
        assert np.array_equal(model.d_hat[k - 1], a / b)


def test_zero_class_count_keeps_ratio_positive():
    values = np.array([[5.0, 0.0], [6.0, 0.0], [4.0, 3.0], [5.0, 2.0]])
    data = make_dataset(values, [1, 1, 2, 2])
    model = fit(data, rho=0.0, transform=False)
    assert np.all(model.d_hat > 0)
    # class 1 never saw feature 2: ratio is beta / (offset + beta) < 1
    idx = np.flatnonzero(data.labels == 1)
    offset = model.size_factors.values[idx].sum() * data.matrix.values.sum(axis=0)[1]
    assert model.d_hat[0, 1] == pytest.approx(1.0 / (offset + 1.0))


def test_huge_rho_shrinks_everything():
    data = random_dataset(1)
    model = fit(data, rho=1e9, transform=False)
    assert np.all(model.d_hat == 1.0)
    assert model.nonzero_features() == 0


def test_beta_validation():
    data = random_dataset(2)
    for beta in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="beta"):
            fit(data, beta=beta)
        with pytest.raises(ValidationError, match="beta"):
            cross_validate(data, folds=3, beta=beta)
        with pytest.raises(ValidationError, match="beta"):
            injected_model(g=[1.0], d=[[2.0], [0.5]], priors=[0.5, 0.5], beta=beta)
    for rho in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="rho"):
            fit(data, rho=rho)
        with pytest.raises(ValidationError, match="rho"):
            cross_validate(data, rho_grid=[0.0, rho], folds=3)
        with pytest.raises(ValidationError, match="rho"):
            injected_model(g=[1.0], d=[[2.0], [0.5]], priors=[0.5, 0.5], rho=rho)


def test_empirical_priors():
    data = make_dataset(np.ones((5, 3)) + np.arange(15).reshape(5, 3), [1, 1, 1, 2, 2])
    model = fit(data, prior_mode="empirical", transform=False)
    assert np.allclose(model.priors, [0.6, 0.4])


def test_shrinkage_moves_toward_one_without_overshoot():
    data = random_dataset(3)
    stats_model = fit(data, rho=0.0, transform=False)
    ratio = stats_model.d_hat
    for rho in (0.1, 1.0, 10.0):
        shrunk = fit(data, rho=rho, transform=False).d_hat
        assert np.all(np.abs(shrunk - 1.0) <= np.abs(ratio - 1.0) + 1e-12)
        assert np.all((shrunk - 1.0) * (ratio - 1.0) >= -1e-15)


def test_sparsity_is_monotone_in_rho():
    data = random_dataset(4, p=60)
    grid = [0.0, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0, 100.0]
    counts = [fit(data, rho=r, transform=False).nonzero_features() for r in grid]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 60


def test_interpolation_with_one_sample_per_class():
    # with a single observation per class and a vanishing prior, the model
    # reproduces the observed counts: d * n_hat ~= x
    rng = np.random.default_rng(9)
    values = rng.poisson(40.0, size=(3, 20)).astype(float) + 1.0
    data = make_dataset(values, [1, 2, 3])
    model = fit(data, beta=1e-8, rho=0.0, transform=False)
    n_hat = model.size_factors.values[:, None] * model.g_hat[None, :]
    recon = model.d_hat * n_hat
    assert np.allclose(recon, values, rtol=1e-4)


# --- prediction ---

def test_predict_matches_scalar_oracle_hand_model():
    model = injected_model(
        g=[3.0, 5.0], d=[[0.5, 2.0], [1.5, 0.25]], priors=[0.4, 0.6]
    )
    x = np.array([7.0, 2.0])
    pred = predict(model, x, s_star=1.3)
    expected = scalar_plda_scores(x, model.g_hat, model.d_hat, model.priors, 1.3)
    assert np.allclose(pred.scores, expected, rtol=1e-12)


def test_fully_shrunken_model_ties_to_class_one():
    data = random_dataset(5)
    model = fit(data, rho=1e9, transform=False)
    pred = predict(model, data.matrix.values[0])
    assert pred.class_index == 1
    assert np.allclose(pred.scores, pred.scores[0])
    assert np.allclose(pred.posterior, 1.0 / data.K)


def test_scores_shift_invariance():
    model = injected_model(g=[1.0, 1.0], d=[[10.0, 10.0], [28.0, 28.0]], priors=[0.5, 0.5])
    pred = predict(model, [12.0, 20.0], s_star=1.0)
    shifted_posterior = np.exp(pred.scores + 123.0)
    shifted_posterior /= shifted_posterior.sum()
    assert np.allclose(shifted_posterior, pred.posterior)
    assert int(np.argmax(pred.scores + 123.0)) + 1 == pred.class_index


def test_predict_finite_scores_on_zero_heavy_input():
    data = random_dataset(6)
    model = fit(data, rho=0.5, transform=False)
    x = np.zeros(data.matrix.p)
    x[0] = 1.0
    pred = predict(model, x)
    assert np.all(np.isfinite(pred.scores))


def test_predict_validates_input():
    model = injected_model(g=[1.0], d=[[2.0], [0.5]], priors=[0.5, 0.5])
    with pytest.raises(ValidationError):
        predict(model, [1.0, 2.0], s_star=1.0)
    with pytest.raises(ValidationError):
        predict(model, [-1.0], s_star=1.0)
    with pytest.raises(ValidationError, match="s_star"):
        predict(model, [1.0])


def test_predict_applies_transform_exponent():
    data = random_dataset(7)
    model = fit(data, rho=0.0, transform=True)
    assert model.alpha < 1.0
    x = data.matrix.values[0]
    manual = predict(model, x)
    # feeding pre-transformed counts with alpha forced to 1 must agree
    clone = PldaModel(
        g_hat=model.g_hat,
        d_hat=model.d_hat,
        priors=model.priors,
        beta=model.beta,
        rho=model.rho,
        size_factors=model.size_factors,
        alpha=1.0,
        class_names=model.class_names,
        feature_ids=model.feature_ids,
    )
    direct = predict(clone, x**model.alpha)
    assert np.array_equal(manual.scores, direct.scores)


@pytest.mark.parametrize(
    "m, K, p", [(1, 2, 7), (3, 3, 1_001), (12, 4, 10_000), (600, 3, 10_000), (600, 2, 7)]
)
@pytest.mark.parametrize("unaligned", [False, True])
def test_score_rows_batch_independent(m, K, p, unaligned):
    rng = np.random.default_rng(m * K + p)
    rows = rng.poisson(20.0, (m, p + 1)).astype(float)
    # a view starting one element in: rows and their start addresses shift by 8 bytes
    rows = rows[:, 1:] if unaligned else np.ascontiguousarray(rows[:, :p])
    log_d = np.log(rng.random((K, p)) + 0.5)
    s_stars = rng.random(m) + 0.1
    offsets, log_priors = rng.random(K) * 1e4, np.log(np.full(K, 1.0 / K))
    batch = _score_rows(rows, s_stars, log_d, offsets, log_priors)
    for i in range(m):
        one = _score_rows(rows[i : i + 1], s_stars[i : i + 1], log_d, offsets, log_priors)
        assert np.array_equal(batch[i], one[0]), i


@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
def test_predict_matrix_rows_equal_predict(method):
    data = random_dataset(18, n=15, p=400)
    model = fit(data, method=method, rho=0.3, transform=True)
    assert model.alpha < 1.0
    batch = predict_matrix(model, data.matrix)
    assert batch.class_index.shape == (15,) and batch.posterior.shape == (15, 3)
    for i, x in enumerate(data.matrix.values):
        one = predict(model, x)
        assert one.class_index == batch.class_index[i]
        assert np.array_equal(one.scores, batch.scores[i])
        assert np.array_equal(one.posterior, batch.posterior[i])


# --- shrunken ratio kernel ---

def test_shrunken_ratios_zero_rho_is_exact_division():
    rng = np.random.default_rng(10)
    a = rng.random((3, 50)) * 20 + 0.1
    b = rng.random((3, 50)) * 20 + 0.1
    assert np.array_equal(shrunken_ratios(a, b, 0.0), a / b)


def test_shrunken_ratios_match_three_branch_formula():
    rng = np.random.default_rng(11)
    b_random = rng.random((3, 200)) * 20 + 0.1
    a_random = rng.random((3, 200)) * 20 + 0.1
    b_edge = np.tile([7.3, 4.0, 4.0, 3.1, 3.1], (3, 1))
    # a == b (ratio - 1 == 0); |ratio - 1| == rho / sqrt(b) exactly at rho = 1
    # (ratios 1.5 and 0.5 over sqrt(4) = 2); ratios below 0.5, where
    # ratio - 1 is not exact, and above 2
    a_edge = b_edge * np.array([1.0, 1.5, 0.5, 0.0137, 41.9])
    b_far = rng.random((3, 40)) * 20 + 0.1
    a_far = b_far * np.exp(rng.choice([-1.0, 1.0], (3, 40)) * rng.uniform(0.7, 5.0, (3, 40)))
    a = np.hstack([a_random, a_edge, a_far])
    b = np.hstack([b_random, b_edge, b_far])
    ratio = a / b
    assert np.any(ratio == 1.0) and np.any(np.abs(ratio - 1.0) == 1.0 / np.sqrt(b))
    bound = float(np.max(np.sqrt(b) * np.abs(ratio - 1.0)))  # shrinkage_upper_bound
    rhos = [0.0, 1e-3, 0.1, 0.7, 1.0, 3.0, 50.0, bound, 2.0 * bound, np.inf, np.nan]

    def expected(rho):
        thr = rho / np.sqrt(b)
        return np.where(
            ratio - 1.0 > thr, ratio - thr, np.where(1.0 - ratio > thr, ratio + thr, 1.0)
        )

    for rho in rhos:
        with np.errstate(all="raise"):  # an infinite rho meets no 0 * inf
            assert np.array_equal(shrunken_ratios(a, b, rho), expected(rho)), rho
    assert np.all(shrunken_ratios(a, b, 2.0 * bound) == 1.0)
    # blocks of every size up to 5 with the tie at rho = 1, rho = 0, inf and
    # NaN placed in each slot; the last block of a sweep may be short
    for block in range(1, 6):
        shrink = _ratio_shrinker(a, b, block)
        for start in range(len(rhos)):
            part = np.array((rhos * 2)[start : start + block])
            with np.errstate(all="raise"):
                d = shrink(part)
            assert d.shape == (part.size, 3, 245)
            for r, rho in enumerate(part):
                assert np.array_equal(d[r], expected(rho)), rho
            log_d = np.log(d, out=d)  # in place, as the cv sweep takes it
            for r, rho in enumerate(part):
                assert np.array_equal(log_d[r], np.log(expected(rho))), rho


def test_ratio_shrinker_reuses_its_workspaces():
    rng = np.random.default_rng(12)
    a = rng.random((3, 50)) * 20 + 0.1
    b = rng.random((3, 50)) * 20 + 0.1
    shrink = _ratio_shrinker(a, b, 3)
    first = shrink(np.array([0.5, 1.0, 2.0]))
    second = shrink(np.array([0.0, 0.25, 4.0]))
    assert second.ctypes.data == first.ctypes.data and np.shares_memory(first, second)
    assert np.array_equal(second[0], a / b)
    short = shrink(np.array([0.0]))  # a grid's last, shorter block
    assert short.shape == (1, 3, 50) and short.ctypes.data == first.ctypes.data
    assert np.array_equal(short[0], a / b)


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [7, 1_001, 10_000])
@pytest.mark.parametrize("unaligned", [False, True])
def test_block_scores_equal_one_rho_scores(K, p, unaligned):
    rng = np.random.default_rng(K * p + unaligned)
    m = 4
    rows = rng.poisson(20.0, (m, p + 1)).astype(float)
    rows = rows[:, 1:] if unaligned else np.ascontiguousarray(rows[:, :p])
    s_stars = rng.random(m) + 0.1
    log_priors = np.log(np.full(K, 1.0 / K))
    g_hat = rng.random(p) * 1e3
    for R in range(1, 6):
        d = rng.random((R, K, p)) + 0.5
        log_d, offsets = np.log(d), d @ g_hat
        block = _score_rows(rows, s_stars, log_d, offsets, log_priors)
        assert block.shape == (R, m, K)
        for r in range(R):
            # the 2-D product and scores that PldaModel caches and predict uses
            assert np.array_equal(offsets[r], d[r] @ g_hat), (R, r)
            one = _score_rows(rows, s_stars, log_d[r], d[r] @ g_hat, log_priors)
            assert np.array_equal(block[r], one), (R, r)


# --- cross-validation ---

def test_cv_rho_zero_keeps_all_features():
    data = random_dataset(11, n=15, p=25, K=3)
    result = cross_validate(data, rho_grid=[0.0], folds=3, seed=1, transform=False)
    assert result.nonzero_features[0] == 25.0


def test_cv_huge_rho_matches_prior_only_classifier():
    data = random_dataset(12, n=12, p=25, K=3)
    result = cross_validate(data, rho_grid=[1e9], folds=3, seed=2, transform=False)
    assert result.nonzero_features[0] == 0.0
    prior_only_errors = int((data.labels != 1).sum())
    assert result.errors[0] == prior_only_errors


def test_cv_selects_smallest_rho_at_minimum():
    data = random_dataset(13, n=18, p=40, K=3)
    result = cross_validate(data, folds=3, seed=3, transform=False)
    best = result.errors.min()
    first = np.flatnonzero(result.errors == best)[0]
    assert result.selected_rho == result.rho_grid[first]


def test_cv_deterministic_given_seed():
    data = random_dataset(14, n=12, p=20, K=2)
    a = cross_validate(data, folds=4, seed=9, transform=False)
    b = cross_validate(data, folds=4, seed=9, transform=False)
    assert np.array_equal(a.errors, b.errors)
    assert a.selected_rho == b.selected_rho


def test_cv_empty_grid_rejected():
    data = random_dataset(15)
    with pytest.raises(ValidationError):
        cross_validate(data, rho_grid=[], folds=3)


def test_cv_names_held_out_sample_with_zero_median_ratio():
    # s0 is zero on six of nine features: outside the full-data median-ratio
    # features, but inside those of the folds that hold s0 out
    values = np.random.default_rng(0).poisson(5, (6, 9)).astype(float) + 1
    values[0, :6] = 0
    data = make_dataset(values, [1, 2, 1, 2, 1, 2])
    with pytest.raises(ValidationError, match=r"^zero median ratio in 1 of 2 observations: 's0'$"):
        cross_validate(data, method="median-ratio", rho_grid=[0.0], folds=2, transform=False)


def test_default_rho_grid_spans_to_full_shrinkage():
    data = random_dataset(16)
    grid = default_rho_grid(data, transform=False)
    assert grid[0] == 0.0
    assert grid.size == 30
    model = fit(data, rho=float(grid[-1]), transform=False)
    assert model.nonzero_features() == 0


@pytest.mark.parametrize("transform", (False, True))
def test_default_rho_grid_is_zero_alone_when_every_ratio_is_already_one(transform):
    # identical rows: every class's counts are its share of the totals, so
    # the full-shrinkage bound is 0 and no positive rho changes the model
    data = make_dataset(np.tile([3.0, 1.0, 4.0, 2.0], (4, 1)), [1, 2, 1, 2])
    assert default_rho_grid(data, transform=transform).tolist() == [0.0]


def overdispersed_dataset():
    """Classes of 5, 5 and 3 samples whose calibration exponent is below 1."""
    data = simulate(SimulationConfig(n=15, p=120, K=3, phi=0.2, sigma=0.15, seed=2)).data
    keep = np.flatnonzero((data.labels != 3) | (np.cumsum(data.labels == 3) <= 3))
    m = data.matrix
    return LabeledDataset(
        CountMatrix(m.values[keep], tuple(m.sample_ids[i] for i in keep), m.feature_ids),
        data.labels[keep],
        data.K,
        data.class_names,
    )


@pytest.mark.parametrize("grid", [None, [4.0, 0.0, 0.3, 20.0, 1.0, 0.05]])
@pytest.mark.parametrize("prior_mode", ["uniform", "empirical"])
@pytest.mark.parametrize("transform", [True, False])
@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
def test_cv_matches_per_rho_model_oracle(method, transform, prior_mode, grid):
    data = overdispersed_dataset()
    options = dict(method=method, prior_mode=prior_mode, transform=transform, beta=1.0)
    result = cross_validate(data, rho_grid=grid, folds=3, seed=7, **options)
    rho_grid, errors, nonzero, selected, folds, fold_errors = per_rho_cross_validate(
        data, method, grid, 3, 7, prior_mode, transform, 1.0
    )
    assert np.array_equal(result.rho_grid, rho_grid)
    assert np.array_equal(result.errors, errors)
    assert np.array_equal(result.nonzero_features, nonzero)
    assert result.selected_rho == selected
    assert result.folds == folds
    assert np.array_equal(result.fold_errors, fold_errors)
    assert result.to_json()["fold_errors"] == fold_errors.tolist()
    assert len(set(errors.tolist())) > 1  # the grid changes the decisions

    refit = fit(data, rho=result.selected_rho, **options)
    model = result.model
    for name in ("g_hat", "d_hat", "priors"):
        assert np.array_equal(getattr(model, name), getattr(refit, name)), name
    for name in ("beta", "rho", "alpha", "class_names", "feature_ids"):
        assert getattr(model, name) == getattr(refit, name), name
    assert model.size_factors.to_json() == refit.size_factors.to_json()
    assert transform == (model.alpha < 1.0)


@pytest.mark.parametrize("block", [1, 4, 7, 30])
def test_cv_does_not_depend_on_the_sweep_block(monkeypatch, block):
    data = overdispersed_dataset()
    whole = cross_validate(data, folds=3, seed=7).to_json()
    K, p = data.K, data.matrix.p
    monkeypatch.setattr(plda, "_SWEEP_ELEMENTS", block * K * p)
    assert cross_validate(data, folds=3, seed=7).to_json() == whole


@pytest.mark.parametrize("transform", [True, False])
def test_cv_records_each_fold_exponent(transform):
    data = overdispersed_dataset()
    result = cross_validate(data, rho_grid=[0.0, 1.0], folds=3, seed=7, transform=transform)
    fold_of, folds = stratified_folds(data.labels, 3, 7)
    expected = [
        calibrate(data.matrix.values[fold_of != f]).alpha if transform else 1.0
        for f in range(folds)
    ]
    assert list(result.fold_alphas) == expected
    assert result.to_json()["fold_alphas"] == expected
    assert all(alpha < 1.0 for alpha in expected) == transform


def test_stratified_folds_reduce_with_warning():
    labels = np.array([1, 1, 1, 2, 2, 2])
    with pytest.warns(RuntimeWarning, match="reducing folds"):
        fold_of, effective = stratified_folds(labels, folds=5, seed=0)
    assert effective == 3
    for k in (1, 2):
        per_fold = np.bincount(fold_of[labels == k], minlength=3)
        assert np.all(per_fold == 1)


def test_stratified_folds_degenerate():
    with pytest.raises(ValidationError):
        stratified_folds(np.array([1, 2, 2, 2]), folds=2, seed=0)


# --- serialization ---

def test_model_json_round_trip(tmp_path):
    data = random_dataset(17)
    model = fit(data, rho=0.7, transform=True)
    path = tmp_path / "model.json"
    write_model(model, path)
    bare = injected_model(g=[1.0, 2.0], d=[[2.0, 0.5], [1.0, 1.0]], priors=[0.5, 0.5])
    for written in (model, bare):
        write_model(written, tmp_path / "check.json")
        expected = io.StringIO()
        json.dump(written.to_json(), expected)
        assert (tmp_path / "check.json").read_text(encoding="utf-8") == expected.getvalue() + "\n"
    loaded = read_model(path)
    assert np.array_equal(loaded.d_hat, model.d_hat)
    assert np.array_equal(loaded.g_hat, model.g_hat)
    assert loaded.alpha == model.alpha
    x = data.matrix.values[3]
    assert np.array_equal(predict(loaded, x).scores, predict(model, x).scores)


def random_bits(rng, shape):
    """Finite nonnegative float64s with random bit patterns, subnormals among them."""
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, size=shape, dtype=np.uint64)
    values = bits.view(np.float64).ravel()
    values[:3] = (5e-324, 2.5e-310, 1e300)
    return values.reshape(shape)


def test_model_file_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(23)
    K, p = 3, 500
    g = random_bits(rng, p)
    g[3] = -0.0
    geometric_means = random_bits(rng, p)
    factors = SizeFactors(
        np.full(4, 0.25), "median-ratio", normalizer=4.0, p=p,
        geometric_means=geometric_means, usable=np.ones(p, bool),
    )
    with np.errstate(over="ignore"):  # the cached offsets d_hat @ g_hat overflow
        model = PldaModel(
            g_hat=g, d_hat=random_bits(rng, (K, p)) + 5e-324, priors=np.full(K, 1 / K),
            beta=1.0, rho=0.0, size_factors=factors, alpha=1.0, class_names=("a", "b", "c"),
        )
        write_model(model, tmp_path / "model.json")
        loaded = read_model(tmp_path / "model.json")
    for before, after in [
        (model.g_hat, loaded.g_hat), (model.d_hat, loaded.d_hat),
        (geometric_means, loaded.size_factors.geometric_means),
    ]:
        assert after.shape == before.shape
        assert np.array_equal(after.view(np.uint64), before.view(np.uint64))
    assert np.signbit(loaded.g_hat[3])

