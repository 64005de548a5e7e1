"""Size factor estimators and their test-observation extensions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit.count_matrix import CountMatrix
from poiskit.errors import ValidationError
from poiskit.size_factors import (
    SizeFactors,
    canonical_method,
    estimate_size_factors,
    estimate_test_size_factor,
    estimate_test_size_factors,
)


def matrix(rows):
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    return CountMatrix(rows, tuple(f"s{i}" for i in range(n)), tuple(f"f{j}" for j in range(p)))


# --- total count ---

def test_total_count_examples():
    sf = estimate_size_factors(matrix([[4, 6], [10, 20]]), "total-count")
    assert np.allclose(sf.values, [0.25, 0.75])
    sf = estimate_size_factors(matrix([[1, 2], [1, 2]]), "total-count")
    assert np.allclose(sf.values, [0.5, 0.5])
    sf = estimate_size_factors(matrix([[1, 1], [1, 3]]), "total-count")
    assert np.allclose(sf.values, [1 / 3, 2 / 3])


def test_total_count_zero_row_names_sample():
    with pytest.raises(ValidationError, match="s1"):
        estimate_size_factors(matrix([[1, 2], [0, 0]]), "total-count")


# --- median ratio ---

def test_median_ratio_identical_rows():
    sf = estimate_size_factors(matrix([[3, 7, 2], [3, 7, 2]]), "median-ratio")
    assert np.allclose(sf.values, [0.5, 0.5])


def test_median_ratio_even_count_uses_middle_mean():
    # geometric means (4, 4); row ratios (0.5, 2) and (2, 0.5); the median
    # of two values is their mean, 1.25 for both rows
    sf = estimate_size_factors(matrix([[2, 8], [8, 2]]), "median-ratio")
    assert np.allclose(sf.values, [0.5, 0.5])
    assert np.allclose(sf.values * sf.normalizer, [1.25, 1.25])


def test_median_ratio_excludes_features_with_zeros():
    sf = estimate_size_factors(matrix([[1, 0], [2, 4]]), "median-ratio")
    assert np.allclose(sf.values, [1 / 3, 2 / 3])
    assert list(sf.usable) == [True, False]
    assert np.allclose(sf.values * sf.normalizer, [1 / np.sqrt(2), 2 / np.sqrt(2)])


def test_median_ratio_no_usable_feature():
    with pytest.raises(ValidationError, match="median-ratio"):
        estimate_size_factors(matrix([[1, 0], [0, 4]]), "median-ratio")


# --- quantile ---

def test_quantile_examples():
    sf = estimate_size_factors(matrix([[5, 5], [5, 5]]), "quantile")
    assert np.allclose(sf.values, [0.5, 0.5])
    sf = estimate_size_factors(matrix([[1, 2, 3, 4], [2, 4, 6, 8]]), "quantile")
    assert np.allclose(sf.values * sf.normalizer, [3.25, 6.5])
    assert np.allclose(sf.values, [1 / 3, 2 / 3])


def test_quantile_single_feature_reduces_to_total_count():
    m = matrix([[2], [6]])
    assert np.allclose(
        estimate_size_factors(m, "quantile").values,
        estimate_size_factors(m, "total-count").values,
    )


def test_quantile_zero_percentile_names_sample():
    with pytest.raises(ValidationError, match="s0"):
        estimate_size_factors(matrix([[0, 0, 0, 0, 1], [1, 1, 1, 1, 1]]), "quantile")


# --- shared properties ---

@pytest.mark.parametrize(
    "method, rows, message",
    [
        ("total-count", [[1, 2], [0, 0], [3, 4], [0, 0]], "zero total count in 2 of 4"),
        (
            "quantile",
            [[1, 1, 1, 1, 1], [0, 0, 0, 0, 1], [2, 2, 2, 2, 2], [0, 0, 0, 0, 2]],
            "zero 75th percentile in 2 of 4",
        ),
        # a subnormal count over a geometric mean of about 1e116 underflows to 0
        (
            "median-ratio",
            [[1e300] * 3, [5e-324] * 3, [1e300] * 3, [5e-324] * 3, [1e300] * 3],
            "zero median ratio in 2 of 5",
        ),
    ],
)
def test_zero_statistics_are_named_in_one_message(method, rows, message):
    with pytest.raises(ValidationError) as excinfo:
        estimate_size_factors(matrix(rows), method)
    assert str(excinfo.value) == f"{message} observations: 's1', 's3'"


def test_non_finite_statistics_are_named_after_the_zeros():
    rows = [[1e308, 1e308], [1, 2], [0, 0], [3, 4]]
    with pytest.raises(ValidationError, match=r"^zero total count in 1 of 4 observations: 's2'$"):
        estimate_size_factors(matrix(rows), "total-count")
    rows[2] = [5, 6]
    with pytest.raises(
        ValidationError, match=r"^non-finite total count in 1 of 4 observations: 's0'$"
    ):
        estimate_size_factors(matrix(rows), "total-count")
    # test rows are named by index, or by the ids given
    sf = estimate_size_factors(matrix(rows[1:]), "total-count")
    message = "^non-finite total count in 1 of 2 observations: "
    with pytest.raises(ValidationError, match=message + "0$"):
        estimate_test_size_factors(sf, np.array(rows[:2]))
    with pytest.raises(ValidationError, match=message + "'t1'$"):
        estimate_test_size_factors(sf, np.array(rows[:2]), ("t1", "t2"))


@pytest.mark.parametrize("method", ["total-count", "quantile"])
def test_statistics_whose_sum_overflows_give_no_size_factors(method):
    # each statistic is finite, but they sum past the largest float
    rows = [[1.5e308, 1], [1.5e308, 2], [3, 4]]
    statistic = {"total-count": "total counts", "quantile": "75th percentiles"}[method]
    with pytest.raises(ValidationError, match=f"^the {statistic} of 3 observations sum to inf$"):
        estimate_size_factors(matrix(rows), method)


@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_factors_sum_to_one(method, seed):
    rng = np.random.default_rng(seed)
    m = matrix(rng.random((rng.integers(2, 7), rng.integers(2, 10))) * 40 + 0.1)
    sf = estimate_size_factors(m, method)
    assert abs(sf.values.sum() - 1.0) <= 1e-12
    assert np.all(sf.values > 0)


@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
def test_permutation_equivariance(method):
    rng = np.random.default_rng(7)
    values = rng.random((5, 9)) * 30 + 0.5
    perm = rng.permutation(5)
    base = estimate_size_factors(matrix(values), method)
    permuted = estimate_size_factors(matrix(values[perm]), method)
    # up to summation-order rounding in the normalizer
    assert np.allclose(permuted.values, base.values[perm], rtol=1e-14, atol=0)


def test_total_count_row_scaling_linearity():
    rng = np.random.default_rng(8)
    values = rng.random((4, 6)) * 20 + 1
    scaled = values.copy()
    scaled[2] *= 3.0
    base = estimate_size_factors(matrix(values), "total-count").values
    after = estimate_size_factors(matrix(scaled), "total-count").values
    # unnormalized row statistic scales by c: ratios against row 0 show it
    assert after[2] / after[0] == pytest.approx(3.0 * base[2] / base[0], rel=1e-12)


# --- test-observation extension ---

def test_test_factor_total_count_consistency():
    m = matrix([[1, 2, 3], [4, 5, 6]])
    sf = estimate_size_factors(m, "total-count")
    assert estimate_test_size_factor(sf, m.values[0]) == sf.values[0]
    assert estimate_test_size_factor(sf, 2 * m.values[0]) == 2 * sf.values[0]


def test_test_factor_median_ratio_consistency():
    m = matrix([[2, 8, 5], [8, 2, 5]])
    sf = estimate_size_factors(m, "median-ratio")
    assert estimate_test_size_factor(sf, m.values[0]) == pytest.approx(
        sf.values[0], rel=0, abs=0
    )


def test_test_factor_quantile_consistency():
    m = matrix([[1, 2, 3, 4], [2, 4, 6, 8]])
    sf = estimate_size_factors(m, "quantile")
    assert estimate_test_size_factor(sf, m.values[1]) == sf.values[1]


def test_median_scale_equivariance_on_test_path():
    # odd usable count makes the median a single order statistic, so
    # scaling the observation scales the statistic exactly
    m = matrix([[2, 8, 5], [8, 2, 5]])
    sf = estimate_size_factors(m, "median-ratio")
    x = np.array([3.0, 4.0, 5.0])
    assert estimate_test_size_factor(sf, 2 * x) == 2 * estimate_test_size_factor(sf, x)


@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_test_factors_array_equals_scalar(method, seed):
    rng = np.random.default_rng(seed)
    n, m, p = rng.integers(2, 7), rng.integers(1, 20), rng.integers(1, 60)
    train = rng.poisson(8.0, (n, p)).astype(float) + (rng.random((n, p)) < 0.8)
    train[:, 0] += 1.0  # median-ratio needs one feature positive in every sample
    sf = estimate_size_factors(matrix(train), method)
    rows = rng.poisson(8.0, (m, p)) + rng.random((m, p)) * 3 + 0.5
    batch = estimate_test_size_factors(sf, rows)
    assert batch.shape == (m,)
    for i, row in enumerate(rows):
        assert batch[i] == estimate_test_size_factor(sf, row)


def test_test_factor_error_cases():
    m = matrix([[1, 2], [3, 4]])
    sf = estimate_size_factors(m, "total-count")
    with pytest.raises(ValidationError, match="zero total"):
        estimate_test_size_factor(sf, np.zeros(2))
    with pytest.raises(ValidationError, match="features"):
        estimate_test_size_factor(sf, np.ones(3))
    qf = estimate_size_factors(m, "quantile")
    with pytest.raises(ValidationError, match="percentile"):
        estimate_test_size_factor(qf, np.array([0.0, 0.0]))
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match=r"^zero total count in 1 of 2 observations: 1$"):
        estimate_test_size_factors(sf, rows)
    with pytest.raises(ValidationError, match=r"^zero total count in 1 of 2 observations: 't2'$"):
        estimate_test_size_factors(sf, rows, ("t1", "t2"))


def test_canonical_method_aliases():
    assert canonical_method("total") == "total-count"
    with pytest.raises(ValidationError):
        canonical_method("tmm")



def test_a_record_takes_only_canonical_method_names():
    message = (
        "unknown size-factor method 'mr' (choose from ('total-count', 'quantile', 'median-ratio'))"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SizeFactors(np.ones(1), "mr", 1.0, 1)
    obj = {"values": [1.0], "method": "mr", "aux": {"m_sum": 1.0, "p": 1}}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SizeFactors.from_json(obj)


# valid fields of a 2-sample record over 2 features, and the file key of each normalizer
_FIELDS = {
    "total-count": {"normalizer": 10.0, "p": 2},
    "quantile": {"normalizer": 4.0, "p": 2},
    "median-ratio": {
        "normalizer": 2.0, "p": 2, "geometric_means": [3.0, 0.0], "usable": [True, False]
    },
}
_NORMALIZER_KEY = {"total-count": "grand_total", "quantile": "q_sum", "median-ratio": "m_sum"}


def as_file(method, fields):
    """The parsed ``size_factors`` block of a model file holding ``fields``."""
    aux = {_NORMALIZER_KEY[method]: fields["normalizer"], "p": fields["p"]}
    for key in ("geometric_means", "usable"):
        if key in fields:
            aux[key] = np.asarray(fields[key]).tolist()
    return {"values": [0.5, 0.5], "method": method, "aux": aux}


@pytest.mark.parametrize(
    "method, bad, message",
    [
        ("total-count", {"normalizer": 0.0}, "aux grand_total must be finite and positive"),
        ("total-count", {"normalizer": np.inf}, "aux grand_total must be finite and positive"),
        ("quantile", {"normalizer": np.nan}, "aux q_sum must be finite and positive"),
        ("median-ratio", {"normalizer": -1.0}, "aux m_sum must be finite and positive"),
        ("total-count", {"p": 0}, "aux p must be a positive integer, got 0"),
        ("quantile", {"p": 1.5}, "aux p must be a positive integer, got 1.5"),
        ("median-ratio", {"p": np.nan}, "aux p must be a positive integer, got nan"),
        ("median-ratio", {"geometric_means": [3.0, 1.0, 1.0]},
         "aux geometric_means must hold 2 entries"),
        ("median-ratio", {"usable": [True]}, "aux usable must hold 2 entries"),
        ("median-ratio", {"geometric_means": [3.0, np.inf]}, "aux geometric_means must be finite"),
        ("median-ratio", {"geometric_means": [0.0, 1.0]},
         "aux geometric_means must be positive on usable features"),
        ("median-ratio", {"geometric_means": [-3.0, 0.0]},
         "aux geometric_means must be positive on usable features"),
    ],
)
def test_a_record_built_directly_raises_what_its_file_raises(method, bad, message):
    fields = {**_FIELDS[method], **bad}
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValidationError, match=pattern):
        SizeFactors(np.array([0.5, 0.5]), method, **fields)
    with pytest.raises(ValidationError, match=pattern):
        SizeFactors.from_json(as_file(method, fields))


@pytest.mark.parametrize("method", sorted(_FIELDS))
def test_a_valid_record_round_trips_through_its_file_form(method):
    built = SizeFactors(np.array([0.5, 0.5]), method, **_FIELDS[method])
    assert not hasattr(built, "aux") and type(built.p) is int
    obj = built.to_json()
    assert list(obj["aux"])[-2:] == [_NORMALIZER_KEY[method], "p"]
    read = SizeFactors.from_json(obj)
    assert read.to_json() == obj
    for key in ("normalizer", "p", "geometric_means", "usable"):
        assert np.array_equal(getattr(read, key), getattr(built, key))
