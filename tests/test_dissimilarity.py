"""Poisson and squared-Euclidean dissimilarities."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import multinomial_lrt, scalar_pair_dissimilarity

from poiskit import cli, dissimilarity
from poiskit.count_matrix import CountMatrix, write_count_matrix
from poiskit.dissimilarity import (
    _POISSON_BUFFERS,
    _TILE_ELEMENTS,
    MEASURES,
    DissimilarityMatrix,
    dissimilarity_matrix,
    poisson_dissimilarity_matrix,
    poisson_pair_dissimilarity,
    read_dissimilarity,
    sq_euclidean_dissimilarity_matrix,
    write_dissimilarity,
)
from poiskit.errors import ArgumentError, ParseError, ValidationError
from poiskit.replicate import replicate_clustering
from poiskit.simulate import SimulationConfig
from poiskit.transform import find_alpha

METHODS = ("total-count", "quantile", "median-ratio")


def matrix(rows):
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    return CountMatrix(rows, tuple(f"s{i}" for i in range(n)), tuple(f"f{j}" for j in range(p)))


count_vectors = arrays(
    np.float64,
    st.integers(3, 25),
    elements=st.one_of(
        st.integers(0, 200).map(float),
        st.floats(0.0, 150.0, allow_nan=False),
    ),
)


# --- pair statistic ---

@pytest.mark.parametrize("method", METHODS)
def test_identical_vectors_give_exact_zero(method):
    x = np.array([3.0, 0.0, 17.0, 2.5, 8.0])
    assert poisson_pair_dissimilarity(x, x.copy(), method) == 0.0


def test_single_feature_pair_is_always_zero():
    # one feature is fit perfectly by the pair model
    assert poisson_pair_dissimilarity([2.0], [4.0], "total-count", beta=1.0) == 0.0


@given(x=count_vectors, seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_nonnegative_on_random_pairs(x, seed):
    rng = np.random.default_rng(seed)
    y = np.round(rng.random(x.size) * 100)
    if x.sum() == 0 or y.sum() == 0:
        return
    value = poisson_pair_dissimilarity(x, y, "total-count")
    assert value >= 0.0
    assert poisson_pair_dissimilarity(x, x.copy(), "total-count") == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_pair_is_bitwise_symmetric(method):
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = rng.integers(1, 60, 17).astype(float)
        y = rng.integers(1, 60, 17).astype(float)
        assert poisson_pair_dissimilarity(x, y, method) == poisson_pair_dissimilarity(
            y, x, method
        )


@pytest.mark.parametrize("method", METHODS)
def test_pair_agrees_with_scalar_oracle(method):
    rng = np.random.default_rng(31)
    for _ in range(350):
        p = rng.integers(2, 30)
        x = rng.integers(1, 80, p).astype(float)
        y = rng.integers(1, 80, p).astype(float)
        ours = poisson_pair_dissimilarity(x, y, method)
        ref = scalar_pair_dissimilarity(x, y, method)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_pair_validates_inputs():
    with pytest.raises(ValidationError):
        poisson_pair_dissimilarity([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        poisson_pair_dissimilarity([-1.0], [1.0])
    with pytest.raises(ValidationError, match="zero total"):
        poisson_pair_dissimilarity([0.0, 0.0], [1.0, 2.0])


# --- multinomial equivalence ---

def test_multinomial_lrt_cases():
    assert multinomial_lrt([3, 1, 4], [3, 1, 4]) == pytest.approx(0.0, abs=1e-12)
    assert multinomial_lrt([1, 0], [0, 1]) == pytest.approx(2 * np.log(2))


def test_mle_path_equals_multinomial_lrt():
    rng = np.random.default_rng(40)
    for _ in range(300):
        p = rng.integers(2, 40)
        x = rng.integers(0, 50, p).astype(float)
        y = rng.integers(0, 50, p).astype(float)
        if x.sum() == 0 or y.sum() == 0:
            continue
        stat = poisson_pair_dissimilarity(x, y, "total-count", beta=0.0)
        assert stat == pytest.approx(multinomial_lrt(x, y), rel=1e-9, abs=1e-9)


def test_posterior_mean_path_never_exceeds_mle_path():
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = rng.integers(0, 40, 15).astype(float)
        y = rng.integers(0, 40, 15).astype(float)
        if x.sum() == 0 or y.sum() == 0:
            continue
        smoothed = poisson_pair_dissimilarity(x, y, "total-count", beta=1.0)
        mle = poisson_pair_dissimilarity(x, y, "total-count", beta=0.0)
        assert smoothed <= mle + 1e-9 * max(1.0, mle)


# --- matrices ---

# 5 rows per tile: row 0 of 12 spans tiles of 5, 5 and 1, so each thread's
# workspace is reused by a shorter last tile
MULTI_TILE = (12, _TILE_ELEMENTS // 5)
assert _TILE_ELEMENTS // MULTI_TILE[1] == 5


@pytest.mark.parametrize("axis", ("samples", "features"))
@pytest.mark.parametrize("beta", (0.0, 1.0))
@pytest.mark.parametrize("method", METHODS)
def test_matrix_matches_pair_oracle_per_entry(method, beta, axis):
    rng = np.random.default_rng(50)
    n = MULTI_TILE[0]
    # scaled rows, so that each row has its own 75th percentile
    rows = rng.integers(0, 60, MULTI_TILE) * (rng.random((n, 1)) * 3)
    m = matrix(rows if axis == "samples" else rows.T)
    expected = {
        (i, j): (
            scalar_pair_dissimilarity(rows[i], rows[j], method, beta),
            poisson_pair_dissimilarity(rows[i], rows[j], method, beta),
        )
        for i in range(n)
        for j in range(i + 1, n)
    }
    for threads in (1, 2):
        if axis == "samples":
            dm = poisson_dissimilarity_matrix(m, method, beta, transform=False, threads=threads)
        else:
            dm = dissimilarity_matrix(
                m.transpose(), "poisson", method, beta, transform=False, threads=threads
            )
        full = dm.values
        for (i, j), (ref, pair) in expected.items():
            assert full[i, j] == pytest.approx(ref, rel=1e-10)
            assert full[i, j] == pair


def test_matrix_identical_rows_entry_zero():
    m = matrix([[3, 4, 5], [3, 4, 5], [9, 1, 2]])
    dm = poisson_dissimilarity_matrix(m, transform=False)
    assert dm.values[0, 1] == 0.0
    assert dm.values[0, 2] > 0.0


def test_matrix_transform_is_estimated_once_globally():
    rng = np.random.default_rng(51)
    m = matrix(rng.negative_binomial(2, 0.05, size=(5, 200)).astype(float))
    with_transform = poisson_dissimilarity_matrix(m, transform=True)
    manual = poisson_dissimilarity_matrix(find_alpha(m).matrix, transform=False)
    assert np.array_equal(with_transform.condensed, manual.condensed)


def test_parallel_matches_serial_bitwise():
    rng = np.random.default_rng(52)
    m = matrix(rng.integers(1, 80, MULTI_TILE).astype(float))
    features = matrix(rng.integers(1, 80, MULTI_TILE[::-1]).astype(float))
    runs = [
        lambda threads: poisson_dissimilarity_matrix(m, transform=False, threads=threads),
        lambda threads: sq_euclidean_dissimilarity_matrix(m, threads=threads),
        lambda threads: dissimilarity_matrix(
            features.transpose(), measure="sq-euclidean", threads=threads
        ),
    ]
    for compute in runs:
        serial = compute(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threaded = compute(5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.values, threaded.values)


def test_sq_euclidean_threads_reach_the_pair_loop(monkeypatch, tmp_path):
    seen = []
    original = dissimilarity._pairwise

    def spy(values, block_fn, buffers, threads):
        seen.append(threads)
        return original(values, block_fn, buffers, threads)

    monkeypatch.setattr(dissimilarity, "_pairwise", spy)
    m = matrix(np.random.default_rng(54).integers(1, 40, (6, 9)).astype(float))
    sq_euclidean_dissimilarity_matrix(m, threads=3)
    dissimilarity_matrix(m.transpose(), measure="sq-euclidean", threads=2)
    write_count_matrix(m, tmp_path / "counts.tsv")
    for axis in ("samples", "features"):
        assert cli.main([
            "dissim", "--counts", str(tmp_path / "counts.tsv"), "--measure", "sq-euclidean",
            "--axis", axis, "--threads", "4", "--out-dir", str(tmp_path / axis),
        ]) == 0
    replicate_clustering(
        SimulationConfig(n=6, p=30, K=2, phi=0.0, sigma=0.1, seed=1), reps=1,
        measure="sq-euclidean", threads=5,
    )
    assert seen == [3, 2, 4, 4, 5]


def test_matrix_permutation_equivariance():
    rng = np.random.default_rng(53)
    values = rng.integers(1, 40, (5, 20)).astype(float)
    perm = rng.permutation(5)
    base = poisson_dissimilarity_matrix(matrix(values), transform=False).values
    permuted = poisson_dissimilarity_matrix(matrix(values[perm]), transform=False).values
    assert np.array_equal(permuted, base[np.ix_(perm, perm)])


def test_matrix_error_names_offending_pair():
    values = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]])
    with pytest.raises(ValidationError, match=r"^zero total count in 1 of 3 observations: 's1'$"):
        poisson_dissimilarity_matrix(matrix(values), transform=False)
    # only s2 and s9 share no positive feature; s9 is in row 2's second tile
    values = np.ones(MULTI_TILE)
    values[2, MULTI_TILE[1] // 2 :] = 0.0
    values[9, : MULTI_TILE[1] // 2] = 0.0
    for threads in (1, 2):
        with pytest.raises(ValidationError, match=r"^pair \('s2', 's9'\): no feature"):
            poisson_dissimilarity_matrix(
                matrix(values), "median-ratio", transform=False, threads=threads
            )
    # only s11 has a zero 75th percentile; it is in row 0's third tile
    values = np.ones(MULTI_TILE)
    values[11, 500:] = 0.0
    for threads in (1, 2):
        with pytest.raises(
            ValidationError, match=r"^zero 75th percentile in 1 of 12 observations: 's11'$"
        ):
            poisson_dissimilarity_matrix(matrix(values), "quantile", transform=False, threads=threads)


def test_median_ratio_pairs_without_common_feature_are_listed_up_front():
    # the 4 pairs (a, b) are the only ones that share no positive feature:
    # a is positive on block k and block 4, b everywhere but blocks k and 4
    values = np.ones((300, 1_000))
    blocks = values.reshape(300, 8, 125)
    for k, (a, b) in enumerate([(5, 7), (40, 41), (120, 299), (250, 290)]):
        blocks[a] = 0.0
        blocks[a, [k, 4]] = 1.0
        blocks[b, [k, 4]] = 0.0
    message = (
        "pair ('s5', 's7'): no feature is positive in both observations; "
        "median-ratio is undefined for 4 of 44850 pairs: "
        "('s5', 's7'), ('s40', 's41'), ('s120', 's299'), ('s250', 's290')"
    )
    for threads in (1, 2, 5):
        with pytest.raises(ValidationError) as excinfo:
            poisson_dissimilarity_matrix(
                matrix(values), "median-ratio", transform=False, threads=threads
            )
        assert str(excinfo.value) == message
    # past 10 pairs the message counts the rest
    values = np.zeros((15, 2))
    values[::2, 0] = values[1::2, 1] = 1.0
    with pytest.raises(ValidationError, match=r"of 105 pairs: \('s0', 's1'\), .* and 46 more$"):
        poisson_dissimilarity_matrix(matrix(values), "median-ratio", transform=False)


def test_a_pair_past_the_largest_float_is_named_not_written_as_zero():
    # every row total is finite, but the pair (s0, s1) sums to inf: its term is NaN
    values = np.array([[1e308, 1, 2], [1e308, 2, 1], [2, 6, 1], [5, 2, 3]])
    message = r"^dissimilarities must be finite and nonnegative: \('{}', '{}'\) is nan$"
    for threads in (1, 2):
        with pytest.raises(ValidationError, match=message.format("s0", "s1")):
            poisson_dissimilarity_matrix(matrix(values), transform=False, threads=threads)
    with pytest.raises(ValidationError, match=message.format("x_i", "x_iprime")):
        poisson_pair_dissimilarity(values[0], values[1])
    # the first bad entry in row-major order: (a, b), (a, c), (b, c) above the diagonal
    values = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, -1.0, 0.0]]
    with pytest.raises(ValidationError, match=r"\('b', 'c'\) is -1.0$"):
        DissimilarityMatrix(values, ("a", "b", "c"), "poisson", "total-count")


def test_pair_function_checks_its_pair_up_front():
    with pytest.raises(ValidationError, match=r"^pair \('x_i', 'x_iprime'\): no feature"):
        poisson_pair_dissimilarity([1.0, 0.0], [0.0, 1.0], "median-ratio")
    with pytest.raises(ValidationError, match=r"^zero total count in 1 of 2 observations"):
        poisson_pair_dissimilarity([1.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("beta", (-1.0, np.nan, np.inf))
def test_beta_validation(beta):
    m = matrix([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(ValidationError, match="beta"):
        poisson_dissimilarity_matrix(m, beta=beta)
    with pytest.raises(ValidationError, match="beta"):
        dissimilarity_matrix(m.transpose(), beta=beta)
    with pytest.raises(ValidationError, match="beta"):
        poisson_pair_dissimilarity([1.0, 2.0], [3.0, 1.0], beta=beta)


def test_zero_total_observations_are_listed_up_front():
    values = np.ones((15, 4))
    values[[1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14]] = 0.0
    message = (
        "zero total count in 11 of 15 observations: "
        "'s1', 's3', 's4', 's5', 's6', 's7', 's8', 's9', 's10', 's12' and 1 more"
    )
    with pytest.raises(ValidationError) as excinfo:
        poisson_dissimilarity_matrix(matrix(values), transform=False)
    assert str(excinfo.value) == message
    # on the feature axis the observations are the features
    with pytest.raises(ValidationError, match=r"^zero total count in 11 of 15 observations: 'f1'"):
        dissimilarity_matrix(matrix(values.T).transpose(), transform=False)


@pytest.mark.parametrize("threads", (1, 2))
def test_tiles_allocate_nothing_beyond_the_workspaces(threads):
    n, p = 40, 2_000
    rng = np.random.default_rng(54)
    m = matrix(rng.integers(0, 60, (n, p)).astype(float))
    # a first call, so that one-time allocations are not traced
    poisson_dissimilarity_matrix(m, transform=False, threads=threads)
    tracemalloc.start()
    try:
        poisson_dissimilarity_matrix(m, transform=False, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = 8 * n * n
    workspace = 8 * _POISSON_BUFFERS * min(_TILE_ELEMENTS // p, n - 1) * p
    # the n x n array and the matrix's copy of it, values + beta once,
    # per thread a workspace and numpy's 64 KiB iteration buffer, and 32 kB
    # of small objects; one tile-sized temporary more would be 256 kB
    bound = 2 * square + 8 * n * p + threads * (workspace + 2**16) + 32_000
    assert peak < bound


# --- squared Euclidean baseline ---

def test_sq_euclidean_cases():
    m = matrix([[3, 4], [3, 4]])
    assert np.all(sq_euclidean_dissimilarity_matrix(m).condensed == 0.0)
    one_feature = matrix([[2.0], [4.0]])
    dm = sq_euclidean_dissimilarity_matrix(one_feature)
    # factors are (1/3, 2/3); scaled rows (6, 6) coincide
    assert dm.values[0, 1] == pytest.approx(0.0)
    equal_rows = matrix([[2.0, 2.0], [4.0, 0.0]])
    dm2 = sq_euclidean_dissimilarity_matrix(equal_rows)
    # equal totals mean factors 0.5 each: (4-8)^2 + (4-0)^2 = 32
    assert dm2.values[0, 1] == pytest.approx(32.0)


def test_sq_euclidean_quadratic_scaling():
    rng = np.random.default_rng(60)
    values = rng.integers(1, 50, (4, 8)).astype(float)
    base = sq_euclidean_dissimilarity_matrix(matrix(values)).condensed
    scaled = sq_euclidean_dissimilarity_matrix(matrix(3.0 * values)).condensed
    assert np.allclose(scaled, 9.0 * base, rtol=1e-12)


# --- feature axis ---

def test_feature_matrix_equals_transposed_computation():
    rng = np.random.default_rng(61)
    m = matrix(rng.integers(1, 30, (5, 7)).astype(float))
    by_feature = dissimilarity_matrix(m.transpose(), "poisson", transform=False)
    assert by_feature.n == 7
    direct = poisson_dissimilarity_matrix(m.transpose(), transform=False)
    assert np.array_equal(by_feature.condensed, direct.condensed)


def test_dissimilarity_matrix_dispatches_on_the_measure_name():
    m = matrix(np.random.default_rng(62).integers(1, 30, (5, 7)).astype(float))
    builders = {
        "poisson": lambda: poisson_dissimilarity_matrix(m, "quantile", 0.5, transform=True),
        "sq-euclidean": lambda: sq_euclidean_dissimilarity_matrix(m, "quantile"),
    }
    assert tuple(builders) == MEASURES
    for measure, build in builders.items():
        dm = dissimilarity_matrix(m, measure, "q", beta=0.5, threads=2)
        direct = build()
        assert (dm.measure, dm.method) == (measure, "quantile")
        assert np.array_equal(dm.condensed, direct.condensed)
    with pytest.raises(ArgumentError, match=r"^unknown measure 'euclidean' \(choose from"):
        dissimilarity_matrix(m, "euclidean")
    with pytest.raises(ArgumentError, match="unknown measure 'euclidean'"):
        replicate_clustering(
            SimulationConfig(n=6, p=30, K=2, phi=0.0, sigma=0.1, seed=1), reps=1,
            measure="euclidean",
        )


def test_two_identical_features_are_indistinguishable():
    values = np.array([[2.0, 2.0, 9.0], [5.0, 5.0, 1.0], [7.0, 7.0, 4.0]])
    dm = dissimilarity_matrix(matrix(values).transpose(), "poisson", transform=False)
    assert dm.values[0, 1] == 0.0


# --- storage and I/O ---

def test_condensed_layout_round_trip():
    n = 6
    ids = tuple(f"s{i}" for i in range(n))
    rng = np.random.default_rng(70)
    upper = np.triu(rng.random((n, n)), 1)
    dm = DissimilarityMatrix(upper + upper.T, ids, "poisson", "total-count")
    full, condensed = dm.values, dm.condensed
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(full) == 0)
    assert not full.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        full[0, 1] = 1.0
    # pair (i, j), i < j, lives at n*i - i*(i+1)/2 + (j - i - 1): row by row
    assert condensed.shape == (n * (n - 1) // 2,)
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert n * i - i * (i + 1) // 2 + (j - i - 1) == k
            assert full[i, j] == full[j, i] == condensed[k]
            k += 1


def test_from_full_validation():
    ids = ("a", "b")
    with pytest.raises(ValidationError, match="symmetric"):
        DissimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), ids, "x", "y")
    with pytest.raises(ValidationError, match="diagonal"):
        DissimilarityMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]), ids, "x", "y")


def test_read_rejects_non_numeric_cell_with_line(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id\ta\tb\n\na\t0\t1\nb\t1\tzero\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        read_dissimilarity(path)
    assert str(excinfo.value) == (
        f"{path}: line 4: non-numeric cell in row 'b': could not convert string to float: 'zero'"
    )


def test_read_names_the_first_repeated_id(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id\ta\tb\ta\na\t0\t1\t0\nb\t1\t0\t1\na\t0\t1\t0\n", encoding="utf-8")
    with pytest.raises(ValidationError) as excinfo:
        read_dissimilarity(path)
    assert str(excinfo.value) == f"{path}: duplicate observation id: 'a'"


def test_tsv_round_trip_with_sidecar(tmp_path):
    rng = np.random.default_rng(71)
    m = matrix(rng.integers(1, 30, (4, 9)).astype(float))
    dm = poisson_dissimilarity_matrix(m, method="quantile", transform=False)
    path = tmp_path / "d.tsv"
    write_dissimilarity(dm, path)
    loaded = read_dissimilarity(path)
    assert np.array_equal(loaded.values, dm.values)
    assert loaded.measure == "poisson"
    assert loaded.method == "quantile"
