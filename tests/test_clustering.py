"""Complete linkage, tree cutting, CER, and Newick export."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_complete_linkage, pairwise_cer

from poiskit.clustering import (
    Dendrogram,
    cer,
    cer_sweep,
    complete_linkage,
    cut_tree,
    to_newick,
)
from poiskit.count_matrix import Partition
from poiskit.dissimilarity import DissimilarityMatrix
from poiskit.errors import ValidationError


def dmatrix(full, ids=None):
    full = np.asarray(full, dtype=float)
    ids = ids or tuple(chr(ord("a") + i) for i in range(full.shape[0]))
    return DissimilarityMatrix.from_full(full, ids, "poisson", "total-count")


def random_partition(rng, n, k):
    _, dense = np.unique(rng.integers(0, k, n), return_inverse=True)
    return Partition(dense + 1, dense.max() + 1)


THREE_POINT = [[0, 1, 5], [1, 0, 5], [5, 5, 0]]


def test_three_point_merges_are_forced():
    dend = complete_linkage(dmatrix(THREE_POINT))
    assert dend.merges[0].tolist() == [0, 1, 1.0, 2]
    assert dend.merges[1].tolist() == [3, 2, 5.0, 3]


def test_three_point_cut_two():
    dend = complete_linkage(dmatrix(THREE_POINT))
    part = cut_tree(dend, 2)
    assert part.assignments.tolist() == [1, 1, 2]


def test_all_zero_distances_merge_in_index_order():
    dend = complete_linkage(dmatrix(np.zeros((4, 4))))
    assert np.all(dend.heights == 0.0)
    assert dend.merges[:, :2].tolist() == [[0, 1], [2, 3], [4, 5]]


def test_matches_naive_oracle_on_random_instance():
    rng = np.random.default_rng(5)
    n = 8
    sq = rng.random((n, n)) * 10
    full = np.triu(sq, 1)
    full = full + full.T
    dend = complete_linkage(dmatrix(full))
    reference = naive_complete_linkage(full)
    assert dend.merges.tolist() == [list(rec) for rec in reference]


def random_distances(rng, n, regime):
    if regime == "continuous":
        sq = rng.random((n, n)) * 10
    elif regime == "integer":  # distances in {1, 2, 3}: heavy ties
        sq = rng.integers(1, 4, (n, n)).astype(float)
    elif regime == "one-decimal":  # 11 values from 0 to 1: partial ties
        sq = np.round(rng.random((n, n)), 1)
    else:  # all equal
        sq = np.full((n, n), 2.0)
    sq = np.triu(sq, 1)
    return sq + sq.T


@pytest.mark.parametrize("regime", ("continuous", "integer", "one-decimal", "all-equal"))
@pytest.mark.parametrize("n", (2, 3, 17, 60))
def test_matches_naive_oracle_across_tie_regimes(n, regime):
    full = random_distances(np.random.default_rng(100 + n), n, regime)
    dend = complete_linkage(dmatrix(full, tuple(f"x{i}" for i in range(n))))
    reference = naive_complete_linkage(full)
    assert dend.merges.tolist() == [list(rec) for rec in reference]


@pytest.mark.parametrize("regime", ("continuous", "all-equal"))
def test_two_thousand_observations_link_within_the_readme_budget(regime):
    # a merge rescans only the rows whose minimum rose; under ties almost none do
    n = 2_000
    d = dmatrix(random_distances(np.random.default_rng(7), n, regime),
                tuple(f"x{i}" for i in range(n)))
    started = time.perf_counter()
    dend = complete_linkage(d)
    elapsed = time.perf_counter() - started
    assert elapsed < 3.0
    assert np.all(np.diff(dend.heights) >= 0)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_heights_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    sq = np.triu(rng.random((n, n)), 1)
    dend = complete_linkage(dmatrix(sq + sq.T))
    assert np.all(np.diff(dend.heights) >= 0)


def test_cut_extremes():
    rng = np.random.default_rng(6)
    sq = np.triu(rng.random((5, 5)), 1)
    dend = complete_linkage(dmatrix(sq + sq.T))
    assert cut_tree(dend, 1).assignments.tolist() == [1] * 5
    singles = cut_tree(dend, 5)
    assert singles.assignments.tolist() == [1, 2, 3, 4, 5]
    assert cer(singles, Partition([1, 2, 3, 4, 5], 5)) == 0.0
    with pytest.raises(ValidationError):
        cut_tree(dend, 0)
    with pytest.raises(ValidationError):
        cut_tree(dend, 6)


def test_cluster_numbering_follows_smallest_leaf():
    # leaves 0 and 3 pair up last in this layout; cluster 1 must contain leaf 0
    full = np.array(
        [
            [0, 9, 9, 1.0],
            [9, 0, 2, 9],
            [9, 2, 0, 9],
            [1, 9, 9, 0],
        ]
    )
    part = cut_tree(complete_linkage(dmatrix(full)), 2)
    assert part.assignments.tolist() == [1, 2, 2, 1]


# --- CER ---

def test_cer_hand_cases():
    assert cer(Partition([1, 1, 2, 2], 2), Partition([2, 2, 1, 1], 2)) == 0.0
    assert cer(Partition([1, 1, 2, 2], 2), Partition([1, 2, 1, 2], 2)) == pytest.approx(4 / 6)
    assert cer(Partition([1, 2, 3, 4], 4), Partition([1, 1, 1, 1], 1)) == 1.0


@given(seed=st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_cer_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    p, q = random_partition(rng, n, 3), random_partition(rng, n, 3)
    value = cer(p, q)
    assert 0.0 <= value <= 1.0
    assert cer(q, p) == value
    same = np.array_equal(
        p.assignments[:, None] == p.assignments[None, :],
        q.assignments[:, None] == q.assignments[None, :],
    )
    assert (value == 0.0) == same


def test_cer_relabeling_invariance():
    p = Partition([1, 1, 2, 3, 3], 3)
    relabeled = Partition([3, 3, 1, 2, 2], 3)
    q = Partition([1, 2, 2, 3, 1], 3)
    assert cer(p, q) == cer(relabeled, q)


def test_cer_length_mismatch():
    with pytest.raises(ValidationError):
        cer(Partition([1, 2], 2), Partition([1, 2, 2], 2))


def test_clustering_invariant_under_input_permutation():
    rng = np.random.default_rng(8)
    n = 9
    sq = np.triu(rng.random((n, n)), 1)
    full = sq + sq.T
    perm = rng.permutation(n)
    base = cut_tree(complete_linkage(dmatrix(full)), 3)
    shuffled = cut_tree(
        complete_linkage(dmatrix(full[np.ix_(perm, perm)])), 3
    )
    aligned = np.empty(n, dtype=int)
    aligned[perm] = shuffled.assignments
    assert cer(base, Partition(aligned, shuffled.num_clusters)) == 0.0


def test_cer_sweep_covers_all_cuts():
    rng = np.random.default_rng(9)
    sq = np.triu(rng.random((6, 6)), 1)
    dend = complete_linkage(dmatrix(sq + sq.T))
    truth = Partition([1, 1, 2, 2, 3, 3], 3)
    sweep = cer_sweep(dend, truth)
    assert [k for k, _ in sweep] == [2, 3, 4, 5, 6]
    assert all(0.0 <= v <= 1.0 for _, v in sweep)



@pytest.mark.parametrize("regime", ("integer", "all-equal"))
@pytest.mark.parametrize("seed", range(6))
def test_cer_sweep_equals_cut_by_cut_cer(seed, regime):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    dend = complete_linkage(
        dmatrix(random_distances(rng, n, regime), tuple(f"x{i}" for i in range(n)))
    )
    truth = random_partition(rng, n, int(rng.integers(1, n + 1)))
    expected = [(k, cer(cut_tree(dend, k), truth)) for k in range(2, n + 1)]
    assert cer_sweep(dend, truth) == expected


def test_cer_sweep_rejects_a_truth_of_another_length():
    dend = complete_linkage(dmatrix(THREE_POINT))
    with pytest.raises(ValidationError, match="partition lengths differ: 3 vs 2"):
        cer_sweep(dend, Partition([1, 2], 2))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_cer_matches_pairwise_definition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    p = random_partition(rng, n, int(rng.integers(1, n + 1)))
    q = random_partition(rng, n, int(rng.integers(1, n + 1)))
    assert cer(p, q) == pairwise_cer(p.assignments.tolist(), q.assignments.tolist())

# --- Newick ---

def test_newick_two_leaves():
    dend = Dendrogram(np.array([[0, 1, 1.0, 2]]), ("a", "b"))
    assert to_newick(dend) == "(a:1,b:1);"


def test_newick_three_point_heights():
    dend = complete_linkage(dmatrix(THREE_POINT))
    assert to_newick(dend) == "((a:1,b:1):4,c:5);"


def test_newick_quotes_awkward_ids():
    dend = Dendrogram(np.array([[0, 1, 2.0, 2]]), ("liver 1", "it's"))
    assert to_newick(dend) == "('liver 1':2,'it''s':2);"


def test_dendrogram_rejects_decreasing_heights():
    with pytest.raises(ValidationError):
        Dendrogram(np.array([[0, 1, 3.0, 2], [3, 2, 1.0, 3]]), ("a", "b", "c"))
