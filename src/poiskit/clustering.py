"""Agglomerative clustering on dissimilarity matrices and the CER metric.

Complete linkage only: the distance between clusters is the largest
dissimilarity across them, which makes merge heights nondecreasing. Nodes
are numbered like linkage matrices elsewhere: leaves 0..n-1, the merge at
step t creates node n+t. Ties in the minimum distance resolve to the
lexicographically smallest (node, node) pair; children of each merge are
recorded with the cluster containing the smallest leaf first.

The linkage keeps one n x n working matrix (O(n^2) memory) whose slots
are reused: a merged cluster takes the lower slot of its two children and
the other slot is set to infinity. Each live row caches only its smallest
distance. The next merge takes the smallest node among the rows at the
global minimum and pairs it with its smallest partner at that distance:
the smallest (node, node) pair at the minimum, which is the tie rule
above. A merge only raises distances, so it rescans only the rows whose
minimum may have risen: the two merged rows, and each row whose minimum
sat in a merged column that now holds more. Under ties the merged column
usually still holds the minimum, so all-equal distances rescan no other
row.

CER counts pairs exactly: pairs together in the prediction, together in
the truth, and together in both. ``cer`` reads them off a contingency
table; ``cer_sweep`` replays the merges once and updates the counts per
merge, at most one step per true class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .count_matrix import Partition, partition_of
from .dissimilarity import DissimilarityMatrix
from .errors import ValidationError

@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Merge tree: (left, right, height, size) per step, plus leaf ids."""

    merges: np.ndarray
    leaf_ids: tuple[str, ...]

    def __post_init__(self):
        merges = np.asarray(self.merges, dtype=np.float64).reshape(-1, 4)
        n = len(self.leaf_ids)
        if merges.shape[0] != max(n - 1, 0):
            raise ValidationError(f"expected {n - 1} merges for {n} leaves")
        heights = merges[:, 2]
        if heights.size and np.any(np.diff(heights) < 0):
            raise ValidationError("merge heights must be nondecreasing")
        merges = merges.copy()
        merges.flags.writeable = False
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "leaf_ids", tuple(str(s) for s in self.leaf_ids))

    @property
    def n(self) -> int:
        return len(self.leaf_ids)

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]


def complete_linkage(d: DissimilarityMatrix) -> Dendrogram:
    """Agglomerate by repeatedly merging the closest pair of clusters."""
    n = d.n
    if n < 2:
        raise ValidationError("clustering needs at least 2 observations")
    dist = d.full()
    np.fill_diagonal(dist, np.inf)
    node = np.arange(n)  # node id held by each slot
    nn_d = dist.min(axis=1)  # each live row's smallest distance
    min_leaf = list(range(n))
    sizes = [1] * n
    merges = np.empty((n - 1, 4))
    for step in range(n - 1):
        height = nn_d.min()
        rows = np.flatnonzero(nn_d == height)
        su = int(rows[node[rows].argmin()])
        partners = np.flatnonzero(dist[su] == height)
        sv = int(partners[node[partners].argmin()])
        u, v, new = int(node[su]), int(node[sv]), n + step
        keep, drop = min(su, sv), max(su, sv)
        merged = np.maximum(dist[su], dist[sv])
        # su and sv are among these; a dead row's inf never exceeds its inf
        stale = np.flatnonzero(((dist[su] == nn_d) | (dist[sv] == nn_d)) & (merged > nn_d))
        dist[keep] = dist[:, keep] = merged
        dist[drop] = dist[:, drop] = np.inf
        node[keep] = new
        nn_d[stale] = dist[stale].min(axis=1)
        left, right = (u, v) if min_leaf[u] <= min_leaf[v] else (v, u)
        merges[step] = (left, right, height, sizes[u] + sizes[v])
        min_leaf.append(min(min_leaf[u], min_leaf[v]))
        sizes.append(sizes[u] + sizes[v])
    return Dendrogram(merges, d.ids)  # which checks the heights are nondecreasing


def cut_tree(dend: Dendrogram, k: int) -> Partition:
    """Partition into k clusters by undoing the last k-1 merges.

    Clusters are numbered 1..k in order of their smallest leaf index.
    """
    n = dend.n
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n - k):
        left, right, _, _ = dend.merges[step]
        new = n + step
        parent[find(int(left))] = new
        parent[find(int(right))] = new
    return partition_of([find(leaf) for leaf in range(n)])


def _check_lengths(n_p: int, n_q: int) -> None:
    if n_p != n_q:
        raise ValidationError(f"partition lengths differ: {n_p} vs {n_q}")
    if n_p < 2:
        raise ValidationError("CER needs at least 2 items")


def _pairs_within(counts: np.ndarray) -> int:
    """Number of unordered pairs inside groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _error_rate(same_p: int, same_q: int, both: int, n: int) -> float:
    """CER from exact pair counts: together in p, together in q, together in both."""
    return (same_p + same_q - 2 * both) / (n * (n - 1) // 2)


def cer(p: Partition, q: Partition) -> float:
    """Clustering error rate: fraction of pairs with disagreeing co-membership.

    Zero iff the partitions agree up to relabeling; one minus the Rand
    index. Pair counts come from the nonzero cells of the contingency
    table of ``p`` against ``q``.
    """
    _check_lengths(p.n, q.n)
    a = p.assignments - 1
    b = q.assignments - 1
    _, cells = np.unique(a * q.num_clusters + b, return_counts=True)
    return _error_rate(
        _pairs_within(np.bincount(a)),
        _pairs_within(np.bincount(b)),
        _pairs_within(cells),
        p.n,
    )


def _merge_error_rates(dend: Dendrogram, truth: Partition) -> list[float]:
    """CER against ``truth`` after each number of merges, 0..n-1.

    Replays the merges once with per-cluster counts of each true class:
    merging clusters A and B adds |A||B| pairs that share a cluster, and
    sum_t A_t B_t of them also share a true class.
    """
    n = dend.n
    _check_lengths(n, truth.n)
    classes: list[dict | None] = [{c: 1} for c in truth.assignments.tolist()]
    sizes = [1] * n
    same_p = both = 0
    same_q = _pairs_within(np.bincount(truth.assignments))
    rates = [_error_rate(same_p, same_q, both, n)]
    for left, right, _, _ in dend.merges.tolist():
        left, right = int(left), int(right)
        big, small = classes[left], classes[right]
        if len(big) < len(small):
            big, small = small, big
        for c, count in small.items():
            both += count * big.get(c, 0)
            big[c] = big.get(c, 0) + count
        same_p += sizes[left] * sizes[right]
        classes[left] = classes[right] = None
        classes.append(big)
        sizes.append(sizes[left] + sizes[right])
        rates.append(_error_rate(same_p, same_q, both, n))
    return rates


def cer_sweep(dend: Dendrogram, truth: Partition) -> list[tuple[int, float]]:
    """CER against a reference partition for each cut size 2..n.

    Equals ``cer(cut_tree(dend, k), truth)`` for every k, from one replay
    of the merges instead of one cut per k.
    """
    n = dend.n
    rates = _merge_error_rates(dend, truth) if n > 1 else []
    return [(k, rates[n - k]) for k in range(2, n + 1)]


def _newick_label(name: str) -> str:
    special = set("()[]':;,")
    if any(ch in special or ch.isspace() for ch in name):
        return "'" + name.replace("'", "''") + "'"
    return name


def _format_length(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(float(x))


def to_newick(dend: Dendrogram) -> str:
    """Newick string with branch lengths taken from merge heights."""
    n = dend.n
    labels = [_newick_label(s) for s in dend.leaf_ids]
    if n == 1:
        return labels[0] + ";"
    text = list(labels) + [""] * (n - 1)
    height = [0.0] * (2 * n - 1)
    for step in range(n - 1):
        left, right, h, _ = dend.merges[step]
        left, right = int(left), int(right)
        parts = (
            f"{text[left]}:{_format_length(h - height[left])}",
            f"{text[right]}:{_format_length(h - height[right])}",
        )
        text[n + step] = "(" + ",".join(parts) + ")"
        height[n + step] = float(h)
    return text[2 * n - 2] + ";"


def write_newick(dend: Dendrogram, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_newick(dend) + "\n")
