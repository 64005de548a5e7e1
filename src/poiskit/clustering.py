"""Agglomerative clustering on dissimilarity matrices and the CER metric.

Complete linkage only: the distance between clusters is the largest
dissimilarity across them, which makes merge heights nondecreasing. Nodes
are numbered like linkage matrices elsewhere: leaves 0..n-1, the merge at
step t creates node n+t. Ties in the minimum distance resolve to the
lexicographically smallest (node, node) pair; children of each merge are
recorded with the cluster containing the smallest leaf first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .count_matrix import Partition
from .dissimilarity import DissimilarityMatrix
from .errors import PoiskitError, ValidationError

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
    dist = np.zeros((2 * n - 1, 2 * n - 1))
    dist[:n, :n] = d.full()
    active = list(range(n))
    min_leaf = list(range(n))
    sizes = [1] * n
    merges = np.empty((n - 1, 4))
    for step in range(n - 1):
        best_d, best_u, best_v = np.inf, -1, -1
        for ai in range(len(active)):
            u = active[ai]
            for bi in range(ai + 1, len(active)):
                v = active[bi]
                duv = dist[u, v]
                if duv < best_d:
                    best_d, best_u, best_v = duv, u, v
        u, v = best_u, best_v
        new = n + step
        for x in active:
            if x != u and x != v:
                merged = max(dist[u, x], dist[v, x])
                dist[new, x] = merged
                dist[x, new] = merged
        active.remove(u)
        active.remove(v)
        active.append(new)
        left, right = (u, v) if min_leaf[u] <= min_leaf[v] else (v, u)
        merges[step] = (left, right, best_d, sizes[u] + sizes[v])
        min_leaf.append(min(min_leaf[u], min_leaf[v]))
        sizes.append(sizes[u] + sizes[v])
    heights = merges[:, 2]
    if np.any(np.diff(heights) < 0):
        raise PoiskitError("internal error: merge heights decreased")
    return Dendrogram(merges, d.ids)


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
    numbers: dict[int, int] = {}
    assignments = np.empty(n, dtype=np.int64)
    for leaf in range(n):
        root = find(leaf)
        if root not in numbers:
            numbers[root] = len(numbers) + 1
        assignments[leaf] = numbers[root]
    return Partition(assignments, num_clusters=len(numbers))


def cer(p: Partition, q: Partition) -> float:
    """Clustering error rate: fraction of pairs with disagreeing co-membership.

    Zero iff the partitions agree up to relabeling; one minus the Rand
    index.
    """
    if p.n != q.n:
        raise ValidationError(f"partition lengths differ: {p.n} vs {q.n}")
    n = p.n
    if n < 2:
        raise ValidationError("CER needs at least 2 items")
    a = p.assignments
    b = q.assignments
    same_p = a[:, None] == a[None, :]
    same_q = b[:, None] == b[None, :]
    iu = np.triu_indices(n, k=1)
    disagreements = int(np.count_nonzero(same_p[iu] != same_q[iu]))
    return disagreements / (n * (n - 1) // 2)


def cer_sweep(dend: Dendrogram, truth: Partition, ks=None) -> list[tuple[int, float]]:
    """CER against a reference partition for each cut size (default 2..n)."""
    if ks is None:
        ks = range(2, dend.n + 1)
    return [(int(k), cer(cut_tree(dend, int(k)), truth)) for k in ks]


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
