"""Pairwise dissimilarities for count data under a Poisson working model.

For each pair of observations the rank-one Poisson model is fitted to the
two rows alone (pair-restricted size factors and column totals), per-row
rate ratios are smoothed by a Gamma(beta, beta) prior, and the modified
log likelihood ratio against the shared-rates null is the dissimilarity.
It is zero exactly on identical observations and nonnegative everywhere.

Squared Euclidean distance after size-factor scaling is provided as the
Gaussian-model baseline. :func:`dissimilarity_matrix` picks a measure by
name, and measures features when given the transposed matrix. A
``beta=0`` path plugs in maximum-likelihood rate ratios instead of
posterior means; it exists for validation against the multinomial
likelihood-ratio statistic and is not meant for analysis.

The n x n matrix is stored whole, and each pair is computed exactly once:
row i's pairs (i, j > i) are written into row i above the diagonal and
copied into column i below it, so symmetry is structural and the diagonal
stays zero. Row i's pairs are filled a tile at a time: row i against the
next max(1, _TILE_ELEMENTS // p) rows, evaluated by the vectorized kernel
that also computes a single pair. Each thread allocates one workspace of
tile-sized buffers and every kernel step writes into it, so a tile
allocates nothing of its own size; terms that depend on one row only
(totals, 75th percentiles, ``x + beta``) are taken once per matrix. Every
pair's size-factor precondition is checked before the loop, so no tile can
fail; a pair whose arithmetic overflows gets NaN or inf, which
:class:`DissimilarityMatrix` names afterwards. Threads take whole rows, so
they write disjoint slots and never change the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .count_matrix import (
    CountMatrix,
    check_unique,
    read_json_object,
    read_table,
    write_json_object,
    write_table,
)
from .errors import ArgumentError, ValidationError, in_file
from .parallel import map_ordered
from .size_factors import (
    canonical_method,
    check_method,
    estimate_size_factors,
    first_ten,
    row_statistic,
)
from .transform import find_alpha

MEASURES = ("poisson", "sq-euclidean")
_TILE_ELEMENTS = 32_768


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix:
    """Symmetric nonnegative n x n dissimilarities with zero diagonal, read-only.

    An error names the first offending cell in row-major order and its value.
    """

    values: np.ndarray
    ids: tuple[str, ...]
    measure: str
    method: str

    def __post_init__(self):
        values, ids = np.asarray(self.values, dtype=np.float64), self.ids
        n = len(ids)
        if n < 1 or values.shape != (n, n):
            raise ValidationError("dissimilarity matrix must be square and match ids")
        check_unique(ids, "observation")

        def cell(i, j) -> str:
            return f"('{ids[i]}', '{ids[j]}') is {float(values[i, j])}"

        if not (values.min() >= 0 and values.max() < np.inf):  # NaN fails both
            i, j = np.argwhere(~((values >= 0) & (values < np.inf)))[0]
            raise ValidationError(f"dissimilarities must be finite and nonnegative: {cell(i, j)}")
        if not np.array_equal(values, values.T):
            i, j = np.argwhere(values != values.T)[0]
            raise ValidationError(
                f"dissimilarity matrix is not symmetric: {cell(i, j)} but {cell(j, i)}"
            )
        nonzero = np.flatnonzero(np.diag(values))
        if nonzero.size:
            i = nonzero[0]
            raise ValidationError(f"dissimilarity matrix diagonal must be zero: {cell(i, i)}")
        values = values + 0.0  # a copy, with any -0.0 turned into 0.0
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(str(s) for s in ids))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def condensed(self) -> np.ndarray:
        """The upper triangle row by row: pairs (0, 1), (0, 2), ..., (n-2, n-1)."""
        return self.values[np.triu_indices(self.n, 1)]


def _check_beta(beta: float) -> None:
    if not (beta >= 0 and np.isfinite(beta)):
        raise ArgumentError("beta must be finite and nonnegative")


def _pair_terms(values: np.ndarray, ids, method: str):
    """The row statistics of the pairs' size factors, None under median-ratio.

    Raises one error naming every row whose statistic gives no size factor
    (see :func:`row_statistic`) or, under median-ratio, every pair that
    shares no positive feature (the first in row-major order leads).
    """
    if method != "median-ratio":
        return row_statistic(values, method, ids=ids)
    n = values.shape[0]
    positive = (values > 0).astype(np.float32)
    count, first = 0, []
    step = max(1, (1 << 20) // n)  # rows per block of at most 4 MB of float32 products
    for lo in range(0, n - 1, step):
        # common[r, j] > 0 exactly when rows lo + r and j share a positive feature
        common = positive[lo : lo + step] @ positive.T
        rows, cols = np.nonzero(np.triu(common == 0, lo + 1))
        count += rows.size
        first += [f"('{ids[lo + r]}', '{ids[c]}')" for r, c in zip(rows[:10], cols[:10])]
    if count:
        raise ValidationError(
            f"pair {first[0]}: no feature is positive in both observations; "
            f"median-ratio is undefined for {count} of {n * (n - 1) // 2} pairs: "
            + first_ten(first, count)
        )


def _row_medians(ratios: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """``np.median`` of each row's usable entries, given flat in row-major order."""
    padded = np.full(usable.shape, np.inf)
    padded[usable] = ratios
    padded.sort(axis=1)
    m = usable.sum(axis=1)
    rows = np.arange(m.size)
    lo, hi = padded[rows, (m - 1) // 2], padded[rows, m // 2]
    return np.where(m % 2 == 1, lo, (lo + hi) / 2.0)


def _median_ratio_factors(x: np.ndarray, Y: np.ndarray):
    """Pair-restricted median-ratio factors of ``x`` and of each row of ``Y``."""
    # every pair shares a positive feature (see _pair_terms), and ratios to a
    # positive geometric mean are positive, so are their medians
    usable = (x > 0) & (Y > 0)
    X = np.broadcast_to(x, Y.shape)
    gm = np.exp(0.5 * (np.log(X[usable]) + np.log(Y[usable])))
    return _row_medians(X[usable] / gm, usable), _row_medians(Y[usable] / gm, usable)


# (tile, p) float64 buffers in each thread's workspace for the Poisson kernel
_POISSON_BUFFERS = 5


def _xlog_ratio(x: np.ndarray, n_hat: np.ndarray, out: np.ndarray) -> None:
    """out = x * log(x / n_hat) with the 0 log 0 := 0 convention."""
    mask = x > 0
    out.fill(0.0)
    np.divide(x, n_hat, out=out, where=mask)
    np.log(out, out=out, where=mask)
    np.multiply(x, out, out=out, where=mask)


def _poisson_block(values: np.ndarray, beta: float, terms):
    """The Poisson kernel over the rows of ``values``, for :func:`_pairwise`.

    ``terms`` holds :func:`_pair_terms` of ``values``.
    ``block(i, lo, hi, ws, out)`` writes the dissimilarities between row i
    and rows lo..hi-1 into ``out``; every elementwise step writes into the
    ``(_POISSON_BUFFERS, hi - lo, p)`` workspace ``ws``, so a tile
    allocates nothing of its own size.
    """
    # x + beta and y + beta depend on one row each: shift the matrix once
    shifted = values + beta if beta > 0.0 else None

    def block(i, lo, hi, ws, out):
        x, Y = values[i], values[lo:hi]
        if terms is None:
            f1, f2 = _median_ratio_factors(x, Y)
        else:
            f1, f2 = terms[i], terms[lo:hi]
        total = f1 + f2
        s1, s2 = f1 / total, f2 / total
        g, n1, n2, d1, t = ws
        np.add(x, Y, out=g)
        np.multiply(s1[:, None], g, out=n1)
        np.multiply(s2[:, None], g, out=n2)
        if shifted is None:
            # t = (n1 + n2) - g + (x log(x / n1) + y log(y / n2))
            np.add(n1, n2, out=t)
            np.subtract(t, g, out=t)
            _xlog_ratio(x, n1, d1)
            _xlog_ratio(Y, n2, g)
        else:
            # d = (x + beta) / (n + beta);
            # t = (n1 + n2) - (n1 d1 + n2 d2) + (x log d1 + y log d2)
            d2 = g
            np.add(n1, beta, out=d1)
            np.divide(shifted[i], d1, out=d1)
            np.add(n2, beta, out=d2)
            np.divide(shifted[lo:hi], d2, out=d2)
            np.add(n1, n2, out=t)
            np.multiply(n1, d1, out=n1)
            np.multiply(n2, d2, out=n2)
            np.add(n1, n2, out=n1)
            np.subtract(t, n1, out=t)
            np.log(d1, out=d1)
            np.multiply(x, d1, out=d1)
            np.log(d2, out=d2)
            np.multiply(Y, d2, out=d2)
        np.add(d1, g, out=d1)
        np.add(t, d1, out=t)
        t.sum(axis=1, out=out)
        # nonnegative up to rounding; snap accumulated round-off to zero, and
        # leave a NaN from overflowing arithmetic for DissimilarityMatrix to name
        out[out <= 0.0] = 0.0

    return block


def poisson_pair_dissimilarity(
    x_i, x_iprime, method: str = "total-count", beta: float = 1.0
) -> float:
    """Modified log likelihood ratio between two count vectors.

    The model is fitted to the pair alone. ``beta`` smooths the per-row
    rate ratios; ``beta=0`` selects the maximum-likelihood plug-in path
    (validation only). The result is symmetric in its arguments bitwise.
    """
    x1 = np.asarray(x_i, dtype=np.float64)
    x2 = np.asarray(x_iprime, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValidationError("pair must be two vectors of equal length")
    pair = np.stack([x1, x2])
    if not np.all(np.isfinite(pair) & (pair >= 0)):
        raise ValidationError("count vectors must be finite and nonnegative")
    _check_beta(beta)
    ids, method = ("x_i", "x_iprime"), canonical_method(method)
    block = _poisson_block(pair, beta, _pair_terms(pair, ids, method))
    dm = DissimilarityMatrix(_pairwise(pair, block, _POISSON_BUFFERS, 1), ids, "poisson", method)
    return float(dm.values[0, 1])


def _pairwise(values: np.ndarray, block_fn, buffers: int, threads: int | None) -> np.ndarray:
    """Symmetric n x n matrix filled by ``block_fn(i, lo, hi, ws, out)``.

    The block writes row i's pairs with rows lo..hi-1 into ``out``, the
    slice ``[i, lo:hi]``, using ``ws``, a ``(buffers, hi - lo, p)`` view of
    its unit's own workspace; the tile is then copied into column i. Each
    of the ``threads`` units of :func:`poiskit.parallel.map_ordered` takes a
    strided share of the rows, the calling thread the first, and allocates
    its workspace once for every tile of its rows.
    """
    n, p = values.shape
    full = np.zeros((n, n))
    tile = max(1, min(_TILE_ELEMENTS // p, n - 1))
    workers = max(1, min(threads or 1, n - 1))

    def fill(w: int) -> None:
        workspace = np.empty((buffers, tile, p))
        # errstate is per thread; an overflow's inf or NaN is named by DissimilarityMatrix
        with np.errstate(all="ignore"):
            for i in range(w, n - 1, workers):
                for lo in range(i + 1, n, tile):
                    hi = min(lo + tile, n)
                    block_fn(i, lo, hi, workspace[:, : hi - lo], full[i, lo:hi])
                    full[lo:hi, i] = full[i, lo:hi]

    map_ordered(fill, workers, workers)
    return full


def poisson_dissimilarity_matrix(
    matrix: CountMatrix,
    method: str = "total-count",
    beta: float = 1.0,
    transform: bool = True,
    threads: int | None = None,
) -> DissimilarityMatrix:
    """All pairwise Poisson dissimilarities between samples.

    With ``transform`` on, the calibration exponent is estimated once on
    the whole matrix and applied before any pair is touched. Under
    total-count and quantile factors an observation whose total or 75th
    percentile is zero has no size factor, and under median-ratio neither
    has a pair that shares no positive feature; all such observations or
    pairs are named in one error before any pair is computed. Rows of pairs are
    independent; ``threads`` workers, the caller among them, fill them
    concurrently into disjoint slots, so parallel output is bit-identical
    to serial.
    """
    if matrix.n < 2:
        raise ValidationError("dissimilarity needs at least 2 observations")
    _check_beta(beta)
    method = canonical_method(method)
    if transform:
        matrix = find_alpha(matrix).matrix
    values = matrix.values
    block = _poisson_block(values, beta, _pair_terms(values, matrix.sample_ids, method))
    full = _pairwise(values, block, _POISSON_BUFFERS, threads)
    return DissimilarityMatrix(full, matrix.sample_ids, "poisson", method)


def sq_euclidean_dissimilarity_matrix(
    matrix: CountMatrix, method: str = "total-count", threads: int | None = None
) -> DissimilarityMatrix:
    """Squared Euclidean distances after scaling each sample by its size factor.

    Rows of pairs are filled by ``threads`` workers as for the Poisson
    measure, so parallel output is bit-identical to serial.
    """
    if matrix.n < 2:
        raise ValidationError("dissimilarity needs at least 2 observations")
    method = canonical_method(method)
    factors = estimate_size_factors(matrix, method)
    scaled = matrix.values / factors.values[:, None]

    def block(i, lo, hi, ws, out):
        diff = ws[0]
        np.subtract(scaled[i], scaled[lo:hi], out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out)

    full = _pairwise(scaled, block, 1, threads)
    return DissimilarityMatrix(full, matrix.sample_ids, "sq-euclidean", method)


def dissimilarity_matrix(
    matrix: CountMatrix,
    measure: str = "poisson",
    method: str = "total-count",
    beta: float = 1.0,
    transform: bool = True,
    threads: int | None = None,
) -> DissimilarityMatrix:
    """All pairwise dissimilarities between samples under the named measure.

    Features are measured by passing ``matrix.transpose()``. ``beta`` and
    ``transform`` apply to the Poisson measure only.
    """
    # names are looked up at call time, so a rebinding of either builder holds here
    if measure == "poisson":
        return poisson_dissimilarity_matrix(matrix, method, beta, transform, threads)
    elif measure == "sq-euclidean":
        return sq_euclidean_dissimilarity_matrix(matrix, method, threads)
    raise ArgumentError(f"unknown measure '{measure}' (choose from {MEASURES})")


def write_dissimilarity(dm: DissimilarityMatrix, path) -> None:
    """Full symmetric TSV plus a JSON sidecar recording measure and method."""
    write_table(path, dm.ids, dm.ids, dm.values)
    sidecar = {"measure": dm.measure, "method": dm.method, "n": dm.n}
    write_json_object(str(path) + ".json", sidecar)


def read_dissimilarity(path) -> DissimilarityMatrix:
    """Read a full symmetric TSV written by :func:`write_dissimilarity`.

    The sidecar is consulted when present; otherwise measure and method are
    recorded as "unknown". A sidecar's ``measure`` must be one of MEASURES,
    its ``method`` a canonical size-factor method and its ``n`` the number
    of rows of the table; errors name the sidecar.
    """
    meta = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        meta = read_json_object(sidecar, "sidecar must be a JSON object")
    ids, row_ids, values = read_table(path)
    with in_file(path):
        if row_ids != ids:
            raise ValidationError("row ids do not match column ids")
    measure, method = meta.get("measure", "unknown"), meta.get("method", "unknown")
    with in_file(sidecar):
        if "measure" in meta and measure not in MEASURES:
            raise ValidationError(f"unknown measure {measure!r} (choose from {MEASURES})")
        if "method" in meta:
            check_method(method)
        if "n" in meta and not (type(meta["n"]) is int and meta["n"] == len(ids)):
            raise ValidationError(f"n is {meta['n']!r}, but the table has {len(ids)} rows")
    with in_file(path):
        return DissimilarityMatrix(values, ids, measure, method)
