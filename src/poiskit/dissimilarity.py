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
next max(1, _TILE_ELEMENTS // w) rows over w = min(p, _FEATURE_BLOCK)
features, by the vectorized kernel that also computes a single pair. A
pair's sums over features add up block after block in feature order, so a
tile's memory does not grow with p, and no dot product is long enough for
OpenBLAS to split it over threads of its own (it does past 10,000
elements).

For ``beta > 0`` the kernel takes the sum over features inside four dot
products, D = (s1 g.(1 - d1) + s2 g.(1 - d2)) + (x.log d1 + y.log d2),
with g = x + y, d = (x + beta) / (s g + beta) and s the pair's shares of
its size factors: 11 elementwise passes over a tile and 4 dot products.
Each thread allocates one workspace of four tile-sized buffers and every
kernel step writes into it, so a tile allocates nothing of its own size.
Terms that depend on one row only (totals, 75th percentiles, ``x + beta``)
are taken once per matrix, and the shares once per row (once per tile
under median-ratio, whose factors come from the tile's rows); row i's
partial sums are combined, clamped at zero and copied into column i once
per row. While it fills rows, a thread sets numpy's ufunc buffer to one
tile row: with the default 8,192 elements numpy copies a broadcast row or
column through the buffer whenever two tile rows fit in it, which halves
the speed of those passes, and a much smaller buffer slows casts such as
a count of booleans.

Every pair's size-factor precondition is checked before the loop, so no
tile can fail; a pair whose arithmetic overflows gets NaN or inf, which
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
_FEATURE_BLOCK = 8_192


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


# (tile, width) float64 buffers in each thread's workspace for the Poisson kernel
_POISSON_BUFFERS = 4


def _xlog_ratio(x: np.ndarray, n_hat: np.ndarray, out: np.ndarray) -> None:
    """out = x * log(x / n_hat) with the 0 log 0 := 0 convention."""
    mask = x > 0
    out.fill(0.0)
    np.divide(x, n_hat, out=out, where=mask)
    np.log(out, out=out, where=mask)
    np.multiply(x, out, out=out, where=mask)


def _shares(f1, f2, out: np.ndarray) -> None:
    """out[0] = f1 / (f1 + f2) and out[1] = f2 / (f1 + f2)."""
    total = f1 + f2
    np.divide(f1, total, out=out[0])
    np.divide(f2, total, out=out[1])


def _poisson_rows(values: np.ndarray, beta: float, terms):
    """The Poisson kernel over the rows of ``values``, for :func:`_pairwise`.

    ``terms`` holds :func:`_pair_terms` of ``values``. ``row(i, ws, out)``
    writes the dissimilarities between row i and rows i+1.. into ``out``;
    every elementwise step writes into the ``(_POISSON_BUFFERS, tile,
    width)`` workspace ``ws``, so a tile allocates nothing of its own size.
    A pair's sums over features add up one feature block after another.
    """
    p = values.shape[1]
    # x + beta and y + beta depend on one row each: shift the matrix once
    shifted = values + beta if beta > 0.0 else None
    sums = 1 if shifted is None else 4

    def row(i, ws, out):
        tile, width = ws.shape[1:]
        x, m = values[i], out.size
        # per pair: its two size-factor shares, its sums and a later block's sums
        acc = np.empty((2 + 2 * sums, m))
        shares, part, more = acc[:2], acc[2 : 2 + sums], acc[2 + sums :]
        if terms is not None:
            _shares(terms[i], terms[i + 1 :], shares)
        for t in range(0, m, tile):
            lo = i + 1 + t
            Y = values[lo : lo + tile]
            k = len(Y)
            if terms is None:
                _shares(*_median_ratio_factors(x, Y), shares[:, t : t + k])
            for a in range(0, p, width):
                b = min(a + width, p)
                xa, Ya = x[a:b], Y[:, a:b]
                g, d, e = ws[0, :k, : b - a], ws[1:3, :k, : b - a], ws[3, :k, : b - a]
                into = (part if a == 0 else more)[:, t : t + k]
                np.add(xa, Ya, out=g)
                np.multiply(shares[:, t : t + k, None], g, out=d)
                if shifted is None:
                    # n = s g; e = (n1 + n2) - g + (x log(x / n1) + y log(y / n2))
                    n1, n2 = d
                    np.add(n1, n2, out=e)
                    np.subtract(e, g, out=e)
                    _xlog_ratio(xa, n1, g)
                    _xlog_ratio(Ya, n2, n1)
                    np.add(g, n1, out=g)
                    np.add(e, g, out=e)
                    e.sum(axis=1, out=into[0])
                else:
                    # d = (x + beta) / (s g + beta); with the sum over features
                    # inside each dot product,
                    # D = (s1 g.(1 - d1) + s2 g.(1 - d2)) + (x.log d1 + y.log d2)
                    np.add(d, beta, out=d)
                    np.divide(shifted[i, a:b], d[0], out=d[0])
                    np.divide(shifted[lo : lo + k, a:b], d[1], out=d[1])
                    for j in (0, 1):
                        np.subtract(1.0, d[j], out=e)
                        np.vecdot(g, e, out=into[j])
                    np.log(d, out=d)
                    np.vecdot(xa, d[0], out=into[2])
                    np.vecdot(Ya, d[1], out=into[3])
                if a > 0:
                    np.add(part[:, t : t + k], into, out=part[:, t : t + k])
        if shifted is None:
            out[:] = part[0]
        else:
            np.multiply(shares, part[:2], out=part[:2])
            np.add(part[0], part[1], out=out)
            np.add(part[2], part[3], out=part[2])
            np.add(out, part[2], out=out)
        # nonnegative up to rounding; snap accumulated round-off to zero, and
        # leave a NaN from overflowing arithmetic for DissimilarityMatrix to name
        out[out <= 0.0] = 0.0

    return row


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
    full = _poisson_pairwise(pair, ids, method, beta, 1)
    return float(DissimilarityMatrix(full, ids, "poisson", method).values[0, 1])


def _poisson_pairwise(values: np.ndarray, ids, method: str, beta: float, threads) -> np.ndarray:
    """The full matrix of Poisson dissimilarities between the rows of ``values``."""
    rows = _poisson_rows(values, beta, _pair_terms(values, ids, method))
    return _pairwise(values, rows, _POISSON_BUFFERS, threads, _FEATURE_BLOCK)


def _pairwise(
    values: np.ndarray, row_fn, buffers: int, threads: int | None, width: int | None = None
) -> np.ndarray:
    """Symmetric n x n matrix filled a row at a time by ``row_fn(i, ws, out)``.

    The kernel writes row i's pairs with rows i+1..n-1 into ``out``, the
    slice ``[i, i+1:]``, a tile of rows at a time, using ``ws``, its unit's
    own ``(buffers, tile, width)`` workspace: ``width`` is at most p (p
    when None) and a tile spans max(1, _TILE_ELEMENTS // width) rows. The
    row is then copied into column i. Each of the ``threads`` units of
    :func:`poiskit.parallel.map_ordered` takes a strided share of the rows,
    the calling thread the first, and allocates its workspace once for
    every row it fills.
    """
    n, p = values.shape
    width = min(p, width or p)
    full = np.zeros((n, n))
    tile = max(1, min(_TILE_ELEMENTS // width, n - 1))
    workers = max(1, min(threads or 1, n - 1))

    def fill(w: int) -> None:
        workspace = np.empty((buffers, tile, width))
        # the buffer size, like errstate, is per thread: one row of the tile
        # (in numpy's multiples of 16) leaves its broadcasts unbuffered
        bufsize = np.setbufsize(min(8_192, -(-width // 16) * 16))
        try:
            # an overflow's inf or NaN is named by DissimilarityMatrix
            with np.errstate(all="ignore"):
                for i in range(w, n - 1, workers):
                    row_fn(i, workspace, full[i, i + 1 :])
                    full[i + 1 :, i] = full[i, i + 1 :]
        finally:
            np.setbufsize(bufsize)

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
    full = _poisson_pairwise(matrix.values, matrix.sample_ids, method, beta, threads)
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

    def row(i, ws, out):
        tile = ws.shape[1]
        for t in range(0, out.size, tile):
            Y = scaled[i + 1 + t : i + 1 + t + tile]
            diff = ws[0, : len(Y)]
            np.subtract(scaled[i], Y, out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=1, out=out[t : t + len(Y)])

    full = _pairwise(scaled, row, 1, threads)
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
    ``transform`` apply to the Poisson measure only, but ``beta`` is
    checked under either measure.
    """
    _check_beta(beta)
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
