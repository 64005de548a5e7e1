"""Pairwise dissimilarities for count data under a Poisson working model.

For each pair of observations the rank-one Poisson model is fitted to the
two rows alone (pair-restricted size factors and column totals), per-row
rate ratios are smoothed by a Gamma(beta, beta) prior, and the modified
log likelihood ratio against the shared-rates null is the dissimilarity.
It is zero exactly on identical observations and nonnegative everywhere.

Squared Euclidean distance after size-factor scaling is provided as the
Gaussian-model baseline, and any measure can be applied to features by
transposing the matrix. A ``beta=0`` path plugs in maximum-likelihood rate
ratios instead of posterior means; it exists for validation against the
multinomial likelihood-ratio statistic and is not meant for analysis.

The n x n matrix is stored condensed: entry (i, j) with i < j lives at
linear index n*i - i*(i+1)/2 + (j - i - 1), the diagonal is implicitly
zero, and each pair is computed exactly once, so symmetry is structural.
Row i's pairs (i, j > i) form one contiguous slice, filled a tile at a
time: row i against the next max(1, _TILE_ELEMENTS // p) rows, evaluated
by the vectorized kernel that also computes a single pair. Each thread
allocates one workspace of tile-sized buffers and every kernel step writes
into it, so a tile allocates nothing of its own size; terms that depend on
one row only (totals, 75th percentiles, ``x + beta``) are taken once per
matrix. Threads take whole rows, so they write disjoint slots and never
change the result.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .count_matrix import CountMatrix, format_row, parse_rows
from .errors import ParseError, ValidationError
from .size_factors import canonical_method, estimate_size_factors
from .transform import find_alpha

MEASURES = ("poisson", "sq-euclidean")
_TILE_ELEMENTS = 32_768


def condensed_index(i: int, j: int, n: int) -> int:
    """Linear index of pair (i, j), i < j, in condensed storage."""
    if not 0 <= i < j < n:
        raise ValidationError(f"invalid pair ({i}, {j}) for n={n}")
    return n * i - (i * (i + 1)) // 2 + (j - i - 1)


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix:
    """Symmetric nonnegative dissimilarities with zero diagonal."""

    condensed: np.ndarray
    ids: tuple[str, ...]
    measure: str
    method: str

    def __post_init__(self):
        condensed = np.asarray(self.condensed, dtype=np.float64)
        n = len(self.ids)
        if n < 1 or condensed.shape != (n * (n - 1) // 2,):
            raise ValidationError("condensed length does not match id count")
        if len(set(self.ids)) != n:
            raise ValidationError("ids must be unique")
        if condensed.size and (not np.all(np.isfinite(condensed)) or condensed.min() < 0):
            raise ValidationError("dissimilarities must be finite and nonnegative")
        condensed = condensed + 0.0  # a copy, with any -0.0 turned into 0.0
        condensed.flags.writeable = False
        object.__setattr__(self, "condensed", condensed)
        object.__setattr__(self, "ids", tuple(str(s) for s in self.ids))

    @property
    def n(self) -> int:
        return len(self.ids)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.condensed[condensed_index(i, j, self.n)])

    def full(self) -> np.ndarray:
        """Materialize the symmetric n x n matrix."""
        n = self.n
        out = np.zeros((n, n))
        k = 0
        for i in range(n - 1):
            m = n - 1 - i
            out[i, i + 1 :] = out[i + 1 :, i] = self.condensed[k : k + m]
            k += m
        return out

    @staticmethod
    def from_full(values: np.ndarray, ids, measure: str, method: str) -> "DissimilarityMatrix":
        """Validate and condense a full square matrix."""
        values = np.asarray(values, dtype=np.float64)
        n = len(ids)
        if values.shape != (n, n):
            raise ValidationError("dissimilarity matrix must be square and match ids")
        if not np.array_equal(values, values.T):
            raise ValidationError("dissimilarity matrix is not symmetric")
        if np.any(np.diag(values) != 0):
            raise ValidationError("dissimilarity matrix diagonal must be zero")
        condensed = np.concatenate(
            [values[i, i + 1 :] for i in range(n - 1)]
        ) if n > 1 else np.empty(0)
        return DissimilarityMatrix(condensed, tuple(ids), measure, method)


class _RowError(ValidationError):
    """A pair precondition that fails at row ``row`` of a block."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


_ZERO_ROW_TERM = {"total-count": "zero total count", "quantile": "zero 75th percentile"}


def _row_terms(values: np.ndarray, method: str):
    """Each row's total (total-count) or 75th percentile (quantile); None for median-ratio.

    A pair's size factors under these two methods are its two rows' terms
    over their sum, so the terms are taken once per matrix, not per pair.
    """
    if method == "total-count":
        return values.sum(axis=1)
    if method == "quantile":
        return np.percentile(values, 75, axis=1)
    return None


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
    # ratios to a positive geometric mean are positive, so are their medians
    usable = (x > 0) & (Y > 0)
    bad = ~usable.any(axis=1)
    if bad.any():
        raise _RowError(
            "no feature is positive in both observations; "
            "median-ratio is undefined for this pair",
            int(np.argmax(bad)),
        )
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

    ``terms`` holds :func:`_row_terms` of ``values``, all positive.
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
        # nonnegative up to rounding; snap accumulated round-off to zero
        out[~(out > 0.0)] = 0.0

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
    if np.any(x1 < 0) or np.any(x2 < 0) or not (
        np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))
    ):
        raise ValidationError("count vectors must be finite and nonnegative")
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    method = canonical_method(method)
    pair = np.stack([x1, x2])
    terms = _row_terms(pair, method)
    if terms is not None and not np.all(terms > 0):
        raise ValidationError(f"{_ZERO_ROW_TERM[method]} in pair")
    out = np.empty(1)
    block = _poisson_block(pair, beta, terms)
    block(0, 1, 2, np.empty((_POISSON_BUFFERS, 1, x1.size)), out)
    return float(out[0])


def multinomial_lrt(x_i, x_iprime) -> float:
    """Log likelihood ratio for equal multinomial cell probabilities.

    Conditional on the two totals, the pair of count vectors is multinomial;
    this statistic tests whether both share one probability vector. It
    coincides with the Poisson pair dissimilarity under total-count factors
    and maximum-likelihood plug-ins, which is what the test suite checks.
    """
    x1 = np.asarray(x_i, dtype=np.float64)
    x2 = np.asarray(x_iprime, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValidationError("pair must be two vectors of equal length")
    t1, t2 = float(x1.sum()), float(x2.sum())
    if t1 <= 0 or t2 <= 0:
        raise ValidationError("zero total count in pair")

    def xlx(v: np.ndarray) -> float:
        mask = v > 0
        return float((v[mask] * np.log(v[mask])).sum())

    return (
        xlx(x1)
        + xlx(x2)
        - xlx(x1 + x2)
        + (t1 + t2) * np.log(t1 + t2)
        - t1 * np.log(t1)
        - t2 * np.log(t2)
    )


def _pairwise(values: np.ndarray, ids, block_fn, buffers: int, threads: int | None) -> np.ndarray:
    """Condensed matrix filled by ``block_fn(i, lo, hi, ws, out)``.

    The block writes row i's pairs with rows lo..hi-1 into ``out``, using
    ``ws``, a ``(buffers, hi - lo, p)`` view of the calling thread's own
    workspace, which is allocated once per thread and reused by every tile.
    """
    n, p = values.shape
    condensed = np.empty(n * (n - 1) // 2)
    tile = max(1, min(_TILE_ELEMENTS // p, n - 1))

    def fill(rows):
        workspace = np.empty((buffers, tile, p))
        for i in rows:
            offset = n * i - (i * (i + 1)) // 2 - i - 1  # slot of pair (i, j) is offset + j
            for lo in range(i + 1, n, tile):
                hi = min(lo + tile, n)
                out = condensed[offset + lo : offset + hi]
                try:
                    block_fn(i, lo, hi, workspace[:, : hi - lo], out)
                except _RowError as exc:
                    j = lo + exc.row
                    raise ValidationError(f"pair ('{ids[i]}', '{ids[j]}'): {exc}") from exc

    # the calling thread fills the first share of rows, pool threads the others
    workers = max(1, min(threads or 1, n - 1))
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(fill, range(w, n - 1, workers)) for w in range(1, workers)]
        fill(range(0, n - 1, workers))
        for future in futures:
            future.result()
    return condensed


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
    percentile is zero has no size factor; all such observations are
    named in one error before any pair is computed. Rows of pairs are
    independent; ``threads`` workers, the caller among them, fill them
    concurrently into disjoint slots, so parallel output is bit-identical
    to serial.
    """
    if matrix.n < 2:
        raise ValidationError("dissimilarity needs at least 2 observations")
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    method = canonical_method(method)
    if transform:
        matrix = find_alpha(matrix).matrix
    values = matrix.values
    terms = _row_terms(values, method)
    if terms is not None and not np.all(terms > 0):
        zero = [matrix.sample_ids[k] for k in np.flatnonzero(~(terms > 0))]
        shown = ", ".join(f"'{name}'" for name in zero[:10])
        more = f" and {len(zero) - 10} more" if len(zero) > 10 else ""
        raise ValidationError(
            f"{_ZERO_ROW_TERM[method]} in {len(zero)} of {matrix.n} observations: {shown}{more}"
        )
    block = _poisson_block(values, beta, terms)
    condensed = _pairwise(values, matrix.sample_ids, block, _POISSON_BUFFERS, threads)
    return DissimilarityMatrix(condensed, matrix.sample_ids, "poisson", method)


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

    condensed = _pairwise(scaled, matrix.sample_ids, block, 1, threads)
    return DissimilarityMatrix(condensed, matrix.sample_ids, "sq-euclidean", method)


def feature_dissimilarity_matrix(
    matrix: CountMatrix,
    measure: str = "poisson",
    method: str = "total-count",
    beta: float = 1.0,
    transform: bool = True,
    threads: int | None = None,
) -> DissimilarityMatrix:
    """The chosen measure applied to features: the transposed computation."""
    if measure not in MEASURES:
        raise ValidationError(f"unknown measure '{measure}' (choose from {MEASURES})")
    flipped = matrix.transpose()
    if measure == "poisson":
        return poisson_dissimilarity_matrix(flipped, method, beta, transform, threads)
    return sq_euclidean_dissimilarity_matrix(flipped, method, threads)


def write_dissimilarity(dm: DissimilarityMatrix, path) -> None:
    """Full symmetric TSV plus a JSON sidecar recording measure and method."""
    path = Path(path)
    full = dm.full()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\t" + "\t".join(dm.ids) + "\n")
        for i, sid in enumerate(dm.ids):
            handle.write(sid + "\t" + format_row(full[i]) + "\n")
    sidecar = {"measure": dm.measure, "method": dm.method, "n": dm.n}
    with open(str(path) + ".json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
        handle.write("\n")


def read_dissimilarity(path) -> DissimilarityMatrix:
    """Read a full symmetric TSV written by :func:`write_dissimilarity`.

    The sidecar is consulted when present; otherwise measure and method are
    recorded as "unknown".
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split("\t")
    if header[0] != "id":
        raise ParseError("first header cell must be 'id'", line=1)
    ids = header[1:]
    row_ids, values = parse_rows(lines, len(ids), lambda row_id, exc: str(exc))
    del lines  # the text of an n x n file: free it before from_full copies the values
    if row_ids != ids:
        raise ValidationError("row ids do not match column ids")
    measure, method = "unknown", "unknown"
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        with open(sidecar, encoding="utf-8") as handle:
            try:
                meta = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON in {sidecar}: {exc.msg}", line=exc.lineno) from exc
        if not isinstance(meta, dict):
            raise ValidationError(f"{sidecar}: sidecar must be a JSON object")
        measure = meta.get("measure", measure)
        method = meta.get("method", method)
    return DissimilarityMatrix.from_full(values, ids, measure, method)
