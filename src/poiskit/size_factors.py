"""Per-sample size factor estimation.

Three estimators are provided, all normalized to sum to one across the
training samples:

* total-count: row total divided by the grand total.
* median-ratio: median over features of the count divided by the feature's
  geometric mean across samples; features with any zero count are excluded
  because their geometric mean vanishes.
* quantile: the 75th percentile of each sample's counts (linear
  interpolation at rank 1 + (p-1)*0.75, the numpy default).

Each estimator records the training statistics needed to extend itself to a
new observation without revisiting the training matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .count_matrix import (
    CountMatrix,
    check_json_leaves,
    encode_floats,
    json_floats,
    json_number,
    json_numbers,
)
from .errors import ValidationError

METHODS = ("total-count", "quantile", "median-ratio")

_ALIASES = {"total": "total-count", "tc": "total-count", "mr": "median-ratio", "q": "quantile"}


def canonical_method(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in METHODS:
        raise ValidationError(f"unknown size-factor method '{name}' (choose from {METHODS})")
    return name


@dataclass(frozen=True, eq=False)
class SizeFactors:
    """Normalized per-sample scale estimates plus extension statistics.

    ``aux`` holds what `estimate_test_size_factors` needs per method:
    the training grand total (total-count), per-sample quantiles and their
    sum (quantile), or per-feature geometric means, the usable-feature mask,
    and per-sample medians with their sum (median-ratio). All methods also
    record ``p``, the feature count, for input validation.
    """

    values: np.ndarray
    method: str
    aux: dict[str, Any]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("size factors must be a nonempty vector")
        if not np.all(values > 0):
            raise ValidationError("size factors must be strictly positive")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValidationError("size factors must sum to 1")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.method not in METHODS:
            raise ValidationError(f"unknown size-factor method '{self.method}'")

    def to_json(self) -> dict[str, Any]:
        aux = {key: _aux_json(key, val) for key, val in self.aux.items()}
        return {"values": self.values.tolist(), "method": self.method, "aux": aux}

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "SizeFactors":
        """Rebuild from :meth:`to_json`, checking each ``aux`` entry a test factor reads.

        Every float entry must be finite, the normalizer positive and ``p`` a
        positive integer.
        """
        if not isinstance(obj["aux"], dict):
            raise ValidationError("aux must be a JSON object")
        method, aux = canonical_method(obj["method"]), dict(obj["aux"])
        normalizer = _NORMALIZER[method]
        aux[normalizer] = json_number(aux, normalizer)
        if not (aux[normalizer] > 0 and np.isfinite(aux[normalizer])):
            raise ValidationError(f"aux {normalizer} must be finite and positive")
        p = json_number(aux, "p")
        if not (p.is_integer() and p >= 1):
            raise ValidationError(f"aux p must be a positive integer, got {p}")
        for key in ("geometric_means", "m", "q"):
            if key in aux:
                aux[key] = json_floats(aux, key)
                if not np.all(np.isfinite(aux[key])):
                    raise ValidationError(f"aux {key} must be finite")
        if "usable" in aux:
            check_json_leaves(aux["usable"], "aux usable", (bool,), "booleans")
            aux["usable"] = np.asarray(aux["usable"], dtype=bool)
        for key in ("geometric_means", "usable") if method == "median-ratio" else ():
            if aux[key].shape != (p,):
                raise ValidationError(f"aux {key} must hold {p:g} entries")
        return SizeFactors(json_numbers(obj, "values"), method, aux)


def _aux_json(key: str, val):
    """An ``aux`` entry as JSON: the per-feature geometric means as one base64 string."""
    if key == "geometric_means":
        return encode_floats(val)
    return val.tolist() if isinstance(val, np.ndarray) else val


_STATISTIC = {
    "total-count": "total count",
    "quantile": "75th percentile",
    "median-ratio": "median ratio",
}

# the aux entry each method divides its row statistics by
_NORMALIZER = {"total-count": "grand_total", "quantile": "q_sum", "median-ratio": "m_sum"}


def first_ten(names: list[str], count: int) -> str:
    """The first 10 of ``count`` names, comma-joined, then how many more there are."""
    more = f" and {count - 10} more" if count > 10 else ""
    return ", ".join(names[:10]) + more


def row_statistic(values: np.ndarray, method: str, aux=None, ids=None) -> np.ndarray:
    """Each row's total, 75th percentile, or median ratio, checked to give a size factor.

    The median-ratio statistic takes the usable features of ``aux``. A size
    factor is its row's statistic over a normalizer, so the statistic must
    be positive and finite. Otherwise this raises naming the rows by
    ``ids``, or by index when ``ids`` is None: the zeros first, as in
    ``zero total count in 2 of 9 observations: 's1', 's4'``, then the
    rest, as in ``non-finite total count in 1 of 4 observations: 's1'``.
    """
    with np.errstate(over="ignore"):  # an inf, reported below as non-finite
        if method == "total-count":
            stats = values.sum(axis=1)
        elif method == "quantile":
            stats = np.percentile(values, 75, axis=1)
        else:
            usable = aux["usable"]
            # the median orders an inf ratio as the huge ratio it is
            stats = np.median(values[:, usable] / aux["geometric_means"][usable], axis=1)
    for what, bad in (("zero", stats == 0), ("non-finite", ~(stats < np.inf))):
        rows = np.flatnonzero(bad)
        if rows.size:
            names = [str(k) if ids is None else f"'{ids[k]}'" for k in rows[:10]]
            raise ValidationError(
                f"{what} {_STATISTIC[method]} in {rows.size} of {stats.size} observations: "
                + first_ten(names, rows.size)
            )
    return stats


def estimate_size_factors(matrix: CountMatrix, method: str) -> SizeFactors:
    """Size factors of the samples of ``matrix`` under the named method."""
    return size_factors_of(matrix.values, matrix.sample_ids, method)


def size_factors_of(values: np.ndarray, sample_ids, method: str) -> SizeFactors:
    """:func:`estimate_size_factors` on a validated value array.

    ``sample_ids`` name the rows in error messages.
    """
    method = canonical_method(method)
    aux = {}
    if method == "median-ratio":
        usable = np.all(values > 0, axis=0)
        if not usable.any():
            raise ValidationError(
                "no feature has positive counts in every sample; "
                "median-ratio factors are undefined, try total-count or quantile"
            )
        geometric_means = np.zeros(values.shape[1])
        # geometric means in log space to avoid overflow at large p
        geometric_means[usable] = np.exp(np.mean(np.log(values[:, usable]), axis=0))
        aux = {"geometric_means": geometric_means, "usable": usable}
    stats = row_statistic(values, method, aux, sample_ids)
    with np.errstate(over="ignore"):  # an inf, reported below
        normalizer = float(values.sum() if method == "total-count" else stats.sum())
    if normalizer == np.inf:
        raise ValidationError(f"the {_STATISTIC[method]}s of {stats.size} observations sum to inf")
    if method != "total-count":
        aux["q" if method == "quantile" else "m"] = stats
    aux[_NORMALIZER[method]] = normalizer
    aux["p"] = values.shape[1]
    return SizeFactors(stats / normalizer, method, aux)


def estimate_test_size_factors(
    factors: SizeFactors, rows: np.ndarray, sample_ids=None
) -> np.ndarray:
    """Extend training size factors to new observations, one per row of ``rows``.

    Applies the training estimator's defining statistic to each row and
    scales it by the training normalizer, so a test observation equal to
    training row i receives that row's (unnormalized-consistent) factor.
    Row i's factor is the same bits as ``estimate_test_size_factor`` of
    that row alone. ``sample_ids`` name the rows in error messages, which
    otherwise give the row index.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    p = factors.aux["p"]
    if rows.ndim != 2 or rows.shape[1] != p:
        raise ValidationError(f"test observations have {rows.shape[-1]} features, expected {p}")
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise ValidationError("test observations must be finite and nonnegative")
    stats = row_statistic(rows, factors.method, factors.aux, sample_ids)
    return stats / factors.aux[_NORMALIZER[factors.method]]


def estimate_test_size_factor(factors: SizeFactors, x_star: np.ndarray) -> float:
    """:func:`estimate_test_size_factors` of one observation."""
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.ndim != 1:
        raise ValidationError("test observation must be a vector")
    return float(estimate_test_size_factors(factors, x_star[None, :])[0])
