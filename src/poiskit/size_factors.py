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

# the statistic each method divides its row statistics by, named by its file key
_NORMALIZER = {"total-count": "grand_total", "quantile": "q_sum", "median-ratio": "m_sum"}


def check_method(name) -> str:
    """``name`` if it is one of the canonical METHODS; anything else raises naming it."""
    if name not in METHODS:
        raise ValidationError(f"unknown size-factor method {name!r} (choose from {METHODS})")
    return name


def canonical_method(name: str) -> str:
    return check_method(_ALIASES.get(name, name))


@dataclass(frozen=True, eq=False)
class SizeFactors:
    """Normalized per-sample scale estimates plus what extends them to new rows.

    A new row's factor is its statistic (total, 75th percentile or median
    ratio) over ``normalizer``, the training statistics' sum. The median
    ratios are to ``geometric_means``, the training geometric means, over
    the ``usable`` features, those positive in every training sample, so
    each of their means must be positive. ``p`` is the feature count. The
    constructor checks every field, so a record built in Python obeys the
    rules a model file does.
    """

    values: np.ndarray
    method: str
    normalizer: float
    p: int
    geometric_means: np.ndarray | None = None
    usable: np.ndarray | None = None

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
        check_method(self.method)
        if not (self.normalizer > 0 and np.isfinite(self.normalizer)):
            raise ValidationError(f"aux {_NORMALIZER[self.method]} must be finite and positive")
        object.__setattr__(self, "normalizer", float(self.normalizer))
        if not (float(self.p).is_integer() and self.p >= 1):
            raise ValidationError(f"aux p must be a positive integer, got {self.p:g}")
        object.__setattr__(self, "p", int(self.p))
        if self.method == "median-ratio":
            for key, dtype in (("geometric_means", np.float64), ("usable", bool)):
                array = np.asarray(getattr(self, key), dtype=dtype)
                if array.shape != (self.p,):
                    raise ValidationError(f"aux {key} must hold {self.p} entries")
                object.__setattr__(self, key, array)
            if not np.all(np.isfinite(self.geometric_means)):
                raise ValidationError("aux geometric_means must be finite")
            if not np.all(self.geometric_means[self.usable] > 0):
                raise ValidationError("aux geometric_means must be positive on usable features")

    def to_json(self) -> dict[str, Any]:
        aux = {}
        if self.method == "median-ratio":
            aux = {"geometric_means": encode_floats(self.geometric_means),
                   "usable": self.usable.tolist()}
        aux |= {_NORMALIZER[self.method]: self.normalizer, "p": self.p}
        return {"values": self.values.tolist(), "method": self.method, "aux": aux}

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "SizeFactors":
        """Decode :meth:`to_json`'s form, checking JSON types; the constructor checks values.

        The per-sample statistics ``aux.q`` and ``aux.m`` of older files are ignored.
        """
        saved = obj["aux"]
        if not isinstance(saved, dict):
            raise ValidationError("aux must be a JSON object")
        method, arrays = check_method(obj["method"]), {}
        if method == "median-ratio":
            check_json_leaves(saved["usable"], "aux usable", (bool,), "booleans")
            arrays = {"geometric_means": json_floats(saved, "geometric_means"),
                      "usable": saved["usable"]}
        normalizer, p = json_number(saved, _NORMALIZER[method]), json_number(saved, "p")
        return SizeFactors(json_numbers(obj, "values"), method, normalizer, p, **arrays)


_STATISTIC = {"total-count": "total count", "quantile": "75th percentile",
              "median-ratio": "median ratio"}


def first_ten(names: list[str], count: int) -> str:
    """The first 10 of ``count`` names, comma-joined, then how many more there are."""
    more = f" and {count - 10} more" if count > 10 else ""
    return ", ".join(names[:10]) + more


def row_statistic(values, method: str, geometric_means=None, usable=None, ids=None) -> np.ndarray:
    """Each row's total, 75th percentile, or median ratio, checked to give a size factor.

    The median ratio is the median of a row's ratios to ``geometric_means``
    over the ``usable`` features, as :class:`SizeFactors` holds them. A size
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
            # the median orders an inf ratio as the huge ratio it is
            stats = np.median(values[:, usable] / geometric_means[usable], axis=1)
    return _check_positive(stats, _STATISTIC[method], ids)


def _check_positive(stats: np.ndarray, what: str, ids=None) -> np.ndarray:
    """``stats``, checked as :func:`row_statistic` describes; ``what`` names them."""
    for kind, bad in (("zero", stats == 0), ("non-finite", ~(stats < np.inf))):
        rows = np.flatnonzero(bad)
        if rows.size:
            names = [str(k) if ids is None else f"'{ids[k]}'" for k in rows[:10]]
            raise ValidationError(
                f"{kind} {what} in {rows.size} of {stats.size} observations: "
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
    arrays = {}
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
        arrays = {"geometric_means": geometric_means, "usable": usable}
    stats = row_statistic(values, method, **arrays, ids=sample_ids)
    with np.errstate(over="ignore"):  # an inf, reported below
        normalizer = float(values.sum() if method == "total-count" else stats.sum())
    if normalizer == np.inf:
        raise ValidationError(f"the {_STATISTIC[method]}s of {stats.size} observations sum to inf")
    return SizeFactors(stats / normalizer, method, normalizer, values.shape[1], **arrays)


def estimate_test_size_factors(
    factors: SizeFactors, rows: np.ndarray, sample_ids=None
) -> np.ndarray:
    """Each row's statistic over the training normalizer: a factor per new observation.

    A row equal to training row i gets that row's factor. ``rows`` must be a
    validated ``(m, p)`` float array; row i's factor is the same bits as
    ``estimate_test_size_factor`` of that row alone. A statistic or factor
    that is zero or not finite raises naming its rows by ``sample_ids``, or
    by index when None.
    """
    stats = row_statistic(rows, factors.method, factors.geometric_means, factors.usable, sample_ids)
    with np.errstate(over="ignore"):  # an inf, reported below
        quotients = stats / factors.normalizer
    return _check_positive(quotients, "size factor", sample_ids)


def estimate_test_size_factor(factors: SizeFactors, x_star: np.ndarray) -> float:
    """:func:`estimate_test_size_factors` of one observation, checked first."""
    x_star = np.ascontiguousarray(x_star, dtype=np.float64)
    p = factors.p
    if x_star.shape != (p,):
        raise ValidationError(f"test observation must hold {p} features, got shape {x_star.shape}")
    if not np.all(np.isfinite(x_star)) or np.any(x_star < 0):
        raise ValidationError("test observations must be finite and nonnegative")
    return float(estimate_test_size_factors(factors, x_star[None, :])[0])
