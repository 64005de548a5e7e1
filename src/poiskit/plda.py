"""Poisson linear discriminant analysis with optional feature shrinkage.

The classifier models counts as Poisson with a per-sample scale, a
per-feature baseline, and class-specific rate ratios. Fitting estimates the
baseline from column totals, forms offsets from the chosen size factors,
and smooths each class rate ratio with a Gamma(beta, beta) prior so ratios
stay strictly positive. A nonnegative tuning parameter ``rho``
soft-thresholds the ratios toward one; features whose ratios all equal one
drop out of the decision rule, giving the sparse variant. ``rho = 0``
reproduces the plain posterior-mean ratios exactly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .count_matrix import CountMatrix, LabeledDataset
from .errors import ParseError, ValidationError
from .size_factors import (
    SizeFactors,
    canonical_method,
    estimate_test_size_factor,
    size_factors_of,
)
from .transform import calibrate

PRIOR_MODES = ("uniform", "empirical")


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def shrunken_ratios(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Rate ratios a/b pulled toward 1 by rho / sqrt(b).

    Equal bit for bit to the three-branch form ``ratio - thr`` where
    ``ratio - 1 > thr``, ``ratio + thr`` where ``1 - ratio > thr`` and 1
    elsewhere, so rho = 0 returns a/b bitwise (subtracting a zero threshold
    is exact) rather than the algebraically equal
    1 + soft_threshold(a/b - 1, 0), which reassociates the arithmetic.
    """
    return _ratio_shrinker(a, b)(rho)[0].copy()


def _ratio_shrinker(a: np.ndarray, b: np.ndarray):
    """``rho -> (d, log d)`` with d = ``shrunken_ratios(a, b, rho)``.

    Every rho-free term is computed once, and every call writes into the
    same workspaces, so the arrays returned are overwritten by the next
    call. The threshold takes the sign of ``ratio - 1`` before it is
    subtracted: ``ratio - (-thr)`` equals ``ratio + thr`` exactly, so one
    subtraction gives both shrinking branches. As in the three-branch form,
    an infinite or NaN rho shrinks every ratio to 1.
    """
    ratio = a / b
    dev = ratio - 1.0
    abs_dev = np.abs(dev)
    # +1 where dev == 0: np.sign's 0 there would meet an infinite thr as 0 * inf
    sign = np.copysign(1.0, dev)
    sqrt_b = np.sqrt(b)
    thr = np.empty_like(ratio)
    d = np.empty_like(ratio)
    log_d = np.empty_like(ratio)
    active = np.empty(ratio.shape, dtype=bool)
    inactive = np.empty(ratio.shape, dtype=bool)

    def at(rho: float) -> tuple[np.ndarray, np.ndarray]:
        np.divide(rho, sqrt_b, out=thr)
        np.greater(abs_dev, thr, out=active)
        np.multiply(thr, sign, out=thr)
        np.subtract(ratio, thr, out=d)
        np.copyto(d, 1.0, where=np.logical_not(active, out=inactive))
        np.log(d, out=log_d)
        return d, log_d

    return at


def _nonzero_features(d_hat: np.ndarray) -> int:
    return int(np.any(d_hat != 1.0, axis=0).sum())


@dataclass(frozen=True, eq=False)
class PldaModel:
    """Fitted classifier state.

    ``g_hat`` and ``d_hat`` live on the transformed scale when
    ``alpha < 1``; prediction applies the same exponent to incoming
    observations. ``size_factors`` carries the training statistics needed
    to scale a new observation; it may be None for models assembled
    directly from known parameters, in which case ``predict`` requires an
    explicit ``s_star``. ``n_hat_class_sums`` (per-class summed offsets) is
    retained for diagnostics.
    """

    g_hat: np.ndarray
    d_hat: np.ndarray
    n_hat_class_sums: np.ndarray
    priors: np.ndarray
    beta: float
    rho: float
    size_factors: SizeFactors | None
    alpha: float
    class_names: tuple[str, ...]
    feature_ids: tuple[str, ...] = ()

    def __post_init__(self):
        g = np.asarray(self.g_hat, dtype=np.float64)
        d = np.asarray(self.d_hat, dtype=np.float64)
        nsum = np.asarray(self.n_hat_class_sums, dtype=np.float64)
        priors = np.asarray(self.priors, dtype=np.float64)
        if g.ndim != 1:
            raise ValidationError("g_hat must be a vector")
        K, p = d.shape if d.ndim == 2 else (0, -1)
        if p != g.size or nsum.shape != (K, p):
            raise ValidationError("d_hat and n_hat_class_sums must be K x p")
        if not np.all(d > 0):
            raise ValidationError("all rate ratios must be strictly positive")
        if priors.shape != (K,) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValidationError("priors must be K values summing to 1")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.rho < 0:
            raise ValidationError("rho must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")
        if len(self.class_names) != K:
            raise ValidationError("class_names length must equal K")
        for arr in (g, d, nsum, priors):
            arr.flags.writeable = False
        object.__setattr__(self, "g_hat", g)
        object.__setattr__(self, "d_hat", d)
        object.__setattr__(self, "n_hat_class_sums", nsum)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        # cached score ingredients
        object.__setattr__(self, "_log_d", np.log(d))
        object.__setattr__(self, "_offsets", d @ g)
        object.__setattr__(self, "_log_priors", np.log(priors))

    @property
    def K(self) -> int:
        return self.d_hat.shape[0]

    @property
    def p(self) -> int:
        return self.d_hat.shape[1]

    def nonzero_features(self) -> int:
        """Number of features whose ratios are not fully shrunken to 1."""
        return _nonzero_features(self.d_hat)

    def to_json(self) -> dict[str, Any]:
        return {
            "format": "plda-model",
            "size_factor_method": None if self.size_factors is None else self.size_factors.method,
            "size_factors": None if self.size_factors is None else self.size_factors.to_json(),
            "alpha": self.alpha,
            "beta": self.beta,
            "rho": self.rho,
            "priors": self.priors.tolist(),
            "class_names": list(self.class_names),
            "feature_ids": list(self.feature_ids),
            "g_hat": self.g_hat.tolist(),
            "d_hat": self.d_hat.tolist(),
            "n_hat_class_sums": self.n_hat_class_sums.tolist(),
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "PldaModel":
        if not isinstance(obj, dict) or obj.get("format") != "plda-model":
            raise ValidationError("not a classifier model file")
        sf = None if obj["size_factors"] is None else SizeFactors.from_json(obj["size_factors"])
        return PldaModel(
            g_hat=np.asarray(obj["g_hat"]),
            d_hat=np.asarray(obj["d_hat"]),
            n_hat_class_sums=np.asarray(obj["n_hat_class_sums"]),
            priors=np.asarray(obj["priors"]),
            beta=obj["beta"],
            rho=obj["rho"],
            size_factors=sf,
            alpha=obj["alpha"],
            class_names=tuple(obj["class_names"]),
            feature_ids=tuple(obj["feature_ids"]),
        )


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted class with per-class scores and normalized posterior."""

    class_index: int
    scores: np.ndarray
    posterior: np.ndarray


@dataclass(frozen=True, eq=False)
class FitStats:
    """Shared fit state reused across the shrinkage grid."""

    alpha: float
    size_factors: SizeFactors
    g_hat: np.ndarray
    a: np.ndarray
    b: np.ndarray
    n_hat_class_sums: np.ndarray
    priors: np.ndarray
    class_names: tuple[str, ...]
    feature_ids: tuple[str, ...]
    beta: float


def _fit_stats(
    data: LabeledDataset,
    method: str,
    beta: float,
    prior_mode: str,
    transform: bool,
    rows: np.ndarray | None = None,
) -> FitStats:
    """Fit state of the samples ``rows`` of ``data`` (all when None), on plain arrays."""
    if data.K < 2:
        raise ValidationError("classification needs at least 2 classes")
    if beta <= 0:
        raise ValidationError("beta must be positive")
    if prior_mode not in PRIOR_MODES:
        raise ValidationError(f"prior_mode must be one of {PRIOR_MODES}")
    method = canonical_method(method)

    values, labels, sample_ids = data.matrix.values, data.labels, data.matrix.sample_ids
    if rows is not None:
        values, labels = values[rows], labels[rows]
        sample_ids = [sample_ids[i] for i in rows]
    alpha = 1.0
    if transform:
        calibration = calibrate(values)
        alpha, values = calibration.alpha, calibration.values

    factors = size_factors_of(values, sample_ids, method)
    g_hat = values.sum(axis=0)
    K, p = data.K, values.shape[1]
    x_class = np.empty((K, p))
    s_class = np.empty(K)
    counts = np.empty(K)
    for k in range(1, K + 1):
        idx = np.flatnonzero(labels == k)
        x_class[k - 1] = values[idx].sum(axis=0)
        s_class[k - 1] = factors.values[idx].sum()
        counts[k - 1] = idx.size
    n_hat_class_sums = s_class[:, None] * g_hat[None, :]
    a = x_class + beta
    b = n_hat_class_sums + beta
    if prior_mode == "uniform":
        priors = np.full(K, 1.0 / K)
    else:
        priors = counts / counts.sum()
    return FitStats(
        alpha=alpha,
        size_factors=factors,
        g_hat=g_hat,
        a=a,
        b=b,
        n_hat_class_sums=n_hat_class_sums,
        priors=priors,
        class_names=data.class_names,
        feature_ids=data.matrix.feature_ids,
        beta=beta,
    )


def _model_from_stats(stats: FitStats, rho: float) -> PldaModel:
    return PldaModel(
        g_hat=stats.g_hat,
        d_hat=shrunken_ratios(stats.a, stats.b, rho),
        n_hat_class_sums=stats.n_hat_class_sums,
        priors=stats.priors,
        beta=stats.beta,
        rho=rho,
        size_factors=stats.size_factors,
        alpha=stats.alpha,
        class_names=stats.class_names,
        feature_ids=stats.feature_ids,
    )


def fit(
    data: LabeledDataset,
    method: str = "total-count",
    rho: float = 0.0,
    beta: float = 1.0,
    prior_mode: str = "uniform",
    transform: bool = True,
) -> PldaModel:
    """Fit the classifier on labeled counts.

    With ``transform`` on, the calibration exponent is found and applied
    before any estimation. Size factors, the feature baseline, and the
    per-class rate ratios are then estimated on the (possibly transformed)
    matrix, and ratios are shrunk toward 1 by ``rho``.
    """
    if rho < 0:
        raise ValidationError("rho must be nonnegative")
    return _model_from_stats(_fit_stats(data, method, beta, prior_mode, transform), rho)


def _score_rows(rows, s_stars, log_d, offsets, log_priors) -> np.ndarray:
    """Class scores for already-transformed rows; one row per observation."""
    return rows @ log_d.T - np.outer(s_stars, offsets) + log_priors


def predict(model: PldaModel, x_star, s_star: float | None = None) -> Prediction:
    """Classify one observation of raw (untransformed) counts.

    The model's exponent is applied first, then the observation's size
    factor is estimated from the training statistics unless ``s_star`` is
    supplied (useful when the true scale is known, e.g. in simulations).
    Ties in the scores resolve to the lowest class index.
    """
    x = np.asarray(x_star, dtype=np.float64)
    if x.shape != (model.p,):
        raise ValidationError(f"observation has {x.size} features, model expects {model.p}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValidationError("observation must be finite and nonnegative")
    if model.alpha != 1.0:
        x = x**model.alpha
    if s_star is None:
        if model.size_factors is None:
            raise ValidationError("model carries no size-factor statistics; pass s_star")
        s_star = estimate_test_size_factor(model.size_factors, x)
    if s_star <= 0:
        raise ValidationError("s_star must be positive")
    scores = _score_rows(
        x[None, :], np.array([float(s_star)]), model._log_d, model._offsets, model._log_priors
    )[0]
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    return Prediction(
        class_index=int(np.argmax(scores)) + 1,
        scores=scores,
        posterior=weights / weights.sum(),
    )


def predict_matrix(model: PldaModel, matrix: CountMatrix) -> list[Prediction]:
    """Classify every row of a count matrix.

    Feature ids are checked against the model's when both sides carry them.
    """
    if model.feature_ids and matrix.feature_ids != model.feature_ids:
        if matrix.p != model.p:
            raise ValidationError(
                f"matrix has {matrix.p} features, model expects {model.p}"
            )
        raise ValidationError("matrix feature ids do not match the model's features")
    return [predict(model, row) for row in matrix.values]


def shrinkage_upper_bound(stats: FitStats) -> float:
    """Smallest rho at which every rate ratio shrinks all the way to 1."""
    return float(np.max(np.sqrt(stats.b) * np.abs(stats.a / stats.b - 1.0)))


def default_rho_grid(
    data: LabeledDataset,
    method: str = "total-count",
    beta: float = 1.0,
    transform: bool = True,
    size: int = 30,
) -> np.ndarray:
    """0 plus a geometric sweep up to the full-shrinkage bound of the data."""
    return _rho_grid(_fit_stats(data, method, beta, "uniform", transform), size)


def _rho_grid(stats: FitStats, size: int = 30) -> np.ndarray:
    bound = shrinkage_upper_bound(stats)
    if bound <= 0:
        return np.array([0.0])
    return np.concatenate([[0.0], np.geomspace(1e-3 * bound, bound, size - 1)])


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> tuple[np.ndarray, int]:
    """Deterministic stratified fold assignment.

    Each class's members are shuffled and dealt round-robin. If the
    smallest class has fewer members than ``folds``, the fold count is
    reduced to that size (with a warning); below 2 the split is degenerate.
    """
    if folds < 2:
        raise ValidationError("folds must be at least 2")
    labels = np.asarray(labels)
    class_sizes = np.bincount(labels)[1:]
    smallest = int(class_sizes.min())
    if smallest < 2:
        raise ValidationError(
            "stratified folds are degenerate: a class has fewer than 2 members"
        )
    effective = folds
    if smallest < folds:
        effective = smallest
        warnings.warn(
            f"reducing folds from {folds} to {effective}: smallest class has "
            f"{smallest} members",
            RuntimeWarning,
        )
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=np.int64)
    for k in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == k))
        fold_of[idx] = np.arange(idx.size) % effective
    return fold_of, effective


@dataclass(frozen=True, eq=False)
class CrossValidationResult:
    """Held-out performance over the shrinkage grid.

    ``errors`` counts misclassifications pooled over folds; ``error_rate``
    divides by n. ``nonzero_features`` is the mean over folds of the number
    of features active in the decision rule. ``selected_rho`` is the
    smallest grid value attaining the minimum error, and ``model`` is the
    classifier fitted on all of the data at that value, equal to
    ``fit(data, rho=selected_rho)`` with the same settings.
    ``fold_alphas`` holds the transform exponent fitted on each fold's
    training portion (1.0 throughout with the transform off).
    """

    rho_grid: np.ndarray
    errors: np.ndarray
    error_rate: np.ndarray
    nonzero_features: np.ndarray
    selected_rho: float
    folds: int
    seed: int
    model: PldaModel
    fold_alphas: tuple[float, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "rho_grid": self.rho_grid.tolist(),
            "errors": self.errors.tolist(),
            "error_rate": self.error_rate.tolist(),
            "nonzero_features": self.nonzero_features.tolist(),
            "selected_rho": self.selected_rho,
            "folds": self.folds,
            "seed": self.seed,
            "fold_alphas": list(self.fold_alphas),
        }


def _sweep_fold(
    train: FitStats,
    test_rows: np.ndarray,
    truth: np.ndarray,
    grid: np.ndarray,
    errors: np.ndarray,
    nonzero: np.ndarray,
) -> None:
    """Add one fold's held-out errors and active features at each rho to the totals.

    ``test_rows`` are already transformed. The shrinker's workspaces live
    only for this call, so no two folds hold them at once.
    """
    s_stars = np.array([estimate_test_size_factor(train.size_factors, row) for row in test_rows])
    shrunk = _ratio_shrinker(train.a, train.b)
    log_priors = np.log(train.priors)
    for r, rho in enumerate(grid):
        d, log_d = shrunk(rho)
        scores = _score_rows(test_rows, s_stars, log_d, d @ train.g_hat, log_priors)
        predicted = np.argmax(scores, axis=1) + 1
        errors[r] += int((predicted != truth).sum())
        nonzero[r] += _nonzero_features(d)


def cross_validate(
    data: LabeledDataset,
    method: str = "total-count",
    rho_grid: Sequence[float] | None = None,
    folds: int = 5,
    seed: int = 0,
    prior_mode: str = "uniform",
    transform: bool = True,
    beta: float = 1.0,
) -> CrossValidationResult:
    """Stratified cross-validation over the shrinkage grid.

    Every fold re-estimates the transform exponent and all parameters on
    its training portion alone, so no information leaks from held-out
    samples into the fit. The fit on all of the data gives the default
    grid and the returned model.
    """
    if rho_grid is not None:
        grid = np.asarray(sorted(float(r) for r in rho_grid), dtype=np.float64)
        if grid.size == 0:
            raise ValidationError("rho grid must be nonempty")
        if grid[0] < 0:
            raise ValidationError("rho values must be nonnegative")
    stats = _fit_stats(data, method, beta, prior_mode, transform)
    if rho_grid is None:
        grid = _rho_grid(stats)
    fold_of, effective = stratified_folds(data.labels, folds, seed)

    errors = np.zeros(grid.size, dtype=np.int64)
    nonzero = np.zeros(grid.size, dtype=np.float64)
    fold_alphas = []
    for f in range(effective):
        test_idx = np.flatnonzero(fold_of == f)
        train = _fit_stats(
            data, method, beta, prior_mode, transform, rows=np.flatnonzero(fold_of != f)
        )
        fold_alphas.append(train.alpha)
        test_raw = data.matrix.values[test_idx]
        test_rows = test_raw if train.alpha == 1.0 else test_raw**train.alpha
        _sweep_fold(train, test_rows, data.labels[test_idx], grid, errors, nonzero)
    nonzero /= effective
    best = int(np.argmin(errors))
    selected = float(grid[best])
    return CrossValidationResult(
        rho_grid=grid,
        errors=errors,
        error_rate=errors / data.matrix.n,
        nonzero_features=nonzero,
        selected_rho=selected,
        folds=effective,
        seed=seed,
        model=_model_from_stats(stats, selected),
        fold_alphas=tuple(fold_alphas),
    )


def write_model(model: PldaModel, path) -> None:
    """Write ``json.dump(model.to_json())`` and a newline.

    Each field is encoded by ``json.dumps``, which runs the C encoder that
    ``json.dump`` skips; one string per field keeps the peak memory at the
    largest field rather than the whole document.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        for i, (key, value) in enumerate(model.to_json().items()):
            handle.write((", " if i else "") + json.dumps(key) + ": " + json.dumps(value))
        handle.write("}\n")


def read_model(path) -> PldaModel:
    """Load a model file; malformed content raises an error naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    try:
        return PldaModel.from_json(obj)
    except KeyError as exc:
        raise ValidationError(f"{path}: model has no {exc} field") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
