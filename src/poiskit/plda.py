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

from dataclasses import dataclass, fields
from typing import Any, Sequence

import numpy as np

from .count_matrix import (
    CountMatrix,
    LabeledDataset,
    check_unique,
    encode_floats,
    json_floats,
    json_number,
    json_numbers,
    read_json_object,
    write_json_object,
)
from .errors import ArgumentError, ValidationError, in_file
from .parallel import map_ordered, warn
from .size_factors import (
    SizeFactors,
    canonical_method,
    estimate_test_size_factors,
    first_ten,
    size_factors_of,
)
from .transform import calibrate

PRIOR_MODES = ("uniform", "empirical")
# entries of the (rho, K, p) ratio workspaces a cv fold's grid sweep fills at once
_SWEEP_ELEMENTS = 131_072


def _check_beta(beta: float, error: type[ValidationError] = ArgumentError) -> None:
    if not (beta > 0 and np.isfinite(beta)):
        raise error("beta must be finite and positive")


def _check_rho(rho, error: type[ValidationError] = ArgumentError) -> None:
    """Reject any rho (a value or a grid) that is negative, infinite or NaN."""
    if not np.all((np.asarray(rho) >= 0) & np.isfinite(rho)):
        raise error("rho must be finite and nonnegative")


def shrunken_ratios(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Rate ratios a/b pulled toward 1 by rho / sqrt(b).

    Equal bit for bit to the three-branch form ``ratio - thr`` where
    ``ratio - 1 > thr``, ``ratio + thr`` where ``1 - ratio > thr`` and 1
    elsewhere, so rho = 0 returns a/b bitwise (subtracting a zero threshold
    is exact) rather than the algebraically equal soft-thresholded form
    1 + sign(a/b - 1) * max(|a/b - 1| - 0, 0), which reassociates the arithmetic.
    """
    return _ratio_shrinker(a, b, 1)(np.array([rho], dtype=np.float64))[0]


def _ratio_shrinker(a: np.ndarray, b: np.ndarray, block: int):
    """``rhos -> d`` for up to ``block`` values of rho at once.

    Slice r of the returned ``(len(rhos), K, p)`` array is
    ``shrunken_ratios(a, b, rhos[r])``. Every rho-free term is computed
    once, and every call writes into the same ``(block, K, p)`` workspace,
    so the array returned is overwritten by the next call. Each step is
    elementwise, so an entry's bits do not depend on the block. The
    threshold takes the sign of ``ratio - 1`` before it is subtracted:
    ``ratio - (-thr)`` equals ``ratio + thr`` exactly, so one subtraction
    gives both shrinking branches. As in the three-branch form, an infinite
    or NaN rho shrinks every ratio to 1.
    """
    ratio = a / b
    dev = ratio - 1.0
    abs_dev = np.abs(dev)
    # +1 where dev == 0: np.sign's 0 there would meet an infinite thr as 0 * inf
    sign = np.copysign(1.0, dev)
    sqrt_b = np.sqrt(b)
    shape = (block,) + ratio.shape
    d_block = np.empty(shape)
    mask_block = np.empty(shape, dtype=bool)

    def at(rhos: np.ndarray) -> np.ndarray:
        d, mask = d_block[: rhos.size], mask_block[: rhos.size]
        np.divide(rhos[:, None, None], sqrt_b, out=d)  # the threshold, then d in place
        np.greater(abs_dev, d, out=mask)  # active
        # the threshold where active, |ratio - 1| elsewhere: finite, so 0 * d is 0
        np.fmin(d, abs_dev, out=d)
        np.multiply(d, sign, out=d)
        np.subtract(ratio, d, out=d)
        # d where active, 0 + 1 elsewhere, without a masked copy
        np.multiply(d, mask, out=d)
        np.logical_not(mask, out=mask)  # inactive
        np.add(d, mask, out=d)
        return d

    return at


def _nonzero_features(d_hat: np.ndarray):
    """Features whose ratios are not all 1, per ``(..., K, p)`` slice."""
    return np.any(d_hat != 1.0, axis=-2).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class PldaModel:
    """Fitted classifier state.

    ``g_hat`` and ``d_hat`` live on the transformed scale when
    ``alpha < 1``; prediction applies the same exponent to incoming
    observations. ``size_factors`` carries the training statistics needed
    to scale a new observation; it may be None for models assembled
    directly from known parameters, in which case ``predict`` requires an
    explicit ``s_star``.
    """

    g_hat: np.ndarray
    d_hat: np.ndarray
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
        priors = np.asarray(self.priors, dtype=np.float64)
        if g.ndim != 1:
            raise ValidationError("g_hat must be a vector")
        K, p = d.shape if d.ndim == 2 else (0, -1)
        if p != g.size:
            raise ValidationError("d_hat must be K x p, with p the length of g_hat")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise ValidationError("g_hat must be finite and nonnegative")
        if not np.all(np.isfinite(d) & (d > 0)):
            raise ValidationError("all rate ratios must be finite and strictly positive")
        if (
            priors.shape != (K,)
            or not np.all(np.isfinite(priors) & (priors >= 0))
            or abs(priors.sum() - 1.0) > 1e-12
        ):
            raise ValidationError("priors must be K finite nonnegative values summing to 1")
        # a model's fields are data, which a model file can get wrong
        _check_beta(self.beta, ValidationError)
        _check_rho(self.rho, ValidationError)
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")
        if len(self.class_names) != K:
            raise ValidationError("class_names length must equal K")
        check_unique(self.class_names, "class")
        if self.size_factors is not None and self.size_factors.p != p:
            raise ValidationError(
                f"size_factors aux p is {self.size_factors.p}, but g_hat has {p} features"
            )
        if len(self.feature_ids) not in (0, p):
            raise ValidationError(
                f"feature_ids holds {len(self.feature_ids)} ids, but g_hat has {p} features"
            )
        for arr in (g, d, priors):
            arr.flags.writeable = False
        object.__setattr__(self, "g_hat", g)
        object.__setattr__(self, "d_hat", d)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        # cached score ingredients
        object.__setattr__(self, "_log_d", np.log(d))
        object.__setattr__(self, "_offsets", d @ g)
        with np.errstate(divide="ignore"):  # a zero prior's class is never predicted
            object.__setattr__(self, "_log_priors", np.log(priors))

    @property
    def K(self) -> int:
        return self.d_hat.shape[0]

    @property
    def p(self) -> int:
        return self.d_hat.shape[1]

    def nonzero_features(self) -> int:
        """Number of features whose ratios are not fully shrunken to 1."""
        return int(_nonzero_features(self.d_hat))

    def to_json(self) -> dict[str, Any]:
        return {
            "format": "plda-model",
            "size_factors": None if self.size_factors is None else self.size_factors.to_json(),
            "alpha": self.alpha,
            "beta": self.beta,
            "rho": self.rho,
            "priors": self.priors.tolist(),
            "class_names": list(self.class_names),
            "feature_ids": list(self.feature_ids),
            "g_hat": encode_floats(self.g_hat),
            "d_hat": encode_floats(self.d_hat),
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "PldaModel":
        if not isinstance(obj, dict) or obj.get("format") != "plda-model":
            raise ValidationError("not a classifier model file")
        for key in ("class_names", "feature_ids"):
            if not isinstance(obj[key], list) or not all(isinstance(s, str) for s in obj[key]):
                raise ValidationError(f"{key} must be a list of strings")
        sf = None if obj["size_factors"] is None else SizeFactors.from_json(obj["size_factors"])
        g_hat = json_floats(obj, "g_hat")
        return PldaModel(
            g_hat=g_hat,
            d_hat=json_floats(obj, "d_hat", shape=(len(obj["class_names"]), g_hat.size)),
            priors=json_numbers(obj, "priors"),
            beta=json_number(obj, "beta"),
            rho=json_number(obj, "rho"),
            size_factors=sf,
            alpha=json_number(obj, "alpha"),
            class_names=tuple(obj["class_names"]),
            feature_ids=tuple(obj["feature_ids"]),
        )


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted class with per-class scores and normalized posterior.

    From :func:`predict` the fields describe one observation: an int class
    index and two length-K vectors. From :func:`predict_matrix` each field
    has a leading row axis: m class indices and two m x K arrays.
    """

    class_index: int | np.ndarray
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
    _check_beta(beta)
    if prior_mode not in PRIOR_MODES:
        raise ArgumentError(f"prior_mode must be one of {PRIOR_MODES}")
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
    with np.errstate(over="ignore"):  # an inf, reported below
        g_hat = values.sum(axis=0)
    bad = np.flatnonzero(g_hat == np.inf)  # the values are finite and nonnegative
    if bad.size:
        names = [f"'{data.matrix.feature_ids[j]}'" for j in bad[:10]]
        message = f"non-finite column total in {bad.size} of {g_hat.size} features: "
        raise ValidationError(message + first_ten(names, bad.size))
    K, p = data.K, values.shape[1]
    x_class = np.empty((K, p))
    s_class = np.empty(K)
    counts = np.empty(K)
    for k in range(1, K + 1):
        idx = np.flatnonzero(labels == k)
        x_class[k - 1] = values[idx].sum(axis=0)
        s_class[k - 1] = factors.values[idx].sum()
        counts[k - 1] = idx.size
    a = x_class + beta
    b = s_class[:, None] * g_hat[None, :] + beta
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
        priors=priors,
        class_names=data.class_names,
        feature_ids=data.matrix.feature_ids,
        beta=beta,
    )


def _model_from_stats(stats: FitStats, rho: float) -> PldaModel:
    """The model at ``rho``; its fields but ``d_hat`` and ``rho`` are ``stats``' of that name."""
    shared = {
        f.name: getattr(stats, f.name) for f in fields(PldaModel) if f.name not in ("d_hat", "rho")
    }
    return PldaModel(d_hat=shrunken_ratios(stats.a, stats.b, rho), rho=rho, **shared)


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
    _check_rho(rho)
    return _model_from_stats(_fit_stats(data, method, beta, prior_mode, transform), rho)


def _score_rows(rows, s_stars, log_d, offsets, log_priors) -> np.ndarray:
    """Class scores for already-transformed rows; one row per observation.

    ``log_d`` is ``(..., K, p)`` and ``offsets`` ``(..., K)``; the scores are
    ``(..., m, K)`` for m rows. Each ``rows[i] . log_d[..., k, :]`` is one dot
    product of those two vectors, so a row's scores are the same bits in
    any batch and any block. A matrix product would block its sums by the
    batch's shape and change them in the last bit.
    """
    return (
        np.vecdot(rows[:, None, :], log_d[..., None, :, :])
        - s_stars[:, None] * offsets[..., None, :]
        + log_priors
    )


def _predict_rows(model: PldaModel, rows: np.ndarray, s_stars=None, sample_ids=None) -> Prediction:
    """Classify validated raw rows in one batch; ties go to the lowest class index."""
    if model.alpha != 1.0:
        rows = rows**model.alpha
    if s_stars is None:
        if model.size_factors is None:
            raise ValidationError("model carries no size-factor statistics; pass s_star")
        s_stars = estimate_test_size_factors(model.size_factors, rows, sample_ids)
    scores = _score_rows(rows, s_stars, model._log_d, model._offsets, model._log_priors)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    return Prediction(
        class_index=np.argmax(scores, axis=1) + 1,
        scores=scores,
        posterior=weights / weights.sum(axis=1, keepdims=True),
    )


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
    if s_star is not None and s_star <= 0:
        raise ValidationError("s_star must be positive")
    s_stars = None if s_star is None else np.array([float(s_star)])
    batch = _predict_rows(model, x[None, :], s_stars)
    return Prediction(int(batch.class_index[0]), batch.scores[0], batch.posterior[0])


def predict_matrix(model: PldaModel, matrix: CountMatrix) -> Prediction:
    """Classify every row of a count matrix in one batch.

    Feature ids are checked against the model's when both sides carry them.
    Row i of each field equals ``predict(model, matrix.values[i])`` bit for
    bit, and an error names the sample it concerns.
    """
    if matrix.p != model.p:
        raise ValidationError(f"matrix has {matrix.p} features, model expects {model.p}")
    if model.feature_ids and matrix.feature_ids != model.feature_ids:
        raise ValidationError("matrix feature ids do not match the model's features")
    return _predict_rows(model, matrix.values, sample_ids=matrix.sample_ids)


def shrinkage_upper_bound(stats: FitStats) -> float:
    """Smallest rho at which every rate ratio shrinks all the way to 1."""
    return float(np.max(np.sqrt(stats.b) * np.abs(stats.a / stats.b - 1.0)))


def default_rho_grid(
    data: LabeledDataset,
    method: str = "total-count",
    beta: float = 1.0,
    transform: bool = True,
) -> np.ndarray:
    """0 plus a geometric sweep of 29 values up to the full-shrinkage bound of the data."""
    return _rho_grid(_fit_stats(data, method, beta, "uniform", transform))


def _rho_grid(stats: FitStats) -> np.ndarray:
    bound = shrinkage_upper_bound(stats)
    if bound <= 0:
        return np.array([0.0])
    return np.concatenate([[0.0], np.geomspace(1e-3 * bound, bound, 29)])


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> tuple[np.ndarray, int]:
    """Deterministic stratified fold assignment.

    Each class's members are shuffled and dealt round-robin. If the
    smallest class has fewer members than ``folds``, the fold count is
    reduced to that size (with a warning); below 2 the split is degenerate.
    """
    if folds < 2:
        raise ArgumentError("folds must be at least 2")
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
        warn(
            f"reducing folds from {folds} to {effective}: smallest class has "
            f"{smallest} members"
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
    training portion (1.0 throughout with the transform off), and row f
    of ``fold_errors`` fold f's misclassifications at each rho; its
    columns sum to ``errors``.
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
    fold_errors: np.ndarray

    def to_json(self) -> dict[str, Any]:
        """Every field but ``model``, in declaration order; arrays and tuples become lists."""
        return {
            f.name: np.asarray(getattr(self, f.name)).tolist()
            for f in fields(CrossValidationResult)
            if f.name != "model"
        }


def _sweep_fold(
    train: FitStats,
    test_rows: np.ndarray,
    test_ids: list[str],
    truth: np.ndarray,
    grid: np.ndarray,
    errors: np.ndarray,
    nonzero: np.ndarray,
) -> None:
    """Write one fold's held-out errors and active features at each rho into
    ``errors`` and ``nonzero``, its rows.

    ``test_rows`` are already transformed, and ``test_ids`` name them in
    errors. The grid is swept a block of up to ``_SWEEP_ELEMENTS // (K p)``
    values at a time, so each numpy call covers several rho; every slice of
    ``d @ g_hat`` and of the scores has the bits of the one-rho computation
    that :class:`PldaModel` makes. The shrinker's workspace, which holds d
    and then log d, lives only for this call.
    """
    s_stars = estimate_test_size_factors(train.size_factors, test_rows, test_ids)
    block = max(1, min(grid.size, _SWEEP_ELEMENTS // train.a.size))
    shrunk = _ratio_shrinker(train.a, train.b, block)
    log_priors = np.log(train.priors)
    for lo in range(0, grid.size, block):
        part = slice(lo, lo + block)
        d = shrunk(grid[part])
        offsets = d @ train.g_hat
        nonzero[part] = _nonzero_features(d)
        log_d = np.log(d, out=d)  # d is read no more: its log takes its place
        scores = _score_rows(test_rows, s_stars, log_d, offsets, log_priors)
        predicted = np.argmax(scores, axis=-1) + 1
        errors[part] = (predicted != truth).sum(axis=-1)


def cross_validate(
    data: LabeledDataset,
    method: str = "total-count",
    rho_grid: Sequence[float] | None = None,
    folds: int = 5,
    seed: int = 0,
    prior_mode: str = "uniform",
    transform: bool = True,
    beta: float = 1.0,
    threads: int | None = None,
) -> CrossValidationResult:
    """Stratified cross-validation over the shrinkage grid.

    Every fold re-estimates the transform exponent and all parameters on
    its training portion alone, so no information leaks from held-out
    samples into the fit. The fit on all of the data runs first; it gives
    the default grid and the returned model.

    Each fold is then one unit of :func:`poiskit.parallel.map_ordered`,
    run on up to ``threads`` threads (None means 1): it fits its training
    portion, transforms its held-out rows by the fold's exponent and
    sweeps the grid, writing only its own row of the fold errors and of the
    active-feature counts. Counts are integers, so their mean over folds
    is exact in any order, and the result does not depend on ``threads``.
    """
    if rho_grid is not None:
        grid = np.asarray(sorted(float(r) for r in rho_grid), dtype=np.float64)
        if grid.size == 0:
            raise ArgumentError("rho grid must be nonempty")
        _check_rho(grid)
    stats = _fit_stats(data, method, beta, prior_mode, transform)
    if rho_grid is None:
        grid = _rho_grid(stats)
    fold_of, effective = stratified_folds(data.labels, folds, seed)

    fold_errors = np.zeros((effective, grid.size), dtype=np.int64)
    fold_nonzero = np.zeros((effective, grid.size), dtype=np.int64)

    def fold(f: int) -> float:
        test_idx = np.flatnonzero(fold_of == f)
        train = _fit_stats(
            data, method, beta, prior_mode, transform, rows=np.flatnonzero(fold_of != f)
        )
        test_raw = data.matrix.values[test_idx]
        test_rows = test_raw if train.alpha == 1.0 else test_raw**train.alpha
        test_ids = [data.matrix.sample_ids[i] for i in test_idx]
        truth = data.labels[test_idx]
        _sweep_fold(train, test_rows, test_ids, truth, grid, fold_errors[f], fold_nonzero[f])
        return train.alpha

    fold_alphas = map_ordered(fold, effective, threads)
    errors = fold_errors.sum(axis=0)
    best = int(np.argmin(errors))
    selected = float(grid[best])
    return CrossValidationResult(
        rho_grid=grid,
        errors=errors,
        error_rate=errors / data.matrix.n,
        nonzero_features=fold_nonzero.sum(axis=0) / effective,
        selected_rho=selected,
        folds=effective,
        seed=seed,
        model=_model_from_stats(stats, selected),
        fold_alphas=tuple(fold_alphas),
        fold_errors=fold_errors,
    )


def write_model(model: PldaModel, path) -> None:
    """Write ``model.to_json()`` as one line of JSON."""
    write_json_object(path, model.to_json())


def read_model(path) -> PldaModel:
    """Load a model file; malformed content raises an error naming the file."""
    obj = read_json_object(path, "not a classifier model file")
    with in_file(path):
        try:
            return PldaModel.from_json(obj)
        except KeyError as exc:
            raise ValidationError(f"model has no {exc} field") from exc
        # an array field numpy cannot convert, or an integer past the float range
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed model: {exc}") from exc
