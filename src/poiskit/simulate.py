"""Labeled negative-binomial count data generator.

Samples get scales uniform on (0.2, 2.2), features get exponential
baselines with mean 25, and class labels go round-robin so classes stay
balanced. Each feature is differentially expressed with probability
``de_prob``; DE features receive independent lognormal rate ratios per
class (log ratios normal with standard deviation ``sigma``), others keep
ratio 1 in every class. Counts are negative binomial with mean mu and
variance mu + mu^2 * phi, realized as a gamma-Poisson mixture that
degrades to pure Poisson at phi = 0. Everything is reproducible from the
seed.

A test draw shares the population (baselines, rate ratios, DE mask) and
redraws only the sample scales; both draws then take their labels and
counts from one helper, so they differ only in their truth and seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .count_matrix import CountMatrix, LabeledDataset, write_json_object
from .errors import ValidationError


def _check_dispersion(phi: float) -> None:
    """Reject a phi that the gamma-Poisson draw cannot use: negative, NaN,
    infinite, or so small that its reciprocal, the gamma shape, overflows."""
    if not 0 <= phi < np.inf:
        raise ValidationError("dispersion phi must be finite and nonnegative")
    if phi > 0 and not np.isfinite(1.0 / phi):
        raise ValidationError(f"dispersion phi={phi!r} is too small: 1/phi overflows")


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    phi: float
    sigma: float
    p: int = 10_000
    K: int = 3
    de_prob: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.K < 1:
            raise ValidationError("n, p, and K must be positive")
        if self.n < self.K:
            raise ValidationError("need at least one sample per class (n >= K)")
        _check_dispersion(self.phi)
        if not 0 < self.sigma < np.inf:
            raise ValidationError("sigma must be finite and positive")
        if not 0 <= self.de_prob <= 1:
            raise ValidationError("de_prob must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SimulationTruth:
    """Ground-truth parameters: per-sample scales, baselines, rate ratios."""

    s: np.ndarray
    g: np.ndarray
    d: np.ndarray
    de_mask: np.ndarray


@dataclass(frozen=True, eq=False)
class SimulatedDataset:
    data: LabeledDataset
    truth: SimulationTruth
    config: SimulationConfig


def draw_negative_binomial(rng: np.random.Generator, mean, dispersion: float):
    """Counts with the stated mean and variance mean + mean^2 * dispersion."""
    mean = np.asarray(mean, dtype=np.float64)
    _check_dispersion(dispersion)
    try:
        if dispersion == 0:
            return rng.poisson(mean)
        return rng.poisson(rng.gamma(shape=1.0 / dispersion, scale=mean * dispersion))
    except ValueError as exc:  # a rate beyond numpy's samplers, or NaN
        raise ValidationError(f"the rates are too large to sample ({exc})") from None


def _draw(
    config: SimulationConfig, rng: np.random.Generator, truth: SimulationTruth, prefix: str,
    feature_ids: tuple[str, ...],
) -> SimulatedDataset:
    """Round-robin labels and counts drawn from ``truth``, with samples named ``prefix`` 1..n."""
    labels = (np.arange(config.n) % config.K) + 1
    mu = truth.s[:, None] * truth.g[None, :] * truth.d[labels - 1]
    counts = draw_negative_binomial(rng, mu, config.phi).astype(np.float64)
    matrix = CountMatrix(counts, tuple(f"{prefix}{i + 1}" for i in range(config.n)), feature_ids)
    data = LabeledDataset(
        matrix, labels, config.K, tuple(f"c{k}" for k in range(1, config.K + 1))
    )
    return SimulatedDataset(data, truth, config)


def simulate(config: SimulationConfig) -> SimulatedDataset:
    """Generate one labeled dataset along with its generating parameters."""
    rng = np.random.default_rng(config.seed)
    s = rng.uniform(0.2, 2.2, config.n)
    g = rng.exponential(25.0, config.p)
    de_mask = rng.random(config.p) < config.de_prob
    z = rng.normal(0.0, config.sigma, (config.K, config.p))
    d = np.ones((config.K, config.p))
    d[:, de_mask] = np.exp(z[:, de_mask])
    truth = SimulationTruth(s=s, g=g, d=d, de_mask=de_mask)
    return _draw(config, rng, truth, "s", tuple(f"f{j + 1}" for j in range(config.p)))


def split_train_test(
    dataset: SimulatedDataset, seed: int
) -> tuple[SimulatedDataset, SimulatedDataset]:
    """Pair a dataset with an independent test draw from the same population.

    The population parameters (baselines, rate ratios, DE mask) are shared;
    per-sample scales and counts are redrawn, and the class balance is
    preserved. Returns (the input dataset, the fresh test set).
    """
    config = dataset.config
    rng = np.random.default_rng(seed)
    truth = replace(dataset.truth, s=rng.uniform(0.2, 2.2, config.n))
    return dataset, _draw(config, rng, truth, "t", dataset.data.matrix.feature_ids)


def write_truth(path, dataset: SimulatedDataset) -> None:
    """Ground-truth JSON: s, g, d, de_mask, and the configuration echo."""
    truth = dataset.truth
    payload = {
        "s": truth.s.tolist(),
        "g": truth.g.tolist(),
        "d": truth.d.tolist(),
        "de_mask": truth.de_mask.astype(bool).tolist(),
        "config": asdict(dataset.config),
    }
    write_json_object(path, payload)
