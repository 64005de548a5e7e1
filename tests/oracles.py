"""Independent reference implementations used only by the test suite.

These deliberately share no numerical kernels with the package: scalar
loops instead of vectorized code, hand-rolled order statistics instead of
numpy's, and direct likelihood evaluation instead of the fitted-model
score. Disagreement between an oracle and the production path fails the
build. The one exception is ``per_rho_cross_validate``, a differential
reference built from the package's own fit and model code.
"""

import math

import numpy as np

from poiskit.count_matrix import CountMatrix, LabeledDataset
from poiskit.plda import PldaModel, _fit_stats, default_rho_grid, predict, stratified_folds


def same_counts(a: CountMatrix, b: CountMatrix) -> bool:
    """Exact equality of two count matrices: values and both id tuples."""
    return (
        a.sample_ids == b.sample_ids
        and a.feature_ids == b.feature_ids
        and np.array_equal(a.values, b.values)
    )


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def multinomial_lrt(x_i, x_iprime) -> float:
    """Log likelihood ratio for equal multinomial cell probabilities.

    Conditional on the two totals, the pair of count vectors is multinomial;
    this statistic tests whether both share one probability vector. It
    coincides with the Poisson pair dissimilarity under total-count factors
    and maximum-likelihood plug-ins, which is what criterion 6 checks.
    """
    x1 = np.asarray(x_i, dtype=np.float64)
    x2 = np.asarray(x_iprime, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("pair must be two vectors of equal length")
    t1, t2 = float(x1.sum()), float(x2.sum())
    if t1 <= 0 or t2 <= 0:
        raise ValueError("zero total count in pair")

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


def scalar_percentile75(values):
    """75th percentile with linear interpolation at rank 1 + (p-1) * 0.75."""
    v = sorted(values)
    p = len(v)
    h = 1 + (p - 1) * 0.75
    lo = int(math.floor(h))
    if lo >= p:
        return v[-1]
    frac = h - lo
    return v[lo - 1] + frac * (v[lo] - v[lo - 1])


def scalar_median(values):
    v = sorted(values)
    m = len(v)
    if m % 2 == 1:
        return v[m // 2]
    return (v[m // 2 - 1] + v[m // 2]) / 2.0


def scalar_pair_size_factors(x, xp, method):
    if method == "total-count":
        t1, t2 = sum(x), sum(xp)
        return t1 / (t1 + t2), t2 / (t1 + t2)
    if method == "quantile":
        q1, q2 = scalar_percentile75(x), scalar_percentile75(xp)
        return q1 / (q1 + q2), q2 / (q1 + q2)
    ratios1, ratios2 = [], []
    for a, b in zip(x, xp):
        if a > 0 and b > 0:
            gm = math.exp(0.5 * (math.log(a) + math.log(b)))
            ratios1.append(a / gm)
            ratios2.append(b / gm)
    if not ratios1:
        raise ValueError("no usable feature for median-ratio")
    m1, m2 = scalar_median(ratios1), scalar_median(ratios2)
    return m1 / (m1 + m2), m2 / (m1 + m2)


def scalar_pair_dissimilarity(x, xp, method="total-count", beta=1.0):
    """Plain-loop modified log likelihood ratio for one pair of vectors."""
    x = [float(v) for v in x]
    xp = [float(v) for v in xp]
    s1, s2 = scalar_pair_size_factors(x, xp, method)
    total = 0.0
    for a, b in zip(x, xp):
        g = a + b
        n1, n2 = s1 * g, s2 * g
        term = 0.0
        if beta == 0.0:
            term = n1 + n2 - a - b
            if a > 0:
                term += a * math.log(a / n1)
            if b > 0:
                term += b * math.log(b / n2)
        else:
            d1 = (a + beta) / (n1 + beta)
            d2 = (b + beta) / (n2 + beta)
            term = n1 + n2 - n1 * d1 - n2 * d2 + a * math.log(d1) + b * math.log(d2)
        total += term
    return total


def scalar_plda_scores(x, g_hat, d_hat, priors, s_star):
    """Direct per-class evaluation of the linear discriminant scores."""
    scores = []
    for k in range(len(priors)):
        linear = 0.0
        for j in range(len(x)):
            linear += x[j] * math.log(d_hat[k][j])
        offset = 0.0
        for j in range(len(x)):
            offset += g_hat[j] * d_hat[k][j]
        scores.append(linear - s_star * offset + math.log(priors[k]))
    return scores


def grid_bayes_posterior(rates_class1, rates_class2, x, priors=(0.5, 0.5)):
    """Exact two-class Poisson posterior at integer observation x."""

    def log_joint(rates, prior):
        total = math.log(prior)
        for xi, lam in zip(x, rates):
            total += xi * math.log(lam) - lam - math.lgamma(xi + 1)
        return total

    l1 = log_joint(rates_class1, priors[0])
    l2 = log_joint(rates_class2, priors[1])
    m = max(l1, l2)
    e1, e2 = math.exp(l1 - m), math.exp(l2 - m)
    return e1 / (e1 + e2), e2 / (e1 + e2)


def naive_complete_linkage(dist):
    """Quadratic-per-step linkage recomputing every cluster distance from
    the original matrix as the max over cross leaf pairs.

    Returns (left, right, height, size) records with the same node
    numbering and documented tie-break as the production algorithm: leaves
    0..n-1, merge t creates node n+t, minimum scanned in ascending
    (node, node) order, children ordered by smallest contained leaf.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    members = {i: [i] for i in range(n)}
    min_leaf = {i: i for i in range(n)}
    active = list(range(n))
    merges = []
    for step in range(n - 1):
        best = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                u, v = active[ai], active[bi]
                duv = dist[np.ix_(members[u], members[v])].max()
                if best is None or duv < best[0]:
                    best = (duv, u, v)
        duv, u, v = best
        new = n + step
        members[new] = members[u] + members[v]
        min_leaf[new] = min(min_leaf[u], min_leaf[v])
        active.remove(u)
        active.remove(v)
        active.append(new)
        left, right = (u, v) if min_leaf[u] <= min_leaf[v] else (v, u)
        merges.append((left, right, float(duv), len(members[new])))
    return merges


def pairwise_cer(a, b):
    """CER by visiting every pair: the fraction whose co-membership differs."""
    n = len(a)
    disagreements = 0
    for i in range(n):
        for j in range(i + 1, n):
            disagreements += (a[i] == a[j]) != (b[i] == b[j])
    return disagreements / (n * (n - 1) // 2)


def per_rho_cross_validate(data, method, rho_grid, folds, seed, prior_mode, transform, beta):
    """Cross-validation as one validated fold dataset and one ``PldaModel``
    per fold and rho value, each held-out raw row classified by ``predict``.

    It pins the array-level fold loop of ``cross_validate`` bit for bit to
    this container-level loop and its held-out decisions to the public
    prediction path. Returns ``(rho_grid, errors, nonzero_features,
    selected_rho, folds, fold_errors)``, where row f of ``fold_errors``
    counts fold f's misclassifications at each rho.
    """
    if rho_grid is None:
        grid = default_rho_grid(data, method, beta, transform)
    else:
        grid = np.asarray(sorted(float(r) for r in rho_grid), dtype=np.float64)
    fold_of, effective = stratified_folds(data.labels, folds, seed)
    fold_errors = np.zeros((effective, grid.size), dtype=np.int64)
    nonzero = np.zeros(grid.size, dtype=np.float64)
    for f in range(effective):
        train_idx = np.flatnonzero(fold_of != f)
        test_idx = np.flatnonzero(fold_of == f)
        train = LabeledDataset(
            CountMatrix(
                data.matrix.values[train_idx],
                tuple(data.matrix.sample_ids[i] for i in train_idx),
                data.matrix.feature_ids,
            ),
            data.labels[train_idx],
            data.K,
            data.class_names,
        )
        stats = _fit_stats(train, method, beta, prior_mode, transform)
        test_raw = data.matrix.values[test_idx]
        truth = data.labels[test_idx]
        for r, rho in enumerate(grid):
            ratio = stats.a / stats.b
            dev = ratio - 1.0
            thr = float(rho) / np.sqrt(stats.b)
            model = PldaModel(
                g_hat=stats.g_hat,
                d_hat=np.where(dev > thr, ratio - thr, np.where(-dev > thr, ratio + thr, 1.0)),
                priors=stats.priors,
                beta=stats.beta,
                rho=float(rho),
                size_factors=stats.size_factors,
                alpha=stats.alpha,
                class_names=stats.class_names,
                feature_ids=stats.feature_ids,
            )
            predicted = np.array([predict(model, row).class_index for row in test_raw])
            fold_errors[f, r] = int((predicted != truth).sum())
            nonzero[r] += int(np.any(model.d_hat != 1.0, axis=0).sum())
    nonzero /= effective
    errors = fold_errors.sum(axis=0)
    return grid, errors, nonzero, float(grid[int(np.argmin(errors))]), effective, fold_errors
