"""Reference explainer: the slow oracles that ``explain`` is checked against.

The per-sample explainer builds every perturbed neighbor as its own feature
vector, labels it with ``predict_proba``, weights it with a kernel computed
from the two masks, and fits the same two-phase surrogate. ``explain`` does
the same work in vectorised form.

``reference_neighbor_masks`` ranks the noise with a double argsort, and
``cd_k_lasso_arrays`` selects features by cyclic coordinate descent over the
penalty grid; ``explain`` replaces them with a threshold at the m-th
smallest noise value and with the exact lasso path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector
from linedefects.explain import (
    _LASSO_GRID_DECAY,
    _LASSO_GRID_POINTS,
    _RIDGE_REFIT,
    _k_lasso_arrays,
    _neighbor_masks,
    active_token_indices,
)
from linedefects.model import LogisticModel, predict_proba

from reference_corpus import features_to_csr


@dataclass
class NeighborSample:
    """One perturbed neighbor of the explained file.

    ``active_mask`` covers the file's distinct in-vocabulary tokens;
    ``perturbed_vector`` is the original vector with the counts of
    deactivated tokens zeroed. Prediction and kernel weight are filled in
    once the neighbor has been labelled.
    """

    active_mask: np.ndarray
    perturbed_vector: FeatureVector
    predicted: float | None = None
    weight: float | None = None


def _mask_to_vector(x: FeatureVector, indices: list[int], mask: np.ndarray) -> FeatureVector:
    entries = {idx: x.entries[idx] for idx, keep in zip(indices, mask) if keep}
    return FeatureVector(entries=entries, dimension=x.dimension)


def generate_neighbors(x: FeatureVector, n: int, seed: int) -> list[NeighborSample]:
    """Draw n perturbed neighbors of x (predictions and weights unset)."""
    if n < 1:
        raise ValueError("need at least one neighbor sample")
    indices = active_token_indices(x)
    if not indices:
        raise ValueError("cannot perturb an empty feature vector")
    rng = np.random.default_rng(seed)
    masks = _neighbor_masks(n, len(indices), rng)
    return [
        NeighborSample(active_mask=mask.copy(), perturbed_vector=_mask_to_vector(x, indices, mask))
        for mask in masks
    ]


def kernel_weight(original_mask: np.ndarray, sample_mask: np.ndarray, width: float) -> float:
    """Exponential kernel on the cosine distance between two binary masks.

    An all-false sample mask has undefined cosine similarity; its distance is
    defined as 1 (the kernel's farthest point).
    """
    a = np.asarray(original_mask, dtype=float)
    b = np.asarray(sample_mask, dtype=float)
    if a.shape != b.shape:
        raise ValueError("masks must have the same length")
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    distance = 1.0 if denom == 0.0 else 1.0 - float(a @ b) / denom
    return float(np.exp(-(distance**2) / (width**2)))


def k_lasso(samples: list[NeighborSample], k: int, feature_names: list[str] | None = None) -> dict:
    """Fit the sparse weighted surrogate on labelled neighbor samples.

    Returns a map from feature (name when ``feature_names`` is given, else
    mask column index) to refit coefficient. A degenerate design, e.g. all
    samples identical or constant predictions, yields an empty map rather
    than an error.
    """
    if len(samples) < 2:
        raise ValueError("need at least two neighbor samples")
    masks = np.stack([s.active_mask for s in samples])
    y = np.array([s.predicted for s in samples], dtype=np.float64)
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    coefs, _ = _k_lasso_arrays(masks, y, weights, k)
    if feature_names is None:
        return coefs
    return {feature_names[j]: v for j, v in coefs.items()}


def predict_neighbors(
    model: LogisticModel, samples: list[NeighborSample], kernel_width: float = RunConfig.lime_sigma
) -> list[NeighborSample]:
    """Label neighbor samples with model predictions and kernel weights in place."""
    if not samples:
        return samples
    original = samples[0].active_mask
    for s in samples:
        s.predicted = float(predict_proba(model, features_to_csr([s.perturbed_vector]))[0])
        s.weight = kernel_weight(original, s.active_mask, kernel_width)
    return samples


def reference_neighbor_masks(n: int, n_active: int, rng: np.random.Generator) -> np.ndarray:
    """``_neighbor_masks`` with the m deactivated tokens found by ranking every row."""
    masks = np.ones((n, n_active), dtype=bool)
    if n <= 1 or n_active <= 1:
        return masks
    m = rng.integers(0, n_active, size=n - 1)
    noise = rng.random((n - 1, n_active))
    ranks = noise.argsort(axis=1).argsort(axis=1)
    masks[1:] = ranks >= m[:, None]
    return masks


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def cd_k_lasso_arrays(
    masks: np.ndarray, y: np.ndarray, weights: np.ndarray, k: int
) -> tuple[dict[int, float], float, bool]:
    """``_k_lasso_arrays`` with phase 1 solved by warm-started cyclic coordinate descent.

    Returns the refit coefficients, the weighted R^2, and whether any grid
    penalty ran out of its 250 sweeps before converging.
    """
    n, d = masks.shape
    if n < 2:
        raise ValueError("need at least two samples to fit a surrogate")
    if k < 1:
        raise ValueError("feature budget must be >= 1")
    w_total = float(weights.sum())
    X = masks.astype(np.float64)
    xbar = (weights @ X) / w_total
    ybar = float(weights @ y) / w_total
    G = (X * weights[:, None]).T @ X - w_total * np.outer(xbar, xbar)
    c = X.T @ (weights * y) - w_total * xbar * ybar
    y_centered = y - ybar
    sst = float(weights @ (y_centered**2))

    lam_max = float(np.max(np.abs(c))) if d else 0.0
    if lam_max <= 1e-15:
        return {}, 0.0, False

    grid = np.geomspace(lam_max, lam_max * _LASSO_GRID_DECAY, _LASSO_GRID_POINTS)
    target = min(k, d)
    diag = G.diagonal().copy()
    beta = np.zeros(d)
    Gb = np.zeros(d)
    selected_beta = None
    capped = False
    for lam in grid:
        for _ in range(250):
            delta_max = 0.0
            for j in range(d):
                if diag[j] <= 1e-15:
                    continue
                old = beta[j]
                rho = c[j] - (Gb[j] - diag[j] * old)
                new = _soft_threshold(rho, lam) / diag[j]
                if new != old:
                    Gb += G[:, j] * (new - old)
                    beta[j] = new
                    delta_max = max(delta_max, abs(new - old))
            if delta_max <= 1e-8 * max(1.0, float(np.max(np.abs(beta)))):
                break
        else:
            capped = True
        if np.count_nonzero(beta) >= target:
            selected_beta = beta.copy()
            break
    if selected_beta is None:
        selected_beta = beta
    support = np.flatnonzero(selected_beta)
    if support.size == 0:
        return {}, 0.0, capped
    if support.size > k:
        order = np.argsort(-np.abs(selected_beta[support]), kind="stable")
        support = np.sort(support[order[:k]])

    Gs = G[np.ix_(support, support)] + _RIDGE_REFIT * np.eye(support.size)
    coef = np.linalg.solve(Gs, c[support])

    fitted = (X[:, support] - xbar[support]) @ coef
    sse = float(weights @ ((y_centered - fitted) ** 2))
    r2 = 0.0 if sst <= 1e-18 else max(0.0, 1.0 - sse / sst)
    return {int(j): float(v) for j, v in zip(support, coef)}, r2, capped
