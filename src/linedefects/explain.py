"""Local surrogate explanations for single file predictions.

Given one file's feature vector, the explainer perturbs the file in an
interpretable space (binary presence/absence of each distinct in-vocabulary
token), labels each perturbed neighbor with the file-level model, weights
neighbors by an exponential kernel on cosine distance, and fits a sparse
weighted linear surrogate whose coefficients score each token's contribution
to the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .corpus import FeatureVector, Vocabulary
from .model import LogisticModel

DEFAULT_NEIGHBORS = 5000
DEFAULT_KERNEL_WIDTH = 25.0
DEFAULT_K_FEATURES = 100

_LASSO_GRID_POINTS = 100
_LASSO_GRID_DECAY = 1e-4
_RIDGE_REFIT = 1e-6


@dataclass(frozen=True)
class Explanation:
    """Token -> importance score map for one explained file."""

    scores: dict[str, float]
    fidelity_r2: float


def active_token_indices(x: FeatureVector) -> list[int]:
    """Indices of the file's distinct in-vocabulary tokens, ascending."""
    return sorted(idx for idx, count in x.entries.items() if count > 0)


def _neighbor_masks(n: int, n_active: int, rng: np.random.Generator) -> np.ndarray:
    """n x D boolean masks; row 0 is the unperturbed original.

    Each other row deactivates a uniformly random subset of m tokens where
    m is drawn uniformly from {0, ..., D-1}, so at least one token always
    stays active.
    """
    masks = np.ones((n, n_active), dtype=bool)
    if n <= 1 or n_active <= 1:
        # with a single distinct token only m = 0 is possible
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


def _k_lasso_arrays(
    masks: np.ndarray, y: np.ndarray, weights: np.ndarray, k: int
) -> tuple[dict[int, float], float]:
    """Two-phase sparse surrogate fit in weighted covariance form.

    Phase 1 walks a geometric grid of decreasing lasso penalties with cyclic
    coordinate descent (warm started) and stops at the largest penalty that
    yields at least min(k, D) non-zero coefficients, keeping the top-k by
    magnitude. Phase 2 refits the selected features by weighted least
    squares with a tiny ridge term for conditioning and returns those
    coefficients plus the surrogate's weighted R^2.
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
    # unnormalized weighted Gram/moment terms of the centered design
    G = (X * weights[:, None]).T @ X - w_total * np.outer(xbar, xbar)
    c = X.T @ (weights * y) - w_total * xbar * ybar
    y_centered = y - ybar
    sst = float(weights @ (y_centered**2))

    lam_max = float(np.max(np.abs(c))) if d else 0.0
    if lam_max <= 1e-15:
        return {}, 0.0

    grid = np.geomspace(lam_max, lam_max * _LASSO_GRID_DECAY, _LASSO_GRID_POINTS)
    target = min(k, d)
    diag = G.diagonal().copy()
    beta = np.zeros(d)
    Gb = np.zeros(d)
    selected_beta = None
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
        if np.count_nonzero(beta) >= target:
            selected_beta = beta.copy()
            break
    if selected_beta is None:
        selected_beta = beta
    support = np.flatnonzero(selected_beta)
    if support.size == 0:
        return {}, 0.0
    if support.size > k:
        order = np.argsort(-np.abs(selected_beta[support]), kind="stable")
        support = np.sort(support[order[:k]])

    Gs = G[np.ix_(support, support)] + _RIDGE_REFIT * np.eye(support.size)
    coef = np.linalg.solve(Gs, c[support])

    fitted = (X[:, support] - xbar[support]) @ coef
    sse = float(weights @ ((y_centered - fitted) ** 2))
    r2 = 0.0 if sst <= 1e-18 else max(0.0, 1.0 - sse / sst)
    return {int(j): float(v) for j, v in zip(support, coef)}, r2


def explain(
    model: LogisticModel,
    x: FeatureVector,
    vocab: Vocabulary,
    n: int = DEFAULT_NEIGHBORS,
    k: int = DEFAULT_K_FEATURES,
    kernel_width: float = DEFAULT_KERNEL_WIDTH,
    seed: int = 0,
) -> Explanation:
    """Explain one file's prediction; deterministic given the seed."""
    if n < 1 or k < 1 or kernel_width <= 0:
        raise ValueError("n, k and kernel width must be positive")
    indices = active_token_indices(x)
    if not indices:
        raise ValueError("cannot explain an empty feature vector")
    d = len(indices)
    rng = np.random.default_rng(seed)
    masks = _neighbor_masks(n, d, rng)

    # Only the active tokens' contributions toggle; everything else is fixed.
    contrib = np.array([model.weights[idx] * x.entries[idx] for idx in indices])
    base = model.bias
    z = masks @ contrib + base
    probs = np.clip(expit(z), 1e-12, 1.0 - 1e-12)

    active_frac = masks.sum(axis=1) / d
    distance = 1.0 - np.sqrt(active_frac)
    weights = np.exp(-(distance**2) / (kernel_width**2))

    coefs, r2 = _k_lasso_arrays(masks, probs, weights, k)
    tokens = vocab.tokens
    scores = {tokens[indices[j]]: value for j, value in sorted(coefs.items())}
    return Explanation(scores=scores, fidelity_r2=r2)

