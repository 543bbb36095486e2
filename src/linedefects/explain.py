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
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .corpus import FeatureVector, Vocabulary
from .model import LogisticModel

DEFAULT_NEIGHBORS = 5000
DEFAULT_KERNEL_WIDTH = 25.0
DEFAULT_K_FEATURES = 100

_LASSO_GRID_POINTS = 100
_LASSO_GRID_DECAY = 1e-4
_RIDGE_REFIT = 1e-6
# lasso path: columns with a smaller weighted variance never enter
_MIN_DIAG = 1e-15
# an entering column whose Schur complement against the active set is below
# this share of G_jj lies in the active span and would make G_AA singular
_SINGULAR_SCHUR = 1e-10
# bound on path breakpoints (a path usually has fewer than 2 per column)
_MAX_PATH_STEPS_PER_COLUMN = 10


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
    stays active. The subset is the m tokens with the smallest noise draws.
    """
    masks = np.ones((n, n_active), dtype=bool)
    if n <= 1 or n_active <= 1:
        # with a single distinct token only m = 0 is possible
        return masks
    m = rng.integers(0, n_active, size=n - 1)
    noise = rng.random((n - 1, n_active))
    kth = np.take_along_axis(np.sort(noise, axis=1), m[:, None], axis=1)
    keep = noise >= kth
    # a tie at the threshold keeps one token too many; rank those rows instead
    tied = np.flatnonzero(keep.sum(axis=1) != n_active - m)
    if tied.size:
        ranks = noise[tied].argsort(axis=1).argsort(axis=1)
        keep[tied] = ranks >= m[tied, None]
    masks[1:] = keep
    return masks


def _lasso_select(
    G: np.ndarray, c: np.ndarray, grid: np.ndarray, target: int
) -> tuple[np.ndarray, float]:
    """Lasso solution at the first grid penalty with >= target non-zeros.

    Follows the exact piecewise-linear path of min 1/2 b'Gb - c'b + lam*|b|_1
    (the LARS-lasso homotopy of Efron et al. 2004, the path LIME's feature
    selection walks) from lam = grid[0] downwards. Between two breakpoints
    the active coefficients are b_A = G_AA^-1 (c_A - lam * s_A); every grid
    penalty inside a segment is evaluated there. Returns the solution and
    penalty at the first grid point with at least ``target`` non-zeros, else
    at the last grid point.

    A column with G_jj <= 1e-15 never enters, and neither does one whose
    entry would make G_AA singular (it lies in the span of the active
    columns), so G_AA stays positive definite. A column that has just left
    may not re-enter on the boundary it left by at the same breakpoint.
    """
    d = c.size
    diag = G.diagonal()
    can_enter = diag > _MIN_DIAG
    active: list[int] = []
    signs: list[float] = []
    lam = float(grid[0])
    g = 0
    beta = np.zeros(d)
    dropped, dropped_sign = -1, 0.0
    max_steps = _MAX_PATH_STEPS_PER_COLUMN * d
    for step in range(max_steps + 1):
        idx = np.array(active, dtype=np.intp)
        s = np.array(signs)
        if active:
            factor = cho_factor(G[np.ix_(idx, idx)], check_finite=False)
            u, v = cho_solve(factor, np.column_stack([c[idx], s]), check_finite=False).T
            G_A = G[:, idx]
            a = c - G_A @ u
            e = G_A @ v
        else:
            u = v = s
            a, e = c, np.zeros(d)

        # Leaving: b_i(lam) = u_i - lam * v_i reaches zero while heading towards it.
        drop_lam, drop_i = 0.0, -1
        heading = s * v < 0
        if heading.any():
            roots = np.where(heading, u / np.where(heading, v, 1.0), 0.0)
            i = int(np.argmax(roots))
            if roots[i] > 0:
                drop_lam, drop_i = min(float(roots[i]), lam), i
        # Entering: r_j(lam) = a_j + lam * e_j reaches +-lam at a positive root
        # and stays outside below it, which needs a_j = r_j(0) beyond that side.
        free = can_enter.copy()
        free[idx] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(free & (a > 0), a / (1.0 - e), 0.0)
            down = np.where(free & (a < 0), -a / (1.0 + e), 0.0)
        if dropped >= 0:
            # it sits on its old boundary; only the opposite one is a future event
            (up if dropped_sign > 0 else down)[dropped] = 0.0
        join = np.minimum(np.maximum(up, down), lam)
        join_lam, join_j = 0.0, -1
        while True:
            j = int(np.argmax(join))
            if join[j] <= drop_lam:
                break
            if active:
                w = cho_solve(factor, G[idx, j], check_finite=False)
                if diag[j] - G[idx, j] @ w <= _SINGULAR_SCHUR * diag[j]:
                    join[j] = 0.0
                    continue
            join_lam, join_j = float(join[j]), j
            break
        # past the step bound, the current segment serves the remaining grid
        next_lam = 0.0 if step == max_steps else max(join_lam, drop_lam)

        # grid points in (next_lam, lam]; closed below while the solution is zero
        while g < grid.size and (grid[g] > next_lam or (not active and grid[g] >= next_lam)):
            beta = np.zeros(d)
            if active:
                beta[idx] = u - grid[g] * v
            if np.count_nonzero(beta) >= target:
                return beta, float(grid[g])
            g += 1
        if g == grid.size:
            break

        lam = next_lam
        dropped = -1
        if join_j < 0:
            dropped = active.pop(drop_i)
            dropped_sign = signs.pop(drop_i)
        else:
            active.append(join_j)
            signs.append(1.0 if a[join_j] > 0 else -1.0)
    return beta, float(grid[-1])


def _k_lasso_arrays(
    masks: np.ndarray, y: np.ndarray, weights: np.ndarray, k: int
) -> tuple[dict[int, float], float]:
    """Two-phase sparse surrogate fit in weighted covariance form.

    Phase 1 walks a geometric grid of decreasing lasso penalties along the
    exact lasso path (``_lasso_select``) and stops at the largest penalty
    that yields at least min(k, D) non-zero coefficients, keeping the top-k
    by magnitude. Phase 2 refits the selected features by weighted least
    squares with a tiny ridge term for conditioning and returns those
    coefficients plus the surrogate's weighted R^2.
    """
    n, d = masks.shape
    if n < 2:
        raise ValueError("need at least two samples to fit a surrogate")
    if k < 1:
        raise ValueError("feature budget must be >= 1")
    w_total = float(weights.sum())
    ybar = float(weights @ y) / w_total
    y_centered = y - ybar
    sst = float(weights @ (y_centered**2))
    if sst <= 1e-18:
        # a (near-)constant response carries no signal; c would be rounding noise
        return {}, 0.0
    X = masks.astype(np.float64)
    xbar = (weights @ X) / w_total
    # unnormalized weighted Gram/moment terms of the centered design
    G = (X * weights[:, None]).T @ X - w_total * np.outer(xbar, xbar)
    c = X.T @ (weights * y) - w_total * xbar * ybar

    lam_max = float(np.max(np.abs(c))) if d else 0.0
    if lam_max <= 1e-15:
        return {}, 0.0

    grid = np.geomspace(lam_max, lam_max * _LASSO_GRID_DECAY, _LASSO_GRID_POINTS)
    selected_beta, _ = _lasso_select(G, c, grid, min(k, d))
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
    r2 = max(0.0, 1.0 - sse / sst)
    return {int(j): float(v) for j, v in zip(support, coef)}, r2


def _surrogate_data(
    model: LogisticModel, x: FeatureVector, indices: list[int], n: int, kernel_width: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor masks over ``indices``, their predicted probabilities and kernel weights."""
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
    return masks, probs, weights


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
    if n < 2:
        raise ValueError("need at least two neighbor samples")
    if k < 1 or kernel_width <= 0:
        raise ValueError("k and kernel width must be positive")
    indices = active_token_indices(x)
    if not indices:
        raise ValueError("cannot explain an empty feature vector")
    masks, probs, weights = _surrogate_data(model, x, indices, n, kernel_width, seed)
    coefs, r2 = _k_lasso_arrays(masks, probs, weights, k)
    tokens = vocab.tokens
    scores = {tokens[indices[j]]: value for j, value in sorted(coefs.items())}
    return Explanation(scores=scores, fidelity_r2=r2)
