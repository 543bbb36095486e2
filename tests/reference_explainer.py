"""Reference explainer: the slow oracles that ``explain`` is checked against.

The per-sample explainer builds every perturbed neighbor as its own feature
vector, labels it with ``predict_proba``, weights it with a kernel computed
from the two masks, and fits the same two-phase surrogate. ``explain`` does
the same work in vectorised form.

``reference_neighbor_masks`` ranks the noise with a double argsort, and
``cd_k_lasso_arrays`` selects features by cyclic coordinate descent over the
penalty grid; ``explain`` replaces them with a threshold at the m-th
smallest noise value and with the exact lasso path.

``reference_lasso_select`` walks that same path with scipy's ``cho_factor``
and ``cho_solve``, fresh index copies of the active columns and a new
coefficient vector at every grid point, and ``reference_k_lasso_arrays``
refits on index copies of the selected columns. ``_lasso_select`` does the
same arithmetic on preallocated buffers and must return bitwise equal
results; ``explain``'s scores must be bitwise equal too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector
from linedefects.explain import (
    _LASSO_GRID_DECAY,
    _LASSO_GRID_POINTS,
    _MAX_PATH_STEPS_PER_COLUMN,
    _MIN_DIAG,
    _RIDGE_REFIT,
    _SINGULAR_SCHUR,
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


def reference_lasso_select(
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


def cd_lasso_select(
    G: np.ndarray, c: np.ndarray, grid: np.ndarray, target: int
) -> tuple[np.ndarray, float, bool]:
    """Phase 1 by warm-started cyclic coordinate descent over the penalty grid.

    Returns the solution and penalty at the first grid point with at least
    ``target`` non-zeros (else the last), and whether any grid penalty ran
    out of its 250 sweeps before converging.
    """
    d = c.size
    diag = G.diagonal().copy()
    beta = np.zeros(d)
    Gb = np.zeros(d)
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
            return beta, float(lam), capped
    return beta, float(grid[-1]), capped


def cd_k_lasso_arrays(
    masks: np.ndarray, y: np.ndarray, weights: np.ndarray, k: int
) -> tuple[dict[int, float], float, bool]:
    """``reference_k_lasso_arrays`` with phase 1 solved by ``cd_lasso_select``.

    Returns the refit coefficients, the weighted R^2, and whether any grid
    penalty ran out of its 250 sweeps before converging.
    """
    capped = []

    def select(G, c, grid, target):
        beta, lam, hit = cd_lasso_select(G, c, grid, target)
        capped.append(hit)
        return beta, lam

    coefs, r2 = reference_k_lasso_arrays(masks, y, weights, k, select)
    return coefs, r2, any(capped)


def reference_k_lasso_arrays(
    masks: np.ndarray, y: np.ndarray, weights: np.ndarray, k: int, select=reference_lasso_select
) -> tuple[dict[int, float], float]:
    """``_k_lasso_arrays`` with phase 1 by ``select``.

    The refit takes index copies of the selected rows and columns of G and
    of the design, even when every column is selected.
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
        return {}, 0.0
    X = masks.astype(np.float64)
    xbar = (weights @ X) / w_total
    G = (X * weights[:, None]).T @ X - w_total * np.outer(xbar, xbar)
    c = X.T @ (weights * y) - w_total * xbar * ybar

    lam_max = float(np.max(np.abs(c))) if d else 0.0
    if lam_max <= 1e-15:
        return {}, 0.0

    grid = np.geomspace(lam_max, lam_max * _LASSO_GRID_DECAY, _LASSO_GRID_POINTS)
    selected_beta, _ = select(G, c, grid, min(k, d))
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
