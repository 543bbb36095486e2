"""Reference trainer: the gradient loop that ``model._minimize`` is checked against.

Full-batch gradient descent on the L2-regularized negative log-likelihood
(intercept not penalized), with Barzilai-Borwein initial steps and Armijo
backtracking, over a design wrapper exposing ``matvec``/``rmatvec``.
``_StandardizedDesign`` z-scores the columns lazily. ``TrainMeta`` is the
record this loop returns; it is also the ``train_meta`` shape of format-1
model documents written before the trainer moved to scipy's ``trust-ncg``.
``_hessian_product`` is the Hessian-vector product that recomputes the
curvature on every call; the solver's cached ``hessp`` must equal it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from linedefects.model import L2_LAMBDA


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1.0
    max_iters: int = 1000
    tolerance: float = 1e-6
    seed: int = 0


@dataclass(frozen=True)
class TrainMeta:
    l2_lambda: float
    max_iters: int
    tolerance: float
    seed: int
    iterations: int
    converged: bool
    final_grad_norm: float


class _RawDesign:
    """Plain design matrix wrapper exposing matvec/rmatvec."""

    def __init__(self, X: sp.csr_matrix):
        self.X = X
        self.n_samples, self.n_features = X.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.X @ v

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return self.X.T @ r


class _StandardizedDesign:
    """Z-scored design (X - mean) / std applied lazily, so sparse X is never densified.

    Constant columns have zero std and are divided by 1 instead.
    """

    def __init__(self, X: sp.csr_matrix):
        self.X = X
        self.mean = np.asarray(X.mean(axis=0)).ravel()
        mean_sq = np.asarray(X.multiply(X).mean(axis=0)).ravel()
        std = np.sqrt(np.maximum(mean_sq - self.mean**2, 0.0))
        std[std == 0.0] = 1.0
        self.inv_std = 1.0 / std
        self.n_samples, self.n_features = X.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        scaled = v * self.inv_std
        return self.X @ scaled - float(self.mean @ scaled)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return (self.X.T @ r - self.mean * r.sum()) * self.inv_std


def _objective(theta: np.ndarray, design, y: np.ndarray, lam: float) -> float:
    w, b = theta[:-1], theta[-1]
    z = design.matvec(w) + b
    # log(1 + e^z) - y*z, computed stably
    loss = np.logaddexp(0.0, z) - y * z
    return float(loss.sum() + 0.5 * lam * (w @ w))


def _gradient(theta: np.ndarray, design, y: np.ndarray, lam: float) -> np.ndarray:
    w, b = theta[:-1], theta[-1]
    z = design.matvec(w) + b
    r = expit(z) - y
    grad = np.empty_like(theta)
    grad[:-1] = design.rmatvec(r) + lam * w
    grad[-1] = r.sum()
    return grad


def _minimize(design, y: np.ndarray, config: TrainConfig) -> tuple[np.ndarray, TrainMeta]:
    theta = np.zeros(design.n_features + 1)
    f = _objective(theta, design, y, config.l2_lambda)
    g = _gradient(theta, design, y, config.l2_lambda)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.tolerance:
            converged = True
            iterations -= 1
            break
        gsq = gnorm * gnorm
        alpha = step
        while True:
            candidate = theta - alpha * g
            f_new = _objective(candidate, design, y, config.l2_lambda)
            if f_new <= f - 1e-4 * alpha * gsq or alpha < 1e-18:
                break
            alpha *= 0.5
        g_new = _gradient(candidate, design, y, config.l2_lambda)
        s = candidate - theta
        diff = g_new - g
        sty = float(s @ diff)
        # Barzilai-Borwein step for the next iteration, clamped for safety
        step = float(s @ s) / sty if sty > 1e-18 else alpha * 2.0
        step = min(max(step, 1e-12), 1e12)
        theta, f, g = candidate, f_new, g_new
    final_norm = float(np.linalg.norm(g))
    if final_norm <= config.tolerance:
        converged = True
    meta = TrainMeta(
        l2_lambda=config.l2_lambda,
        max_iters=config.max_iters,
        tolerance=config.tolerance,
        seed=config.seed,
        iterations=iterations,
        converged=converged,
        final_grad_norm=final_norm,
    )
    return theta, meta


def _hessian_product(theta: np.ndarray, v: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
    """The objective's Hessian at ``theta`` times ``v``.

    ``[X 1]' D [X 1] v + L2_LAMBDA * (v_w, 0)`` with ``D = diag(mu (1 - mu))``.
    The labels do not enter the Hessian; scipy passes the loss's ``args`` here too.
    """
    mu = expit(X @ theta[:-1] + theta[-1])
    u = mu * (1.0 - mu) * (X @ v[:-1] + v[-1])
    hv = np.empty_like(v)
    hv[:-1] = X.T @ u + L2_LAMBDA * v[:-1]
    hv[-1] = u.sum()
    return hv
