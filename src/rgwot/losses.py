"""Self-supervised training losses with analytic gradients.

The alignment loss is a cross entropy between the solved coupling (treated
as a constant target) and the row softmax of embedding similarities. The
temporal regularizer pulls time-adjacent frames of a video together and
pushes the rest at least `lam` apart; it is what keeps the embedding from
collapsing. Both terms score every frame: background is decided once, by
`segment`'s trim, and never in the losses. Gradients are exact and checked
against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeMismatch


def softmax_sim(X, Y, tau: float) -> np.ndarray:
    """Row-stochastic similarity P = softmax(X Y^T / tau) along rows."""
    z = (X @ Y.T) / tau
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def align_loss(P, t_star) -> tuple[float, np.ndarray]:
    """Cross entropy -sum T*_ij log P_ij and its gradient w.r.t. the logits.

    T* is a plan over real frames only, of P's shape (pass `coupling.real`,
    not a plan that still carries the virtual row and column).
    """
    if np.shape(t_star) != P.shape:
        raise ShapeMismatch(f"target plan {np.shape(t_star)} does not fit similarities {P.shape}")
    w = np.asarray(t_star, dtype=np.float64)
    logp = np.where(w > 0, np.log(np.maximum(P, np.finfo(np.float64).tiny)), 0.0)
    loss = float(-np.sum(w * logp))
    grad_logits = w.sum(axis=1, keepdims=True) * P - w
    return loss, grad_logits


def cidm_loss(X, sigma: float, lam: float, positions=None) -> tuple[float, np.ndarray]:
    """Temporal contrastive regularizer over ordered frame pairs.

    Pairs closer than sigma (in `positions` units, default 0..N-1) pay
    d/w(i,j); the rest pay w(i,j) * max(0, lam - d), with w = (pos_i-pos_j)^2
    + 1 and d the euclidean distance of the embedding rows. Returns the loss
    and its gradient w.r.t. X.
    """
    x = np.ascontiguousarray(X, dtype=np.float64)
    n = x.shape[0]
    pos = np.arange(n, dtype=np.float64) if positions is None else np.asarray(positions, dtype=np.float64)
    if pos.shape != (n,):
        raise ShapeMismatch(f"positions {pos.shape} do not fit embeddings {x.shape}")
    loss, grad = kernels.cidm_parts(x, pos, float(sigma), float(lam))
    return float(loss), grad


@dataclass(frozen=True)
class LossReport:
    align: float
    reg_x: float
    reg_y: float
    total: float
    grad_x: np.ndarray
    grad_y: np.ndarray


def total_loss(X, Y, t_star, masks, hyper, positions_x=None, positions_y=None) -> LossReport:
    """align + xi * (reg(X) + reg(Y)) with gradients w.r.t. both embeddings.

    t_star is the solved plan over real frames (pass `coupling.real`) and is
    treated as a constant (no gradient flows through the solver). masks must
    be None: every frame is scored.
    """
    if masks is not None:
        raise ConfigError("total_loss scores every frame; pass masks=None")
    x = np.asarray(X, dtype=np.float64)
    y = np.asarray(Y, dtype=np.float64)
    p = softmax_sim(x, y, hyper.tau)
    align, grad_logits = align_loss(p, t_star)
    grad_x = grad_logits @ y / hyper.tau
    grad_y = grad_logits.T @ x / hyper.tau
    reg_x, greg_x = cidm_loss(x, hyper.sigma, hyper.lam, positions_x)
    reg_y, greg_y = cidm_loss(y, hyper.sigma, hyper.lam, positions_y)
    grad_x += hyper.xi * greg_x
    grad_y += hyper.xi * greg_y
    return LossReport(
        align=align,
        reg_x=reg_x,
        reg_y=reg_y,
        total=align + hyper.xi * (reg_x + reg_y),
        grad_x=grad_x,
        grad_y=grad_y,
    )
