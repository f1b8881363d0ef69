"""Hot numeric kernels, vectorized with numpy.

Kernels:
  sinkhorn_log       log-domain Sinkhorn potential iterations
  banded_gw_product  C_x @ T @ C_y for the banded structural costs
  cidm_parts         temporal contrastive loss value and embedding gradient

Callers reach them as ``kernels.<name>`` so a profiler can rebind the module
attributes; `perfbench/run.py --trace 1` times each one that way.
"""

from __future__ import annotations

import numpy as np


def _lse_rows(m):
    """logsumexp along axis 1, safe for -inf rows."""
    mx = np.max(m, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    out = safe + np.log(np.sum(np.exp(m - safe[:, None]), axis=1))
    return np.where(np.isfinite(mx), out, mx)


def sinkhorn_log(G, logp, logq, eps, max_iters, tol, f0, g0):
    """Iterate dual potentials of entropic OT in the log domain.

    Returns (f, g, iters, violation) where violation is the max absolute
    column-marginal error of the implied plan after the final row update
    (row marginals are exact by construction at that point).
    """
    f = f0.copy()
    g = g0.copy()
    q = np.exp(logq)
    iters = 0
    violation = np.inf
    for it in range(1, max_iters + 1):
        g = eps * (logq - _lse_rows(((f[:, None] - G) / eps).T))
        f = eps * (logp - _lse_rows((g[None, :] - G) / eps))
        log_col = _lse_rows(((f[:, None] + g[None, :] - G) / eps).T)
        violation = np.max(np.abs(np.exp(log_col) - q))
        iters = it
        if violation <= tol:
            break
    return f, g, iters, violation


def banded_gw_product(T, wx, wy, inv_r):
    """C_x @ T @ C_y using the band structure in O(N*M).

    C_x is inv_r inside the off-diagonal band |i-k| in [1, wx], zero
    elsewhere. C_y is zero inside the band |j-l| in [1, wy] and one
    elsewhere, including the diagonal.
    """
    n, m = T.shape
    if wx <= 0:
        return np.zeros_like(T)
    cs = np.zeros((n + 1, m))
    np.cumsum(T, axis=0, out=cs[1:])
    hi = np.minimum(np.arange(n) + wx + 1, n)
    lo = np.maximum(np.arange(n) - wx, 0)
    a = inv_r * (cs[hi] - cs[lo] - T)  # window sum minus the delta = 0 term
    row = np.sum(a, axis=1)
    cs2 = np.zeros((n, m + 1))
    np.cumsum(a, axis=1, out=cs2[:, 1:])
    hj = np.minimum(np.arange(m) + wy + 1, m)
    lj = np.maximum(np.arange(m) - wy, 0)
    win = cs2[:, hj] - cs2[:, lj]
    return row[:, None] - win + a


def cidm_parts(X, pos, keep, sigma, lam):
    """Loss and gradient of the intra-video temporal regularizer.

    Ordered pairs (i, j), i != j, both kept: neighbours (|pos_i - pos_j| <=
    sigma) pay d/w, others pay w * max(0, lam - d), with w = (pos_i-pos_j)^2+1
    and d the euclidean embedding distance.
    """
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    delta = pos[:, None] - pos[None, :]
    w = delta * delta + 1.0
    near = np.abs(delta) <= sigma
    pair = np.outer(keep, keep)
    np.fill_diagonal(pair, False)
    attract = pair & near
    repel = pair & ~near
    hinge = np.maximum(0.0, lam - d)
    loss = np.sum(d[attract] / w[attract]) + np.sum(w[repel] * hinge[repel])
    # coefficient of (x_i - x_j)/d in dL/dx_i, summed over both orientations
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = np.where(d > 0.0, 1.0 / d, 0.0)
    coef = np.zeros_like(d)
    coef[attract] = inv_d[attract] / w[attract]
    active = repel & (d < lam) & (d > 0.0)
    coef[active] -= w[active] * inv_d[active]
    coef *= 2.0  # (i, j) and (j, i) contribute identically
    grad = coef.sum(axis=1)[:, None] * X - coef @ X
    return float(loss), grad


def active_backend() -> str:
    return "numpy"
