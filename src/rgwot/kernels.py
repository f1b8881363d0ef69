"""Hot numeric kernels with two interchangeable backends.

Each kernel exists twice: a vectorized numpy version and a numba @njit
version written as plain loops. At import time one set is selected; numba is
used when it imports cleanly and the environment variable RGWOT_NUMBA is not
set to 0/false/off. Both backends implement the same update order, so their
results agree to rounding.

Kernels:
  sinkhorn_log       log-domain Sinkhorn potential iterations
  banded_gw_product  C_x @ T @ C_y for the banded structural costs
  cidm_parts         temporal contrastive loss value and embedding gradient

`benchmarks/kernel_bench.py` times the two backends against each other.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba as nb
except ImportError:  # pragma: no cover - numba is an optional accelerator
    nb = None


def _env_wants_numba() -> bool:
    return os.environ.get("RGWOT_NUMBA", "1").strip().lower() not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def _lse_rows(m):
    """logsumexp along axis 1, safe for -inf rows."""
    mx = np.max(m, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    out = safe + np.log(np.sum(np.exp(m - safe[:, None]), axis=1))
    return np.where(np.isfinite(mx), out, mx)


def sinkhorn_log_numpy(G, logp, logq, eps, max_iters, tol, f0, g0):
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


def banded_gw_product_numpy(T, wx, wy, inv_r):
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


def cidm_parts_numpy(X, pos, keep, sigma, lam):
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


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

if nb is not None:
    kwd = {"cache": True, "fastmath": False}

    @nb.njit(**kwd)
    def _lse_vec(v):
        mx = v[0]
        for i in range(1, v.shape[0]):
            if v[i] > mx:
                mx = v[i]
        if mx == -np.inf:
            return -np.inf
        s = 0.0
        for i in range(v.shape[0]):
            s += np.exp(v[i] - mx)
        return mx + np.log(s)

    @nb.njit(**kwd)
    def sinkhorn_log_numba(G, logp, logq, eps, max_iters, tol, f0, g0):
        n, m = G.shape
        f = f0.copy()
        g = g0.copy()
        iters = 0
        violation = np.inf
        col = np.empty(n)
        row = np.empty(m)
        for it in range(1, max_iters + 1):
            for j in range(m):
                for i in range(n):
                    col[i] = (f[i] - G[i, j]) / eps
                g[j] = eps * (logq[j] - _lse_vec(col))
            for i in range(n):
                for j in range(m):
                    row[j] = (g[j] - G[i, j]) / eps
                f[i] = eps * (logp[i] - _lse_vec(row))
            violation = 0.0
            for j in range(m):
                for i in range(n):
                    col[i] = (f[i] + g[j] - G[i, j]) / eps
                err = abs(np.exp(_lse_vec(col)) - np.exp(logq[j]))
                if err > violation:
                    violation = err
            iters = it
            if violation <= tol:
                break
        return f, g, iters, violation

    @nb.njit(**kwd)
    def banded_gw_product_numba(T, wx, wy, inv_r):
        n, m = T.shape
        out = np.zeros((n, m))
        if wx <= 0:
            return out
        a = np.zeros((n, m))
        for j in range(m):
            run = 0.0
            hi = min(wx, n - 1)
            for k in range(hi + 1):
                run += T[k, j]
            for i in range(n):
                a[i, j] = inv_r * (run - T[i, j])
                nxt = i + wx + 1
                if nxt < n:
                    run += T[nxt, j]
                drop = i - wx
                if drop >= 0:
                    run -= T[drop, j]
        for i in range(n):
            total = 0.0
            for j in range(m):
                total += a[i, j]
            run = 0.0
            hi = min(wy, m - 1)
            for l in range(hi + 1):
                run += a[i, l]
            for j in range(m):
                out[i, j] = total - run + a[i, j]
                nxt = j + wy + 1
                if nxt < m:
                    run += a[i, nxt]
                drop = j - wy
                if drop >= 0:
                    run -= a[i, drop]
        return out

    @nb.njit(**kwd)
    def cidm_parts_numba(X, pos, keep, sigma, lam):
        n, dim = X.shape
        loss = 0.0
        grad = np.zeros((n, dim))
        for i in range(n):
            if not keep[i]:
                continue
            for j in range(i + 1, n):
                if not keep[j]:
                    continue
                d2 = 0.0
                for c in range(dim):
                    diff = X[i, c] - X[j, c]
                    d2 += diff * diff
                d = np.sqrt(d2)
                delta = pos[i] - pos[j]
                w = delta * delta + 1.0
                if abs(delta) <= sigma:
                    loss += 2.0 * d / w
                    if d > 0.0:
                        c0 = 2.0 / (w * d)
                        for c in range(dim):
                            diff = X[i, c] - X[j, c]
                            grad[i, c] += c0 * diff
                            grad[j, c] -= c0 * diff
                else:
                    if d < lam:
                        loss += 2.0 * w * (lam - d)
                        if d > 0.0:
                            c0 = -2.0 * w / d
                            for c in range(dim):
                                diff = X[i, c] - X[j, c]
                                grad[i, c] += c0 * diff
                                grad[j, c] -= c0 * diff
        return loss, grad

    HAS_NUMBA = True
else:  # pragma: no cover
    sinkhorn_log_numba = None
    banded_gw_product_numba = None
    cidm_parts_numba = None
    HAS_NUMBA = False


if HAS_NUMBA and _env_wants_numba():
    BACKEND = "numba"
    sinkhorn_log = sinkhorn_log_numba
    banded_gw_product = banded_gw_product_numba
    cidm_parts = cidm_parts_numba
else:
    BACKEND = "numpy"
    sinkhorn_log = sinkhorn_log_numpy
    banded_gw_product = banded_gw_product_numpy
    cidm_parts = cidm_parts_numpy


def active_backend() -> str:
    return BACKEND

