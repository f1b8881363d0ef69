"""Hot numeric kernels, vectorized with numpy.

Kernels:
  gibbs              the Gibbs kernel exp((f + g - G) / eps) of potentials f, g
  sinkhorn_log       Sinkhorn sweeps in the scaling domain with safeguarded
                     extrapolation, restarted in the log domain on overflow
  banded_gw_product  C_x @ T @ C_y for the banded structural costs
  cidm_parts         temporal contrastive loss value and embedding gradient

Callers reach them as ``kernels.<name>`` so a profiler can rebind the module
attributes; `perfbench/run.py --trace 1` times all but gibbs that way.
"""

from __future__ import annotations

import math

import numpy as np


def _lse_rows(m):
    """logsumexp along axis 1, safe for -inf rows. Overwrites m."""
    mx = np.max(m, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    np.subtract(m, safe[:, None], out=m)
    out = safe + np.log(np.sum(np.exp(m, out=m), axis=1))
    return np.where(np.isfinite(mx), out, mx)


# at a check, scalings u, v outside this range restart the solve in the log domain
_SCALING_MIN, _SCALING_MAX = 1e-100, 1e100
# sweeps per check of the violation and the range. On a 33x33 clip a check
# costs more than the two mat-vecs of a sweep; the Sinkhorn solves of a
# 30-epoch train on easy took the same time at 8, 12 and 16 sweeps per
# check, and 8 runs the fewest extra sweeps
_CHECK = 8
# an extrapolation fires only when the violation fell by a ratio rho with
# _RHO_MIN < rho < 1 over the block before. A faster fall means the slow mode
# does not yet dominate the error, so the geometric-series step has little to
# extrapolate. With no lower bound the fused outer objective rose on 36 of
# the 716 steps of test_objective_trace_mostly_non_increasing (680/716 =
# 0.9497, under its 0.95 gate); with 0.3 it rose on 34 (682/716 = 0.9525)
_RHO_MIN = 0.3


def gibbs(f, g, G, eps, out):
    """exp((f_i + g_j - G_ij) / eps), one operation at a time in out (shaped like G)."""
    np.add(f[:, None], g[None, :], out=out)
    np.subtract(out, G, out=out)
    np.divide(out, eps, out=out)
    return np.exp(out, out=out)


def sinkhorn_log(G, logp, logq, eps, max_iters, tol, f0, g0, K=None):
    """Entropic OT dual potentials by Sinkhorn sweeps from (f0, g0).

    Returns (f, g, iters, violation) where violation is the max absolute
    column-marginal error of the implied plan after the final row update
    (row marginals are exact by construction at that point).

    The sweeps run in the scaling domain: with K = exp((f0 + g0 - G)/eps),
    f = f0 + eps log u and g = g0 + eps log v, the log-domain updates become
    v = q / K^T u and u = p / K v, two mat-vecs per sweep. K^T u is then
    computed once and serves the next sweep's v and, at a check, the column
    violation v * K^T u - q. K is built once, in place in the optional
    buffer K (C-contiguous, shaped like G), which a restart in the log domain
    reuses as its scratch; without it the kernel allocates one. The violation
    and the range of the scalings are checked only after sweeps that are
    multiples of _CHECK and after sweep max_iters, so a converged solve stops
    at the first check whose violation is at most tol, up to _CHECK - 1
    sweeps after the first sweep that met it.

    Between checks the sweeps converge linearly, so some checks take one
    Aitken step on the slow mode. When a check ends a block of plain sweeps,
    the check before it passed too, the violation is above tol, this is not
    the last block, and the violation fell by a ratio rho with
    _RHO_MIN < rho < 1 since that check, the state is saved and
    u <- u * (u / u_prev)^(rho / (1 - rho)), with u_prev the scaling of the
    check before; K^T u is recomputed (one more mat-vec, not counted in
    iters) and the next block runs from there. Its check keeps the result
    only if the scalings are in range and the violation fell below the saved
    one; otherwise the saved state is restored. Either way that check counts
    as passed for the next step.

    A check after a plain block whose scalings leave [1e-100, 1e100], or
    whose violation is not finite, restarts the solve in the log-domain loop:
    it returns _sinkhorn_log_domain from (f0, g0), the reference solve, which
    runs its own sweeps from sweep 0; iters then counts only those. An inf
    or nan scaling leaves the scalings of every later sweep out of range, so
    it shows at the next check. An overflowed entry of K, or an all-zero row
    or column, makes the first sweep's scalings 0, inf or nan, so the first
    check fails. An extrapolated block that leaves the range is restored,
    not handed over. Both loops check after the same sweeps and extrapolate
    under the same rule. They take the same iterates unless an extrapolated
    block leaves the scaling range, which this loop rejects and the
    log-domain loop, having no range, may keep, or rounding decides one of
    the comparisons, as when a stalled solve has rho within rounding of 1.
    """
    p = np.exp(logp)
    q = np.exp(logq)
    u = np.ones_like(p)
    v = np.ones_like(q)
    iters = 0
    violation = np.inf
    prev = None  # (violation, u) at the last check that passed
    saved = None  # (u, v, K^T u, violation) before an extrapolation
    # overflow and 0-division show up as scalings out of range below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = gibbs(f0, g0, G, eps, np.empty(G.shape) if K is None else K)
        ktu = K.sum(axis=0)
        # ndarray.dot makes the BLAS call of @ with less overhead per call:
        # 0.57 against 1.03 us for a 33x33 mat-vec, 3.0 against 3.4 us at 132x131
        for start in range(0, max_iters, _CHECK):
            end = min(start + _CHECK, max_iters)
            for _ in range(start, end):
                v_new = q / ktu
                u_new = p / K.dot(v_new)
                ktu = u_new.dot(K)
            violation = np.max(np.abs(v_new * ktu - q))
            in_range = (_SCALING_MIN <= u_new.min() and u_new.max() <= _SCALING_MAX
                        and _SCALING_MIN <= v_new.min() and v_new.max() <= _SCALING_MAX
                        and math.isfinite(violation))
            extrapolated, saved = saved, None
            if extrapolated is None and not in_range:
                return _sinkhorn_log_domain(G, logp, logq, eps, max_iters, tol, f0, g0, K)
            if extrapolated is not None and not (in_range and violation < extrapolated[3]):
                u_new, v_new, ktu, violation = extrapolated
            base, prev = prev, (violation, u_new)
            u, v = u_new, v_new
            iters = end
            if violation <= tol:
                break
            if extrapolated is None and base is not None and end < max_iters:
                rho = violation / base[0]
                if _RHO_MIN < rho < 1.0:
                    saved = (u, v, ktu, violation)
                    u = u * (u / base[1]) ** (rho / (1.0 - rho))
                    ktu = u.dot(K)
    return f0 + eps * np.log(u), g0 + eps * np.log(v), iters, violation


def _sinkhorn_log_domain(G, logp, logq, eps, max_iters, tol, f, g, buf=None):
    """The same sweeps from (f, g) with log-sum-exps over G.

    The reference solve of sinkhorn_log, and its fallback. The violation is
    checked after the same sweeps: multiples of _CHECK and sweep max_iters.
    The extrapolation is the same step on the potentials,
    f <- f + rho / (1 - rho) * (f - f_prev), under the same rule, kept only
    if the violation fell below the saved one.
    """
    q = np.exp(logq)
    # Every n x m temporary of a sweep is computed in this one buffer (the
    # caller's, when given). Fresh ones cost a page fault per page per sweep
    # once the allocator hands them back to the OS. G and buf are
    # C-contiguous, so buf has the layout the temporaries had, and each sum
    # adds in the same order.
    if buf is None:
        buf = np.empty(G.shape)

    def scaled(shift):
        np.subtract(shift, G, out=buf)
        return np.divide(buf, eps, out=buf)

    iters = 0
    violation = np.inf
    prev = None
    saved = None
    for it in range(1, max_iters + 1):
        g = eps * (logq - _lse_rows(scaled(f[:, None]).T))
        f = eps * (logp - _lse_rows(scaled(g[None, :])))
        iters = it
        if it % _CHECK and it != max_iters:
            continue
        log_col = _lse_rows(scaled(np.add(f[:, None], g[None, :], out=buf)).T)
        violation = np.max(np.abs(np.exp(log_col) - q))
        extrapolated, saved = saved, None
        if extrapolated is not None and not violation < extrapolated[2]:
            f, g, violation = extrapolated
        base, prev = prev, (violation, f)
        if violation <= tol:
            break
        if extrapolated is None and base is not None and it < max_iters:
            rho = violation / base[0]
            if _RHO_MIN < rho < 1.0:
                saved = (f, g, violation)
                f = f + rho / (1.0 - rho) * (f - base[1])
    return f, g, iters, violation


def banded_gw_product(T, wx, wy, inv_r, out=None, scratch=None):
    """C_x @ T @ C_y using the band structure in O(N*M).

    C_x is inv_r inside the off-diagonal band |i-k| in [1, wx], zero
    elsewhere. C_y is zero inside the band |j-l| in [1, wy] and one
    elsewhere, including the diagonal.

    The result is written into out (any n x m float64 array, a view
    included) when it is given. scratch, when given, is a float64 array of
    at least n*m + (n+1)*(m+1) entries that holds the prefix sums; without
    it the kernel allocates one. Each window sum is the difference of two
    prefix sums, taken from shifted slices.
    """
    n, m = T.shape
    if out is None:
        out = np.empty((n, m))
    if wx <= 0:
        out[...] = 0.0
        return out
    if scratch is None:
        scratch = np.empty(n * m + (n + 1) * (m + 1))
    a = scratch[:n * m].reshape(n, m)
    cs = scratch[n * m:n * m + (n + 1) * m].reshape(n + 1, m)
    cs[0] = 0.0
    np.cumsum(T, axis=0, out=cs[1:])
    # a = inv_r * (cs[hi] - cs[lo] - T), hi = min(i + w + 1, n), lo = max(i - w, 0):
    # the window sum minus the delta = 0 term. Rows below w have lo = 0,
    # where cs[0] is zero and subtracting it changes no bit
    w = min(wx, n - 1)
    a[:n - w - 1] = cs[w + 1:n]
    a[n - w - 1:] = cs[n]
    np.subtract(a[w:], cs[:n - w], out=a[w:])
    np.subtract(a, T, out=a)
    np.multiply(a, inv_r, out=a)
    row = np.sum(a, axis=1)
    cs2 = scratch[n * m:n * m + n * (m + 1)].reshape(n, m + 1)
    cs2[:, 0] = 0.0
    np.cumsum(a, axis=1, out=cs2[:, 1:])
    # out = row - (cs2[:, hj] - cs2[:, lj]) + a, the same windows along columns
    v = min(wy, m - 1)
    out[:, :m - v - 1] = cs2[:, v + 1:m]
    out[:, m - v - 1:] = cs2[:, m:]
    np.subtract(out[:, v:], cs2[:, :m - v], out=out[:, v:])
    np.subtract(row[:, None], out, out=out)
    np.add(out, a, out=out)
    return out


def cidm_parts(X, pos, sigma, lam):
    """Loss and gradient of the intra-video temporal regularizer.

    Every ordered pair (i, j), i != j: neighbours (|pos_i - pos_j| <= sigma)
    pay d/w, others pay w * max(0, lam - d), with w = (pos_i-pos_j)^2+1 and d
    the euclidean embedding distance.
    """
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    delta = pos[:, None] - pos[None, :]
    w = delta * delta + 1.0
    near = np.abs(delta) <= sigma
    pair = ~np.eye(n, dtype=bool)
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
