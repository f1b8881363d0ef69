"""Entropic fused transport solver.

`sinkhorn` solves the linear entropic problem (`kernels.sinkhorn_log`). `solve_fgwot`
runs the outer linearization loop: at each step the structural term is
linearized into G = (1 - alpha) * C_tilde + 2 * alpha * (C_x T C_y) and T is
replaced by the entropic plan for G, warm-starting the dual potentials. The
loop stops when the L1 change of T falls below the tolerance, or after the
first solve when the structural term is zero at every T (alpha = 0, or an
empty C_x band).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NumericalOverflow, ShapeMismatch
from .priors import CostBundle

# stopping rule of solve_fgwot: at most _MAX_OUTER linearizations, stopping
# once the L1 change of T is at most _TOL; each inner Sinkhorn solve runs at
# most _SINKHORN_ITERS sweeps to a column violation of _INNER_TOL, which keeps
# the inner marginal error well under the outer movement tolerance
_MAX_OUTER = 25
_SINKHORN_ITERS = 200
_TOL = 1e-6
_INNER_TOL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """A transport plan plus solve diagnostics."""

    T: np.ndarray
    outer_iterations: int
    converged: bool
    final_delta: float
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    virtual: bool = False
    inner_capped: int = 0  # inner Sinkhorn solves that stopped at the sweep cap above tol
    inner_violation: float = 0.0  # worst final column violation of the inner solves

    @property
    def real(self) -> np.ndarray:
        """T over real frames only: the virtual row and column dropped."""
        return self.T[:-1, :-1] if self.virtual else self.T


def _validate_marginals(G, p, q):
    n, m = G.shape
    if p.shape != (n,) or q.shape != (m,):
        raise ShapeMismatch(f"marginals {p.shape}/{q.shape} do not fit cost {G.shape}")
    if not np.isfinite(G).all():
        raise ShapeMismatch("cost matrix contains non-finite entries")
    if np.any(p <= 0) or np.any(q <= 0):
        raise ShapeMismatch("marginals must be strictly positive")


def _sinkhorn_core(G, p, q, epsilon, max_iters, tol, f0=None, g0=None,
                   logs=None, K=None, out=None):
    """Plan and potentials of one entropic solve.

    logs, when given, is (log p, log q); K and out, when given, are
    C-contiguous buffers shaped like G for the kernel and for the plan.
    """
    _validate_marginals(G, p, q)
    if epsilon <= 0:
        raise NumericalOverflow(f"epsilon must be positive, got {epsilon}")
    logp, logq = (np.log(p), np.log(q)) if logs is None else logs
    f0 = np.zeros_like(p) if f0 is None else np.asarray(f0, dtype=np.float64)
    g0 = np.zeros_like(q) if g0 is None else np.asarray(g0, dtype=np.float64)
    f, g, iters, violation = kernels.sinkhorn_log(
        np.ascontiguousarray(G, dtype=np.float64),
        logp,
        logq,
        float(epsilon),
        int(max_iters),
        float(tol),
        f0,
        g0,
        K,
    )
    if not (np.isfinite(f).all() and np.isfinite(g).all() and np.isfinite(violation)):
        raise NumericalOverflow(
            f"sinkhorn potentials left the representable range (epsilon={epsilon})"
        )
    t = kernels.gibbs(f, g, G, epsilon, np.empty(G.shape) if out is None else out)
    if not np.isfinite(t).all():
        raise NumericalOverflow("transport plan overflowed; epsilon too small for cost scale")
    return t, f, g, iters, float(violation)


def sinkhorn(G, p, q, epsilon, max_iters: int = _SINKHORN_ITERS,
             tol: float = _INNER_TOL) -> Coupling:
    """Entropic OT between histograms p and q for cost G.

    Returns the plan with converged=False (and inner_capped=1) when max_iters
    ran out before the column-marginal violation reached tol (row marginals
    are exact after the final row update).
    """
    t, _, _, iters, violation = _sinkhorn_core(G, p, q, epsilon, max_iters, tol)
    return Coupling(
        T=t,
        outer_iterations=iters,
        converged=violation <= tol,
        final_delta=violation,
        inner_capped=int(violation > tol),
        inner_violation=violation,
    )


def gw_gradient_fast(band_x, T, band_y, out=None, scratch=None) -> np.ndarray:
    """C_x @ T @ C_y in O(N*M) using prefix sums over the bands.

    out and scratch, when given, are the buffers of kernels.banded_gw_product.
    """
    if T.shape != (band_x.size, band_y.size):
        raise ShapeMismatch(
            f"plan {T.shape} does not match bands ({band_x.size}, {band_y.size})"
        )
    return kernels.banded_gw_product(
        np.asarray(T, dtype=np.float64),
        int(band_x.radius),
        int(band_y.radius),
        float(band_x.value),
        out,
        scratch,
    )


def _gw_pad(bundle: CostBundle, T, out=None, scratch=None) -> np.ndarray:
    """Structural product on the real block, zero on the virtual frame.

    With out given, only its real block is written: its virtual row and
    column must already be zero.
    """
    n, m = bundle.n_real, bundle.m_real
    if out is None:
        out = np.zeros_like(T)
    gw_gradient_fast(bundle.band_x, T[:n, :m], bundle.band_y, out[:n, :m], scratch)
    return out


@dataclass(frozen=True)
class ObjectiveParts:
    kot: float
    gw: float
    entropy: float
    total: float


def fgwot_objective(bundle: CostBundle, T, alpha: float, epsilon: float,
                    gw_product=None, out=None) -> ObjectiveParts:
    """Entropy-regularized fused objective and its three terms.

    total = (1 - alpha) <C_tilde, T> + alpha <C_x T C_y, T> - epsilon * H(T)
    with H(T) = -sum T log T. gw_product, when given, is the structural
    product C_x T C_y of this T as solve_fgwot computes it (zero on the
    virtual frame), so that it is not computed twice. out, when given, is a
    C-contiguous scratch buffer shaped like T for the elementwise terms.
    """
    if gw_product is None:
        gw_product = _gw_pad(bundle, T)
    buf = np.empty(T.shape) if out is None else out
    kot = float(np.sum(np.multiply(bundle.C_tilde, T, out=buf)))
    gw = float(np.sum(np.multiply(gw_product, T, out=buf)))
    # T log T where T > 0 and 0 elsewhere
    positive = T > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(T, np.log(T, out=buf), out=buf)
    if not positive.all():
        buf[~positive] = 0.0
    entropy = float(-np.sum(buf))
    total = (1.0 - alpha) * kot + alpha * gw - epsilon * entropy
    return ObjectiveParts(kot=kot, gw=gw, entropy=entropy, total=total)


def solve_fgwot(bundle: CostBundle, hyper) -> Coupling:
    """Outer loop of the fused solver.

    T starts at the product coupling p q^T. Each iteration re-linearizes the
    structural term and re-solves the entropic linear problem with warm
    potentials; convergence is an L1 change of T at most _TOL.
    When the structural term is zero at every T, the first plan is the fixed
    point: the solve is one Sinkhorn solve of (1 - alpha) * C_tilde, reported
    with final_delta 0 and converged as that inner solve converged.
    The result counts the inner solves that stopped at the sweep cap with
    their column violation above the inner tolerance, and keeps the worst
    inner violation.
    """
    alpha = hyper.alpha
    eps = hyper.epsilon
    p, q = bundle.p, bundle.q
    logs = np.log(p), np.log(q)
    n, m = bundle.n_real, bundle.m_real
    # Every n x m step of an iteration writes into these buffers, with the
    # operations of the plain expressions in the same order, so the plans
    # keep every bit. The plan is double-buffered: t is the last plan,
    # t_new receives the next.
    shape = bundle.C_tilde.shape
    t, t_new = np.empty(shape), np.empty(shape)
    kernel = np.empty(shape)
    grad = np.empty(shape)
    product = np.zeros(shape)  # its virtual row and column stay zero
    scratch = np.empty(shape)
    banded = np.empty(n * m + (n + 1) * (m + 1)) if bundle.band_x.radius > 0 else None
    fused = (1.0 - alpha) * bundle.C_tilde
    np.multiply(p[:, None], q[None, :], out=t)  # the product coupling
    f = g = None
    trace = []
    delta = np.inf
    converged = False
    iters = 0
    capped = 0
    worst = 0.0
    _gw_pad(bundle, t, product, banded)
    for it in range(1, _MAX_OUTER + 1):
        # grad = (1 - alpha) * C_tilde + 2 * alpha * product
        np.multiply(product, 2.0 * alpha, out=grad)
        np.add(fused, grad, out=grad)
        t_new, f, g, _, violation = _sinkhorn_core(
            grad, p, q, eps, _SINKHORN_ITERS, _INNER_TOL, f, g, logs, kernel, t_new
        )
        capped += violation > _INNER_TOL
        worst = max(worst, violation)
        # the objective of t_new and the next linearization share its product
        _gw_pad(bundle, t_new, product, banded)
        trace.append(fgwot_objective(bundle, t_new, alpha, eps, product, scratch).total)
        iters = it
        # alpha * C_x T C_y is zero at every T when alpha is 0 or the C_x band
        # is empty, so the linearized cost never changes and t_new is the fixed point
        if alpha == 0.0 or bundle.band_x.radius == 0:
            t, delta, converged = t_new, 0.0, violation <= _INNER_TOL
            break
        np.subtract(t_new, t, out=scratch)
        delta = float(np.abs(scratch, out=scratch).sum())
        t, t_new = t_new, t
        if delta <= _TOL:
            converged = True
            break
    return Coupling(
        T=t,
        outer_iterations=iters,
        converged=converged,
        final_delta=delta,
        objective_trace=tuple(trace),
        virtual=bundle.virtual,
        inner_capped=capped,
        inner_violation=worst,
    )
