"""Entropic fused transport solver.

`sinkhorn` solves the linear entropic problem (`kernels.sinkhorn_log`). `solve_fgwot`
decides at entry, right after checking its problem, whether the structural
term is zero at every T (alpha = 0, or an empty C_x band, as on every training
clip); such a solve is the one `sinkhorn` solve of (1 - alpha) * C_tilde.
Otherwise it runs the outer linearization loop: at each step the structural
term is linearized into G = (1 - alpha) * C_tilde + 2 * alpha * (C_x T C_y)
and T is replaced by the entropic plan for G, warm-starting the dual
potentials. The loop stops when the L1 change of T falls below the tolerance.
A plan the next linearization replaces is solved only as accurately as the
last plan change asks; a plan it returns is exact.

`sinkhorn` and `solve_fgwot` check their problem once, at entry; each inner
solve is one `_entropic_plan`, whose potentials and plan are checked finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import NumericalOverflow, ShapeMismatch
from .priors import CostBundle

# stopping rule of solve_fgwot: at most _MAX_OUTER linearizations, stopping
# once the L1 change of T is at most _TOL. Each inner Sinkhorn solve runs at
# most _SINKHORN_ITERS sweeps. sinkhorn, the first and the last linearization,
# and every one after the objective rises run to a column violation of
# _INNER_TOL, which keeps the marginal error of a returned plan well under the
# outer movement tolerance. Every other linearization runs to
# max(_INNER_TOL, _INNER_FORCING * delta / m), with delta the last L1 plan
# change and m the number of columns: an inexact Newton forcing term. At
# _INNER_FORCING 3e-3 the objective rose on 36 of the 716 steps of
# test_objective_trace_mostly_non_increasing (680/716, under its 0.95 gate);
# at 1e-3 and 2e-3 on 34, as with every solve exact
_MAX_OUTER = 25
_SINKHORN_ITERS = 200
_TOL = 1e-6
_INNER_TOL = 1e-9
_INNER_FORCING = 1e-3


@dataclass(frozen=True)
class Coupling:
    """A transport plan plus solve diagnostics."""

    T: np.ndarray
    outer_iterations: int
    converged: bool
    final_delta: float
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    virtual: bool = False
    # linearizations whose final inner solve stopped at the sweep cap above
    # the tolerance it was held to
    inner_capped: int = 0
    # worst final column violation of the inner solves held to _INNER_TOL
    inner_violation: float = 0.0

    @property
    def real(self) -> np.ndarray:
        """T over real frames only: the virtual row and column dropped."""
        return self.T[:-1, :-1] if self.virtual else self.T


def _check_problem(G, p, q, epsilon):
    n, m = G.shape
    if p.shape != (n,) or q.shape != (m,):
        raise ShapeMismatch(f"marginals {p.shape}/{q.shape} do not fit cost {G.shape}")
    if not np.isfinite(G).all():
        raise ShapeMismatch("cost matrix contains non-finite entries")
    if np.any(p <= 0) or np.any(q <= 0):
        raise ShapeMismatch("marginals must be strictly positive")
    if epsilon <= 0:
        raise NumericalOverflow(f"epsilon must be positive, got {epsilon}")


def _entropic_plan(G, logp, logq, epsilon, max_iters, tol, f0, g0, K, out):
    """(plan, f, g, iters, violation) of one entropic solve of a checked problem:
    G is C-contiguous float64, K and out are C-contiguous buffers shaped like G."""
    f, g, iters, violation = kernels.sinkhorn_log(G, logp, logq, epsilon, max_iters, tol,
                                                  f0, g0, K)
    if not (np.isfinite(f).all() and np.isfinite(g).all() and np.isfinite(violation)):
        raise NumericalOverflow(
            f"sinkhorn potentials left the representable range (epsilon={epsilon})"
        )
    t = kernels.gibbs(f, g, G, epsilon, out)
    if not np.isfinite(t).all():
        raise NumericalOverflow("transport plan overflowed; epsilon too small for cost scale")
    return t, f, g, iters, float(violation)


def _sinkhorn(G, p, q, epsilon, max_iters, tol) -> Coupling:
    """`sinkhorn` of a checked problem: one entropic solve from zero
    potentials, in fresh buffers."""
    G = np.ascontiguousarray(G, dtype=np.float64)
    t, _, _, iters, violation = _entropic_plan(
        G, np.log(p), np.log(q), float(epsilon), int(max_iters), float(tol),
        np.zeros(G.shape[0]), np.zeros(G.shape[1]), np.empty(G.shape), np.empty(G.shape)
    )
    return Coupling(
        T=t,
        outer_iterations=iters,
        converged=violation <= tol,
        final_delta=violation,
        inner_capped=int(violation > tol),
        inner_violation=violation,
    )


def sinkhorn(G, p, q, epsilon, max_iters: int = _SINKHORN_ITERS,
             tol: float = _INNER_TOL) -> Coupling:
    """Entropic OT between histograms p and q for cost G.

    Returns the plan with converged=False (and inner_capped=1) when max_iters
    ran out before the column-marginal violation reached tol (row marginals
    are exact after the final row update).
    """
    _check_problem(G, p, q, epsilon)
    return _sinkhorn(G, p, q, epsilon, max_iters, tol)


def gw_gradient_fast(band_x, T, band_y) -> np.ndarray:
    """C_x @ T @ C_y in O(N*M) using prefix sums over the bands."""
    if T.shape != (band_x.size, band_y.size):
        raise ShapeMismatch(
            f"plan {T.shape} does not match bands ({band_x.size}, {band_y.size})"
        )
    return kernels.banded_gw_product(
        np.asarray(T, dtype=np.float64),
        int(band_x.radius),
        int(band_y.radius),
        float(band_x.value),
    )


def _gw_pad(bundle: CostBundle, T, out=None, scratch=None) -> np.ndarray:
    """Structural product on the real block, zero on the virtual frame.

    With out given, only its real block is written: its virtual row and
    column must already be zero.
    """
    n, m = bundle.n_real, bundle.m_real
    if out is None:
        out = np.zeros_like(T)
    kernels.banded_gw_product(T[:n, :m], bundle.band_x.radius, bundle.band_y.radius,
                              bundle.band_x.value, out[:n, :m], scratch)
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
    virtual frame), so that it is not computed twice. Without it, a bundle
    whose C_x band is empty takes the structural term as 0.0, the value the
    zero product gives, without computing the product. out, when given, is
    a C-contiguous scratch buffer shaped like T for the elementwise terms.
    """
    if gw_product is None:
        if T.shape != bundle.C_tilde.shape:
            raise ShapeMismatch(f"plan {T.shape} does not match cost {bundle.C_tilde.shape}")
        gw_product = _gw_pad(bundle, T) if bundle.band_x.radius > 0 else None
    buf = np.empty(T.shape) if out is None else out
    kot = float(np.sum(np.multiply(bundle.C_tilde, T, out=buf)))
    gw = 0.0 if gw_product is None else float(np.sum(np.multiply(gw_product, T, out=buf)))
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

    The bundle is checked once, before the first solve; a finite plan and a
    band value 1/r <= n keep every linearized cost finite. Right after the
    check the solve decides whether the structural term is zero at every T
    (alpha = 0, or an empty C_x band, as on every training clip). Then the
    first plan is the fixed point, and the solve is the one entropic solve of
    (1 - alpha) * C_tilde that `sinkhorn` runs, from zero potentials to
    _INNER_TOL: reported with outer_iterations 1, final_delta 0, its one
    objective value, and converged as that solve converged.

    Otherwise T starts at the product coupling p q^T and the potentials at
    zero. Each iteration re-linearizes the structural term and re-solves the
    entropic linear problem with warm potentials; convergence is an L1 change
    of T at most _TOL. The first linearization, linearization _MAX_OUTER and
    every one after the objective first rises above the one before are solved
    to _INNER_TOL. Any other is solved to max(_INNER_TOL, _INNER_FORCING *
    delta / m) with delta the last L1 plan change; if its objective rises
    above the one before, it is finished to _INNER_TOL from its own
    potentials before it is kept. The loop stops on delta <= _TOL only with a
    plan solved to _INNER_TOL, so the returned plan always is one. The result
    counts the linearizations whose final inner solve stopped at the sweep
    cap above the tolerance it was held to, and keeps the worst final column
    violation of the inner solves held to _INNER_TOL.
    """
    alpha = hyper.alpha
    eps = float(hyper.epsilon)
    p, q = bundle.p, bundle.q
    shape = bundle.C_tilde.shape
    n, m = bundle.n_real, bundle.m_real
    _check_problem(bundle.C_tilde, p, q, eps)
    if shape != (n + bundle.virtual, m + bundle.virtual):
        raise ShapeMismatch(f"bands ({n}, {m}) do not fit cost {shape}")
    fused = (1.0 - alpha) * bundle.C_tilde
    # alpha * C_x T C_y is zero at every T when alpha is 0 or the C_x band is
    # empty, so the linearized cost never changes and the first plan is the fixed point
    if alpha == 0.0 or bundle.band_x.radius == 0:
        c = _sinkhorn(fused, p, q, eps, _SINKHORN_ITERS, _INNER_TOL)
        return replace(c, outer_iterations=1, final_delta=0.0, virtual=bundle.virtual,
                       objective_trace=(fgwot_objective(bundle, c.T, alpha, eps).total,))
    logp, logq = np.log(p), np.log(q)
    # Every n x m step of an iteration writes into these buffers, with the
    # operations of the plain expressions in the same order, so the plans
    # keep every bit. The plan is double-buffered: t is the last plan,
    # t_new receives the next.
    t, t_new = np.empty(shape), np.empty(shape)
    kernel = np.empty(shape)
    grad = np.empty(shape)
    product = np.zeros(shape)  # its virtual row and column stay zero
    scratch = np.empty(shape)
    banded = np.empty(n * m + (n + 1) * (m + 1))
    np.multiply(p[:, None], q[None, :], out=t)  # the product coupling
    f, g = np.zeros(shape[0]), np.zeros(shape[1])
    trace = []
    converged = False
    risen = False
    capped = 0
    worst = 0.0
    _gw_pad(bundle, t, product, banded)
    for it in range(1, _MAX_OUTER + 1):
        # grad = (1 - alpha) * C_tilde + 2 * alpha * product
        np.multiply(product, 2.0 * alpha, out=grad)
        np.add(fused, grad, out=grad)
        tol = _INNER_TOL
        if not (it == 1 or it == _MAX_OUTER or risen):
            tol = max(_INNER_TOL, _INNER_FORCING * delta / shape[1])
        while True:
            t_new, f, g, _, violation = _entropic_plan(
                grad, logp, logq, eps, _SINKHORN_ITERS, tol, f, g, kernel, t_new
            )
            # the objective of t_new and the next linearization share its product
            _gw_pad(bundle, t_new, product, banded)
            value = fgwot_objective(bundle, t_new, alpha, eps, product, scratch).total
            risen = risen or bool(trace) and value > trace[-1]
            if not (risen and tol > _INNER_TOL):
                break
            tol = _INNER_TOL  # finish this linearization from its own potentials
        trace.append(value)
        capped += violation > tol
        if tol == _INNER_TOL:
            worst = max(worst, violation)
        np.subtract(t_new, t, out=scratch)
        delta = float(np.abs(scratch, out=scratch).sum())
        t, t_new = t_new, t
        # a loose plan is not returned: at delta <= _TOL the next solve is exact
        if delta <= _TOL and tol == _INNER_TOL:
            converged = True
            break
    return Coupling(
        T=t,
        outer_iterations=it,
        converged=converged,
        final_delta=delta,
        objective_trace=tuple(trace),
        virtual=bundle.virtual,
        inner_capped=capped,
        inner_violation=worst,
    )
