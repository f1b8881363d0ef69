import warnings
from dataclasses import replace

import numpy as np
import pytest

from rgwot import kernels, solver
from rgwot.data_model import Hyperparams
from rgwot.errors import NumericalOverflow, ShapeMismatch
from rgwot.priors import build_cost_bundle, structural_priors
from rgwot.solver import (
    Coupling,
    fgwot_objective,
    gw_gradient_fast,
    sinkhorn,
    solve_fgwot,
)

from conftest import rel_err


def uniform(n):
    return np.full(n, 1.0 / n)


class TestSinkhorn:
    def test_constant_cost_gives_product_coupling(self):
        g = np.full((4, 6), 3.7)
        c = sinkhorn(g, uniform(4), uniform(6), epsilon=0.1)
        assert np.allclose(c.T, 1.0 / 24.0, atol=1e-12)
        assert c.converged

    def test_2x2_analytic_fixed_point(self):
        # symmetric cost [[0,1],[1,0]] with eps=0.05: the fixed point is
        # T = 1/(2(1+s)) * [[1, s], [s, 1]] with s = exp(-1/eps)
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = sinkhorn(g, uniform(2), uniform(2), epsilon=0.05)
        s = np.exp(-20.0)
        want = np.array([[1.0, s], [s, 1.0]]) / (2.0 * (1.0 + s))
        assert np.abs(c.T - want).max() < 1e-6
        assert c.T[0, 0] == pytest.approx(0.5, abs=1e-8)  # near-hard assignment

    @pytest.mark.parametrize("seed", range(10))
    def test_marginal_feasibility(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        g = rng.random((n, m)) * 2.0
        c = sinkhorn(g, uniform(n), uniform(m), epsilon=0.07)
        assert np.abs(c.T.sum(axis=1) - uniform(n)).max() < 1e-6
        assert np.abs(c.T.sum(axis=0) - uniform(m)).max() < 1e-6
        assert (c.T > 0).all()

    def test_row_marginals_exact_after_final_row_update(self, rng):
        g = rng.random((8, 5))
        c = sinkhorn(g, uniform(8), uniform(5), epsilon=0.05)
        assert np.abs(c.T.sum(axis=1) - 1.0 / 8.0).max() < 1e-14

    def test_non_convergence_is_flagged_not_raised(self, rng):
        g = rng.random((12, 12)) * 3.0
        c = sinkhorn(g, uniform(12), uniform(12), epsilon=0.01, max_iters=1, tol=1e-14)
        assert not c.converged
        assert c.outer_iterations == 1
        assert np.isfinite(c.final_delta)

    def test_inner_diagnostics(self, rng):
        g = rng.random((12, 12)) * 3.0
        capped = sinkhorn(g, uniform(12), uniform(12), epsilon=0.01, max_iters=1, tol=1e-14)
        assert capped.inner_capped == 1
        assert capped.inner_violation == capped.final_delta
        done = sinkhorn(g, uniform(12), uniform(12), epsilon=0.1)
        assert done.inner_capped == 0
        assert done.inner_violation == done.final_delta <= 1e-9

    def test_epsilon_must_be_positive(self):
        g = np.zeros((2, 2))
        with pytest.raises(NumericalOverflow):
            sinkhorn(g, uniform(2), uniform(2), epsilon=0.0)

    def test_rejects_bad_inputs(self):
        g = np.zeros((2, 2))
        with pytest.raises(ShapeMismatch):
            sinkhorn(g, uniform(3), uniform(2), epsilon=0.1)
        with pytest.raises(ShapeMismatch):
            sinkhorn(np.array([[np.nan, 0.0], [0.0, 0.0]]), uniform(2), uniform(2), 0.1)
        with pytest.raises(ShapeMismatch):
            sinkhorn(g, np.array([1.0, 0.0]), uniform(2), epsilon=0.1)


def _log_domain(G, p, q, eps, max_iters, tol, f0, g0):
    return kernels._sinkhorn_log_domain(G, np.log(p), np.log(q), eps, max_iters, tol,
                                        f0.copy(), g0.copy())


def _scaling(G, p, q, eps, max_iters, tol, f0, g0):
    return kernels.sinkhorn_log(G, np.log(p), np.log(q), eps, max_iters, tol, f0, g0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(kernels, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def _assert_same_solve(got, want):
    assert got[2] == want[2]
    assert np.abs(got[0] - want[0]).max() < 1e-12
    assert np.abs(got[1] - want[1]).max() < 1e-12


def _assert_restarted(got, want):
    """A handover returns the log-domain solve from (f0, g0) bit for bit."""
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] == want[3]


class TestSinkhornKernel:
    """The scaling-domain sweep against the log-domain loop, which is both the
    reference solve and the fallback a failed check restarts from (f0, g0)."""

    @pytest.mark.parametrize("eps", [0.07, 0.01])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_log_domain(self, seed, eps, warm):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 65)), int(rng.integers(2, 65))
        G = rng.uniform(0.0, 2.0, (n, m))
        p = rng.uniform(0.5, 1.5, n)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, m)
        q /= q.sum()
        f0 = rng.normal(scale=0.1, size=n) if warm else np.zeros(n)
        g0 = rng.normal(scale=0.1, size=m) if warm else np.zeros(m)
        got = _scaling(G, p, q, eps, 200, 1e-9, f0, g0)
        want = _log_domain(G, p, q, eps, 200, 1e-9, f0, g0)
        _assert_same_solve(got, want)
        assert got[3] == pytest.approx(want[3], rel=1e-6, abs=1e-15)
        assert got[2] % kernels._CHECK == 0 or got[2] == 200

    def test_underflowing_kernel_falls_back(self, rng, monkeypatch):
        # exp(-G/eps) is 0 in every entry: no scaling sweep can start
        G = 1.0 + rng.uniform(0.0, 1.0, (20, 24))
        p, q = uniform(20), uniform(24)
        assert not np.exp(-G / 1e-3).any()
        want = _log_domain(G, p, q, 1e-3, 5000, 1e-7, np.zeros(20), np.zeros(24))
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        got = _scaling(G, p, q, 1e-3, 5000, 1e-7, np.zeros(20), np.zeros(24))
        assert len(fallbacks) == 1
        _assert_restarted(got, want)
        f, g, _, violation = got
        assert violation <= 1e-7
        t = np.exp((f[:, None] + g[None, :] - G) / 1e-3)
        assert np.abs(t.sum(axis=1) - p).max() < 1e-6
        assert np.abs(t.sum(axis=0) - q).max() < 1e-6

    def test_overflowing_scaling_falls_back_at_that_sweep(self, rng, monkeypatch):
        # a column of subnormal kernel entries at eps=0.01, and a kernel that
        # spans 1e-109..1e-217 at eps=4e-3: in both the first v leaves the range
        subnormal = rng.uniform(0.0, 2.0, (10, 12))
        subnormal[:, 3] = 7.36
        instances = [(subnormal, 0.01), (1.0 + rng.uniform(0.0, 1.0, (30, 26)), 4e-3)]
        for G, eps in instances:
            p, q = uniform(G.shape[0]), uniform(G.shape[1])
            f0, g0 = np.zeros_like(p), np.zeros_like(q)
            want = _log_domain(G, p, q, eps, 300, 1e-9, f0, g0)
            fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
            got = _scaling(G, p, q, eps, 300, 1e-9, f0, g0)
            monkeypatch.undo()
            assert len(fallbacks) == 1
            _assert_restarted(got, want)

    def test_restarts_after_a_passed_check(self, monkeypatch):
        # the scalings first leave the range at sweep 12: the check after
        # sweep 8 passes, the one after sweep 16 fails, and the solve restarts
        # in the log domain from (f0, g0)
        G = np.random.default_rng(745).uniform(0.0, 1.0, (8, 30))
        p, q = uniform(8), uniform(30)
        f0, g0 = np.zeros(8), np.zeros(30)
        assert kernels._CHECK == 8
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        _scaling(G, p, q, 2e-3, 8, 0.0, f0, g0)
        assert not fallbacks
        got = _scaling(G, p, q, 2e-3, 200, 1e-9, f0, g0)
        monkeypatch.undo()
        assert len(fallbacks) == 1
        want = _log_domain(G, p, q, 2e-3, 200, 1e-9, f0, g0)
        _assert_restarted(got, want)

    def test_overflowing_warm_start_hands_over_after_sweep_zero(self, rng, monkeypatch):
        # f0[2] = 60 at eps = 0.07 overflows row 2 of K = exp((f0 + g0 - G)/eps)
        G = rng.uniform(0.0, 2.0, (10, 12))
        p, q = uniform(10), uniform(12)
        f0 = np.zeros(10)
        f0[2] = 60.0
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _scaling(G, p, q, 0.07, 200, 1e-9, f0, np.zeros(12))
        assert len(fallbacks) == 1
        want = _log_domain(G, p, q, 0.07, 200, 1e-9, f0, np.zeros(12))
        _assert_restarted(got, want)
        assert want[3] <= 1e-9


    def test_extrapolation_halves_the_sweeps_of_a_slow_solve(self, monkeypatch):
        G = np.random.default_rng(0).uniform(0.0, 1.0, (30, 34))
        p, q = uniform(30), uniform(34)
        f0, g0 = np.zeros(30), np.zeros(34)
        fast = _scaling(G, p, q, 0.01, 5000, 1e-9, f0, g0)
        monkeypatch.setattr(kernels, "_RHO_MIN", 1.0)  # no ratio passes: plain sweeps only
        plain = _scaling(G, p, q, 0.01, 5000, 1e-9, f0, g0)
        assert plain[3] <= 1e-9 and fast[3] <= 1e-9
        assert plain[2] >= 300
        assert fast[2] < plain[2] / 2
        t_fast = np.exp((fast[0][:, None] + fast[1][None, :] - G) / 0.01)
        t_plain = np.exp((plain[0][:, None] + plain[1][None, :] - G) / 0.01)
        # two paths to the same plan, each within 1e-9 of the marginals
        assert np.abs(t_fast - t_plain).max() < 1e-8

    def test_rejected_extrapolation_restores_the_saved_state(self, monkeypatch):
        # here the step taken at the check after sweep 16 raises the
        # violation, so the check after sweep 24 restores the state of sweep 16
        G = np.random.default_rng(0).uniform(0.0, 1.0, (12, 16))
        p, q = uniform(12), uniform(16)
        f0, g0 = np.zeros(12), np.zeros(16)
        assert kernels._CHECK == 8
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        restored = _scaling(G, p, q, 0.005, 24, 0.0, f0, g0)
        got = _scaling(G, p, q, 0.005, 2000, 1e-9, f0, g0)
        assert not fallbacks
        monkeypatch.setattr(kernels, "_RHO_MIN", 1.0)
        plain_16 = _scaling(G, p, q, 0.005, 16, 0.0, f0, g0)
        plain_24 = _scaling(G, p, q, 0.005, 24, 0.0, f0, g0)
        monkeypatch.undo()
        assert restored[2] == 24
        assert restored[3] == plain_16[3]
        assert np.array_equal(restored[0], plain_16[0])
        assert np.array_equal(restored[1], plain_16[1])
        assert np.abs(restored[0] - plain_24[0]).max() > 1e-6
        want = _log_domain(G, p, q, 0.005, 2000, 1e-9, f0, g0)
        _assert_same_solve(got, want)
        assert want[3] <= 1e-9

    def test_restarts_after_an_accepted_extrapolation(self, monkeypatch):
        # the step taken after sweep 16 is kept at sweep 24, and the scalings
        # leave the range by sweep 32: the solve restarts in the log domain
        # from (f0, g0)
        G = np.random.default_rng(317).uniform(0.0, 1.0, (16, 12))
        p, q = uniform(16), uniform(12)
        f0, g0 = np.zeros(16), np.zeros(12)
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        kept = _scaling(G, p, q, 1.5e-3, 24, 0.0, f0, g0)
        assert not fallbacks
        monkeypatch.setattr(kernels, "_RHO_MIN", 1.0)
        plain_24 = _scaling(G, p, q, 1.5e-3, 24, 0.0, f0, g0)
        monkeypatch.undo()
        assert kept[3] < plain_24[3]
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        got = _scaling(G, p, q, 1.5e-3, 400, 1e-9, f0, g0)
        monkeypatch.undo()
        assert len(fallbacks) == 1
        want = _log_domain(G, p, q, 1.5e-3, 400, 1e-9, f0, g0)
        _assert_restarted(got, want)
        assert want[3] <= 1e-9


class TestGwGradientFast:
    def test_zero_plan(self):
        bx, by = structural_priors(6, 7, 0.3)
        assert np.array_equal(gw_gradient_fast(bx, np.zeros((6, 7)), by), np.zeros((6, 7)))

    @pytest.mark.parametrize("seed,n,m,r", [
        (0, 12, 12, 0.25), (1, 5, 17, 0.5), (2, 30, 11, 0.07), (3, 8, 8, 0.13),
    ])
    def test_matches_dense_triple_product(self, seed, n, m, r):
        rng = np.random.default_rng(seed)
        t = rng.random((n, m))
        bx, by = structural_priors(n, m, r)
        want = bx.dense() @ t @ by.dense()
        got = gw_gradient_fast(bx, t, by)
        assert rel_err(got, want) < 1e-10

    def test_full_band_boundary(self, rng):
        # r=1 puts every off-diagonal pair inside the band
        n = m = 9
        t = rng.random((n, m))
        bx, by = structural_priors(n, m, 1.0)
        want = bx.dense() @ t @ by.dense()
        assert rel_err(gw_gradient_fast(bx, t, by), want) < 1e-10

    def test_empty_band_is_zero(self, rng):
        bx, by = structural_priors(32, 32, 0.02)
        t = rng.random((32, 32))
        assert np.array_equal(gw_gradient_fast(bx, t, by), np.zeros((32, 32)))

    def test_shape_check(self, rng):
        bx, by = structural_priors(6, 7, 0.3)
        with pytest.raises(ShapeMismatch):
            gw_gradient_fast(bx, rng.random((7, 6)), by)


def _gather_banded(T, wx, wy, inv_r):
    """banded_gw_product as it was written with index gathers."""
    n, m = T.shape
    if wx <= 0:
        return np.zeros_like(T)
    cs = np.zeros((n + 1, m))
    np.cumsum(T, axis=0, out=cs[1:])
    hi = np.minimum(np.arange(n) + wx + 1, n)
    lo = np.maximum(np.arange(n) - wx, 0)
    a = inv_r * (cs[hi] - cs[lo] - T)
    row = np.sum(a, axis=1)
    cs2 = np.zeros((n, m + 1))
    np.cumsum(a, axis=1, out=cs2[:, 1:])
    hj = np.minimum(np.arange(m) + wy + 1, m)
    lj = np.maximum(np.arange(m) - wy, 0)
    win = cs2[:, hj] - cs2[:, lj]
    return row[:, None] - win + a


class TestBandedGwProduct:
    """The slice windows against the gather version, bit for bit."""

    @pytest.mark.parametrize("n, m, wx, wy", [
        (12, 14, 3, 2), (14, 12, 12, 3), (14, 12, 40, 12), (9, 11, 2, 11), (9, 11, 2, 50),
        (10, 10, 9, 9), (13, 9, 4, 0), (1, 7, 1, 2), (8, 1, 3, 1), (1, 1, 1, 0), (5, 6, 0, 2),
    ])
    def test_bitwise_equal_to_gathers(self, rng, n, m, wx, wy):
        t = rng.random((n, m))
        want = _gather_banded(t, wx, wy, 1.0 / 0.3)
        assert np.array_equal(kernels.banded_gw_product(t, wx, wy, 1.0 / 0.3), want)
        out = np.full((n, m), np.nan)
        scratch = np.full(n * m + (n + 1) * (m + 1), np.nan)  # no entry is read unwritten
        got = kernels.banded_gw_product(t, wx, wy, 1.0 / 0.3, out, scratch)
        assert got is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("wx, wy", [(3, 4), (0, 4), (30, 40)])
    def test_real_block_of_a_virtual_plan(self, rng, wx, wy):
        # plan and product are views of padded arrays, as in solve_fgwot
        plan = rng.random((21, 26))
        padded = np.zeros((21, 26))
        out = padded[:20, :25]
        got = kernels.banded_gw_product(plan[:20, :25], wx, wy, 4.0, out)
        assert got is out
        assert np.array_equal(out, _gather_banded(np.ascontiguousarray(plan[:20, :25]),
                                                  wx, wy, 4.0))
        assert not padded[20].any() and not padded[:, 25].any()


def _bundle(rng, n=6, m=7, virtual=False, r=0.3, rho=0.35):
    hyper = Hyperparams(use_virtual=virtual, r=r, rho=rho)
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=(m, 4))
    return build_cost_bundle(x, y, hyper), hyper


class TestObjective:
    def test_parts_identity(self, rng):
        bundle, _ = _bundle(rng)
        t = rng.random(bundle.C_tilde.shape)
        t /= t.sum()
        parts = fgwot_objective(bundle, t, alpha=0.3, epsilon=0.07)
        assert parts.total == pytest.approx(
            0.7 * parts.kot + 0.3 * parts.gw - 0.07 * parts.entropy, rel=1e-12
        )

    def test_alpha_endpoints(self, rng):
        bundle, _ = _bundle(rng)
        t = np.outer(bundle.p, bundle.q)
        p0 = fgwot_objective(bundle, t, alpha=0.0, epsilon=0.07)
        assert p0.total == pytest.approx(p0.kot - 0.07 * p0.entropy, rel=1e-12)
        p1 = fgwot_objective(bundle, t, alpha=1.0, epsilon=0.07)
        assert p1.total == pytest.approx(p1.gw - 0.07 * p1.entropy, rel=1e-12)

    @pytest.mark.parametrize("seed,n,m", [(0, 4, 4), (1, 5, 7), (2, 9, 6), (3, 10, 10)])
    def test_gw_term_matches_quadruple_loop(self, seed, n, m):
        # brute-force the pairwise structural cost over all (i, k, j, l)
        rng = np.random.default_rng(seed)
        bundle, _ = _bundle(rng, n=n, m=m, r=0.34)
        t = rng.random((n, m))
        t /= t.sum()
        cx = bundle.band_x.dense()
        cy = bundle.band_y.dense()
        want = 0.0
        for i in range(n):
            for k in range(n):
                for j in range(m):
                    for l in range(m):
                        want += cx[i, k] * cy[j, l] * t[i, j] * t[k, l]
        got = fgwot_objective(bundle, t, alpha=0.3, epsilon=0.07).gw
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_gw_gradient_is_twice_the_product(self, rng):
        # d/dT <Cx T Cy, T> = 2 Cx T Cy for symmetric bands; check by central
        # finite differences of the objective's structural term
        bundle, _ = _bundle(rng, n=5, m=6)
        t = rng.random((5, 6))
        grad = 2.0 * gw_gradient_fast(bundle.band_x, t, bundle.band_y)
        h = 1e-6
        fd = np.zeros_like(t)
        for i in range(5):
            for j in range(6):
                tp = t.copy()
                tp[i, j] += h
                tm = t.copy()
                tm[i, j] -= h
                up = fgwot_objective(bundle, tp, 1.0, 0.07).gw
                dn = fgwot_objective(bundle, tm, 1.0, 0.07).gw
                fd[i, j] = (up - dn) / (2 * h)
        assert rel_err(grad, fd) < 1e-5

    def test_entropy_sign(self, rng):
        bundle, _ = _bundle(rng)
        t = np.outer(bundle.p, bundle.q)
        parts = fgwot_objective(bundle, t, alpha=0.3, epsilon=0.07)
        assert parts.entropy > 0  # -sum t log t of an interior plan


class TestSolveFgwot:
    @pytest.mark.parametrize("alpha, n, r", [(0.0, 12, 0.1), (0.3, 32, 0.02)],
                             ids=["alpha-zero", "radius-zero"])
    def test_structure_free_is_one_sinkhorn_solve(self, rng, monkeypatch, alpha, n, r):
        # with alpha = 0, or an empty C_x band (floor(32 * 0.02) = 0, the
        # training clips), the structural term is zero at every plan, so the
        # first entropic plan is the fixed point and is returned as it is
        bundle, hyper = _bundle(rng, n=n, m=n, virtual=True, r=r)
        hyper = replace(hyper, alpha=alpha)
        assert (bundle.band_x.radius == 0) == (alpha > 0)
        want = sinkhorn((1 - alpha) * bundle.C_tilde, bundle.p, bundle.q, hyper.epsilon,
                        solver._SINKHORN_ITERS, solver._INNER_TOL)
        calls = _count_calls(monkeypatch, "sinkhorn_log")
        got = solve_fgwot(bundle, hyper)
        assert len(calls) == 1
        assert np.array_equal(got.T, want.T)
        assert got.outer_iterations == 1
        assert got.final_delta == 0.0
        assert got.objective_trace == (fgwot_objective(bundle, got.T, alpha, hyper.epsilon).total,)
        assert (got.converged, got.inner_capped) == (want.converged, want.inner_capped) == (True, 0)
        assert got.virtual
        monkeypatch.setattr(solver, "_SINKHORN_ITERS", 1)
        capped = solve_fgwot(bundle, hyper)
        assert len(calls) == 2
        assert capped.converged is False
        assert capped.inner_capped == 1
        assert capped.outer_iterations == 1 and capped.final_delta == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_feasibility_of_fused_solution(self, seed):
        rng = np.random.default_rng(seed)
        bundle, hyper = _bundle(rng, n=10, m=12, virtual=bool(seed % 2))
        c = solve_fgwot(bundle, hyper)
        assert np.abs(c.T.sum(axis=1) - bundle.p).max() < 1e-6
        assert np.abs(c.T.sum(axis=0) - bundle.q).max() < 1e-6
        assert (c.T > 0).all()
        assert c.outer_iterations <= solver._MAX_OUTER

    def test_converges_on_structured_pair(self, rng):
        # two noisy views of the same sequence, the training-time workload
        x = rng.normal(size=(20, 4))
        y = x + 0.05 * rng.normal(size=(20, 4))
        hyper = Hyperparams(use_virtual=True, r=0.1)
        c = solve_fgwot(build_cost_bundle(x, y, hyper), hyper)
        assert c.converged
        assert len(c.objective_trace) == c.outer_iterations

    def test_unstructured_pair_flags_non_convergence(self, rng, monkeypatch):
        # a random pair with an active band needs more than the default
        # outer budget at tol 1e-6; the result is flagged, not raised
        bundle, hyper = _bundle(rng, n=20, m=20, virtual=True, r=0.1)
        c = solve_fgwot(bundle, hyper)
        assert not c.converged
        assert c.outer_iterations == solver._MAX_OUTER
        assert np.abs(c.T.sum(axis=1) - bundle.p).max() < 1e-6  # still feasible
        # inner diagnostics: count of capped solves, worst violation over all
        assert 0 <= c.inner_capped <= c.outer_iterations
        assert (c.inner_capped > 0) == (c.inner_violation > solver._INNER_TOL)
        assert np.isfinite(c.inner_violation) and c.inner_violation >= 0.0
        with monkeypatch.context() as m:
            m.setattr(solver, "_SINKHORN_ITERS", 1)
            capped_only = solve_fgwot(bundle, hyper)
        assert capped_only.inner_capped == capped_only.outer_iterations
        assert capped_only.inner_violation > solver._INNER_TOL
        monkeypatch.setattr(solver, "_MAX_OUTER", 200)
        relaxed = solve_fgwot(bundle, hyper)
        assert relaxed.converged

    def test_identical_videos_align_diagonally(self, rng):
        x = rng.normal(size=(12, 8))
        hyper = Hyperparams(use_virtual=False, r=0.1)
        bundle = build_cost_bundle(x, x, hyper)
        c = solve_fgwot(bundle, hyper)
        assert np.array_equal(np.argmax(c.T, axis=1), np.arange(12))

    def test_objective_trace_mostly_non_increasing(self):
        # the linearized outer loop is not provably monotone; assert the
        # aggregate behavior over seeds
        steps = 0
        decreasing = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            bundle, hyper = _bundle(rng, n=14, m=14, virtual=True, r=0.2)
            trace = solve_fgwot(bundle, hyper).objective_trace
            for a, b in zip(trace, trace[1:]):
                steps += 1
                if b <= a + 1e-12:
                    decreasing += 1
        assert steps > 0
        assert decreasing / steps >= 0.95

    def test_virtual_frame_carries_no_structural_cost(self, rng):
        bundle, hyper = _bundle(rng, n=8, m=8, virtual=True, r=0.3)
        c = solve_fgwot(bundle, hyper)
        # re-linearize at the solution: the structural part of the gradient
        # must be zero on the virtual row and column
        from rgwot.solver import _gw_pad

        prod = _gw_pad(bundle, c.T)
        assert np.array_equal(prod[-1, :], np.zeros(9))
        assert np.array_equal(prod[:, -1], np.zeros(9))

    def test_deterministic(self, rng):
        bundle, hyper = _bundle(rng, virtual=True)
        a = solve_fgwot(bundle, hyper)
        b = solve_fgwot(bundle, hyper)
        assert np.array_equal(a.T, b.T)
        assert a.objective_trace == b.objective_trace


def _reference_solve(bundle, hyper):
    """solve_fgwot as it was written with a fresh array for every step."""

    def gw_pad(t):
        n, m = bundle.n_real, bundle.m_real
        prod = _gather_banded(np.ascontiguousarray(t[:n, :m]), bundle.band_x.radius,
                              bundle.band_y.radius, bundle.band_x.value)
        out = np.zeros_like(t)
        out[:n, :m] = prod
        return out

    def objective(t, product):
        kot = float(np.sum(bundle.C_tilde * t))
        gw = float(np.sum(product * t))
        with np.errstate(divide="ignore", invalid="ignore"):
            xlogx = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
        entropy = float(-np.sum(xlogx))
        return (1.0 - alpha) * kot + alpha * gw - eps * entropy

    alpha, eps = hyper.alpha, hyper.epsilon
    p, q = bundle.p, bundle.q
    t = np.outer(p, q)
    f, g = np.zeros_like(p), np.zeros_like(q)
    trace, delta, converged, iters, capped, worst = [], np.inf, False, 0, 0, 0.0
    product = gw_pad(t)
    for it in range(1, solver._MAX_OUTER + 1):
        grad = (1.0 - alpha) * bundle.C_tilde + 2.0 * alpha * product
        f, g, _, violation = kernels.sinkhorn_log(grad, np.log(p), np.log(q), eps,
                                                  solver._SINKHORN_ITERS, solver._INNER_TOL,
                                                  f, g)
        violation = float(violation)
        t_new = np.exp((f[:, None] + g[None, :] - grad) / eps)
        capped += violation > solver._INNER_TOL
        worst = max(worst, violation)
        product = gw_pad(t_new)
        trace.append(objective(t_new, product))
        iters = it
        if alpha == 0.0 or bundle.band_x.radius == 0:
            t, delta, converged = t_new, 0.0, violation <= solver._INNER_TOL
            break
        delta = float(np.abs(t_new - t).sum())
        t = t_new
        if delta <= solver._TOL:
            converged = True
            break
    return Coupling(T=t, outer_iterations=iters, converged=converged, final_delta=delta,
                    objective_trace=tuple(trace), virtual=bundle.virtual,
                    inner_capped=capped, inner_violation=worst)


class TestSolveWorkspace:
    """solve_fgwot computes every step in one workspace per solve, with the
    plans, trace and diagnostics of fresh arrays, bit for bit."""

    # r sets the C_x band radius floor(n * r): 0, 1 and at least n
    @pytest.mark.parametrize("n, m, r", [(10, 10, 0.05), (10, 13, 0.1), (13, 10, 0.1),
                                         (12, 15, 0.3), (9, 7, 1.0)])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("virtual", [False, True])
    def test_matches_fresh_arrays_bit_for_bit(self, n, m, r, alpha, virtual):
        rng = np.random.default_rng(n * m)
        bundle, hyper = _bundle(rng, n=n, m=m, virtual=virtual, r=r)
        hyper = replace(hyper, alpha=alpha)
        got = solve_fgwot(bundle, hyper)
        want = _reference_solve(bundle, hyper)
        assert np.array_equal(got.T, want.T)
        assert got.objective_trace == want.objective_trace
        assert got.final_delta == want.final_delta
        assert (got.inner_capped, got.inner_violation) == (want.inner_capped, want.inner_violation)
        assert (got.outer_iterations, got.converged, got.virtual) \
            == (want.outer_iterations, want.converged, want.virtual)

    def test_capped_solves_and_log_domain_restarts(self, monkeypatch):
        # at this epsilon the outer loop runs to its cap, the inner solves
        # stop at the sweep cap, and some restart in the log domain
        rng = np.random.default_rng(5)
        bundle, hyper = _bundle(rng, n=60, m=64, virtual=True, r=0.1)
        hyper = replace(hyper, epsilon=0.003)
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        got = solve_fgwot(bundle, hyper)
        assert fallbacks
        assert got.outer_iterations == solver._MAX_OUTER and got.inner_capped > 0
        want = _reference_solve(bundle, hyper)
        assert np.array_equal(got.T, want.T)
        assert got.objective_trace == want.objective_trace
        assert got.final_delta == want.final_delta

    def test_consecutive_solves_return_their_own_plans(self, rng):
        bundle, hyper = _bundle(rng, n=12, m=14, virtual=True, r=0.2)
        first = solve_fgwot(bundle, hyper)
        kept = first.T.copy()
        other, _ = _bundle(rng, n=12, m=14, virtual=True, r=0.2)
        second = solve_fgwot(other, hyper)
        assert not np.shares_memory(first.T, second.T)
        assert np.array_equal(first.T, kept)
        assert np.array_equal(solve_fgwot(bundle, hyper).T, kept)

    @pytest.mark.parametrize("warm", [False, True])
    def test_kernel_buffer_holds_the_stabilized_kernel(self, rng, warm):
        G = rng.uniform(0.0, 2.0, (11, 13))
        logp, logq = np.log(uniform(11)), np.log(uniform(13))
        f0 = rng.normal(scale=0.1, size=11) if warm else np.zeros(11)
        g0 = rng.normal(scale=0.1, size=13) if warm else np.zeros(13)
        K = np.full((11, 13), np.nan)
        got = kernels.sinkhorn_log(G, logp, logq, 0.07, 200, 1e-9, f0, g0, K)
        want = kernels.sinkhorn_log(G, logp, logq, 0.07, 200, 1e-9, f0, g0)
        assert np.array_equal(K, np.exp((f0[:, None] + g0[None, :] - G) / 0.07))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_log_domain_restart_reuses_the_kernel_buffer(self, rng, monkeypatch):
        G = 1.0 + rng.uniform(0.0, 1.0, (20, 24))
        p, q = uniform(20), uniform(24)
        K = np.empty((20, 24))
        fallbacks = _count_calls(monkeypatch, "_sinkhorn_log_domain")
        got = kernels.sinkhorn_log(G, np.log(p), np.log(q), 1e-3, 300, 1e-7,
                                   np.zeros(20), np.zeros(24), K)
        assert len(fallbacks) == 1 and fallbacks[0][-1] is K
        _assert_restarted(got, _log_domain(G, p, q, 1e-3, 300, 1e-7, np.zeros(20), np.zeros(24)))


def parent_gibbs(f, g, G, eps):
    """The four in-place steps that sinkhorn_log and _sinkhorn_core each wrote out."""
    t = np.empty(G.shape)
    np.add(f[:, None], g[None, :], out=t)
    np.subtract(t, G, out=t)
    np.divide(t, eps, out=t)
    np.exp(t, out=t)
    return t


class TestGibbs:
    """kernels.gibbs is the one copy of exp((f + g - G) / eps)."""

    @pytest.mark.parametrize("eps", [1.0, 0.07, 0.003, 1e-5])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (33, 33), (131, 132)])
    def test_matches_the_four_step_expression_bit_for_bit(self, rng, shape, eps):
        G = rng.uniform(0.0, 2.0, shape)
        f = rng.normal(scale=0.5, size=shape[0])
        g = rng.normal(scale=0.5, size=shape[1])
        out = np.full(shape, np.nan)
        # at small eps entries overflow to inf and underflow to 0, on both sides
        with np.errstate(over="ignore"):
            got = kernels.gibbs(f, g, G, eps, out)
            want = parent_gibbs(f, g, G, eps)
        assert got is out
        assert got.tobytes() == want.tobytes()


class TestCouplingReal:
    def test_virtual_row_and_column_dropped(self, rng):
        t = rng.random((5, 6))
        c = Coupling(T=t, outer_iterations=1, converged=True, final_delta=0.0, virtual=True)
        assert np.array_equal(c.real, t[:4, :5])

    def test_plain_plan_unchanged(self, rng):
        t = rng.random((4, 5))
        c = Coupling(T=t, outer_iterations=1, converged=True, final_delta=0.0)
        assert c.real is t
