import numpy as np
import pytest

from rgwot import kernels
from rgwot.data_model import Hyperparams
from rgwot.errors import ConfigError, ShapeMismatch
from rgwot.losses import align_loss, cidm_loss, softmax_sim, total_loss

from conftest import rel_err

FD_STEP = 1e-5


def fd_grad(fn, x, h=FD_STEP):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return g


class TestSoftmaxSim:
    def test_rows_sum_to_one(self, rng):
        p = softmax_sim(rng.normal(size=(7, 3)), rng.normal(size=(9, 3)), tau=0.1)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
        assert p.min() >= 0.0

    def test_orthogonal_row_is_uniform(self):
        x = np.array([[1.0, 0.0, 0.0]])
        y = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        p = softmax_sim(x, y, tau=0.5)
        assert np.allclose(p, 1.0 / 3.0, atol=1e-12)

    def test_small_tau_sharpens_to_one_hot(self, rng):
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(6, 5))
        p = softmax_sim(x, y, tau=1e-3)
        assert p.max(axis=1).min() > 0.999

    def test_stable_under_large_logits(self):
        x = np.full((2, 3), 1e4)
        y = np.full((5, 3), 1e4)
        p = softmax_sim(x, y, tau=0.1)
        assert np.isfinite(p).all()


class TestAlignLoss:
    def test_zero_target_gives_zero(self, rng):
        p = softmax_sim(rng.normal(size=(4, 5)), rng.normal(size=(5, 5)), 0.1)
        loss, grad = align_loss(p, np.zeros((4, 5)))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((4, 5)))

    def test_one_hot_match_gives_zero(self):
        p = np.eye(3)
        t = np.eye(3) / 3.0
        loss, _ = align_loss(p, t)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_bad_target_shape(self, rng):
        p = softmax_sim(rng.normal(size=(4, 5)), rng.normal(size=(5, 5)), 0.1)
        # a plan that still carries the virtual row and column is rejected too
        for shape in ((6, 6), (5, 6)):
            with pytest.raises(ShapeMismatch):
                align_loss(p, np.zeros(shape))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(4, 4))
        t = rng.random((5, 4))
        tau = 0.2

        def loss_of_x(xv):
            return align_loss(softmax_sim(xv, y, tau), t)[0]

        _, grad_logits = align_loss(softmax_sim(x, y, tau), t)
        grad_x = grad_logits @ y / tau
        assert rel_err(grad_x, fd_grad(loss_of_x, x)) < 1e-4

    def test_one_step_descent(self, rng):
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(5, 4))
        t = rng.random((6, 5))
        tau = 0.2
        loss0, grad_logits = align_loss(softmax_sim(x, y, tau), t)
        x2 = x - 1e-3 * (grad_logits @ y / tau)
        loss1, _ = align_loss(softmax_sim(x2, y, tau), t)
        assert loss1 < loss0


def _cidm_all_pairs(X, pos, sigma, lam):
    """The regularizer as written when it took a per-frame keep mask, with
    every frame kept: the pair set is np.outer(keep, keep) without its
    diagonal."""
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    delta = pos[:, None] - pos[None, :]
    w = delta * delta + 1.0
    near = np.abs(delta) <= sigma
    keep = np.ones(n, dtype=bool)
    pair = np.outer(keep, keep)
    np.fill_diagonal(pair, False)
    attract = pair & near
    repel = pair & ~near
    hinge = np.maximum(0.0, lam - d)
    loss = np.sum(d[attract] / w[attract]) + np.sum(w[repel] * hinge[repel])
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = np.where(d > 0.0, 1.0 / d, 0.0)
    coef = np.zeros_like(d)
    coef[attract] = inv_d[attract] / w[attract]
    active = repel & (d < lam) & (d > 0.0)
    coef[active] -= w[active] * inv_d[active]
    coef *= 2.0
    grad = coef.sum(axis=1)[:, None] * X - coef @ X
    return float(loss), grad


class TestCidmLoss:
    def test_hand_value_on_collapsed_triple(self):
        # three identical embeddings, sigma=1, lam=2: only the two ordered
        # far pairs contribute, each w=(2^2+1)=5 times hinge 2
        x = np.ones((3, 4))
        loss, _ = cidm_loss(x, sigma=1.0, lam=2.0)
        assert loss == pytest.approx(20.0, abs=1e-12)

    def test_collapse_gradient_is_zero_at_the_exact_degenerate_point(self):
        # the hinge's slope through d vanishes at d=0, so the exactly
        # collapsed configuration is a (bad) stationary point
        x = np.ones((5, 3))
        loss, grad = cidm_loss(x, sigma=1.0, lam=2.0)
        assert loss > 0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_near_collapse_descent_increases_spread(self, rng):
        x = np.ones((6, 3)) + 1e-3 * rng.normal(size=(6, 3))

        def spread(m):
            d = np.linalg.norm(m[:, None, :] - m[None, :, :], axis=2)
            return d[np.triu_indices(6, 1)].mean()

        before = spread(x)
        for _ in range(50):
            _, grad = cidm_loss(x, sigma=1.0, lam=2.0)
            x = x - 1e-4 * grad
        assert spread(x) > before

    def test_saturated_hinge_contributes_nothing(self):
        # far-apart embeddings with sigma=0: every pair repels but all
        # distances exceed lam, so the loss is exactly zero
        x = np.diag([10.0, 10.0, 10.0])
        loss, grad = cidm_loss(x, sigma=0.0, lam=2.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_positive_on_collapse(self):
        x = np.zeros((5, 2)) + 3.0
        loss, _ = cidm_loss(x, sigma=1.0, lam=2.0)
        assert loss > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(7, 3))
        got = cidm_loss(x, sigma=2.0, lam=2.0)[1]
        want = fd_grad(lambda m: cidm_loss(m, sigma=2.0, lam=2.0)[0], x)
        assert rel_err(got, want) < 1e-4

    def test_positions_control_the_window(self, rng):
        x = rng.normal(size=(4, 3))
        # consecutive positions: all pairs are neighbours at sigma=3
        near, _ = cidm_loss(x, sigma=3.0, lam=2.0, positions=np.arange(4.0))
        # stretched positions: the same pairs become far
        far, _ = cidm_loss(x, sigma=3.0, lam=2.0, positions=np.arange(4.0) * 10)
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        w_near = (np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2 + 1)
        expect_near = sum(
            d[i, j] / w_near[i, j] for i in range(4) for j in range(4) if i != j
        )
        assert near == pytest.approx(expect_near, rel=1e-12)
        assert far != pytest.approx(near)

    @pytest.mark.parametrize("n", [2, 5, 17, 33])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 3.0, 1e9])
    def test_kernel_matches_the_all_frames_expression_bitwise(self, n, sigma):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 4))
        x[0] = x[1] = [1.0, 2.0, 0.5, -1.0]  # coincident rows, d = 0 exactly
        pos = np.sort(rng.choice(4 * n, size=n, replace=False)).astype(np.float64)
        loss, grad = kernels.cidm_parts(x, pos, sigma, 2.0)
        want_loss, want_grad = _cidm_all_pairs(x, pos, sigma, 2.0)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)

    def test_bad_positions_shape(self, rng):
        with pytest.raises(ShapeMismatch):
            cidm_loss(rng.normal(size=(4, 2)), 1.0, 2.0, positions=np.arange(5.0))


class TestTotalLoss:
    def _inputs(self, rng, n=6, m=5, d=4):
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(m, d))
        t = rng.random((n, m))
        t /= t.sum()
        return x, y, t, None

    def test_xi_zero_reduces_to_align(self, rng):
        x, y, t, masks = self._inputs(rng)
        hyper = Hyperparams(xi=0.0, sigma=2.0)
        report = total_loss(x, y, t, masks, hyper)
        assert report.total == report.align
        assert report.reg_x > 0 or report.reg_y > 0  # still reported

    def test_combination_identity(self, rng):
        x, y, t, masks = self._inputs(rng)
        hyper = Hyperparams(xi=0.7, sigma=2.0)
        report = total_loss(x, y, t, masks, hyper)
        assert report.total == pytest.approx(
            report.align + 0.7 * (report.reg_x + report.reg_y), rel=1e-12
        )

    def test_gradients_match_finite_differences(self, rng):
        x, y, t, masks = self._inputs(rng)
        hyper = Hyperparams(xi=0.5, sigma=2.0, tau=0.2)
        report = total_loss(x, y, t, masks, hyper)

        fd_x = fd_grad(lambda m: total_loss(m, y, t, masks, hyper).total, x)
        fd_y = fd_grad(lambda m: total_loss(x, m, t, masks, hyper).total, y)
        assert rel_err(report.grad_x, fd_x) < 1e-4
        assert rel_err(report.grad_y, fd_y) < 1e-4

    def test_gradients_finite(self, rng):
        x, y, t, masks = self._inputs(rng)
        report = total_loss(x, y, t, masks, Hyperparams(sigma=2.0))
        assert np.isfinite(report.grad_x).all() and np.isfinite(report.grad_y).all()

    @pytest.mark.parametrize("masks", [
        (np.zeros(6, dtype=bool), np.zeros(5, dtype=bool)),
        (np.array([True, False, False, False, False, False]), np.zeros(5, dtype=bool)),
    ])
    def test_masks_are_rejected(self, rng, masks):
        x, y, t, _ = self._inputs(rng)
        with pytest.raises(ConfigError):
            total_loss(x, y, t, masks, Hyperparams(sigma=2.0))
