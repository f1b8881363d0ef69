import numpy as np
import pytest

from rgwot.data_model import Hyperparams
from rgwot.errors import ShapeMismatch
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

    def test_masked_frames_drop_out(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(6, 3))
        p = softmax_sim(x, y, 0.1)
        t = rng.random((5, 6))
        mask_x = np.array([False, True, False, False, False])
        mask_y = np.zeros(6, dtype=bool)
        loss, grad = align_loss(p, t, (mask_x, mask_y))
        t_manual = t.copy()
        t_manual[1, :] = 0.0
        loss_manual, _ = align_loss(p, t_manual)
        assert loss == pytest.approx(loss_manual, rel=1e-12)
        assert np.array_equal(grad[1], np.zeros(6))  # no pull on a masked frame

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

    def test_keep_mask_removes_pairs(self, rng):
        x = rng.normal(size=(5, 3))
        keep = np.array([True, True, False, True, True])
        loss_masked, grad_masked = cidm_loss(x, 1.0, 2.0, keep=keep)
        sub = cidm_loss(x[keep], 1.0, 2.0, positions=np.flatnonzero(keep).astype(float))
        assert loss_masked == pytest.approx(sub[0], rel=1e-12)
        assert np.array_equal(grad_masked[2], np.zeros(3))

    def test_bad_positions_shape(self, rng):
        with pytest.raises(ShapeMismatch):
            cidm_loss(rng.normal(size=(4, 2)), 1.0, 2.0, positions=np.arange(5.0))


class TestTotalLoss:
    def _inputs(self, rng, n=6, m=5, d=4):
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(m, d))
        t = rng.random((n, m))
        t /= t.sum()
        masks = (np.zeros(n, dtype=bool), np.zeros(m, dtype=bool))
        return x, y, t, masks

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

    def test_masked_rows_have_no_alignment_gradient(self, rng):
        x, y, t, _ = self._inputs(rng)
        masks = (np.array([True, False, False, False, False, False]),
                 np.zeros(5, dtype=bool))
        hyper = Hyperparams(xi=0.0, sigma=2.0)
        report = total_loss(x, y, t, masks, hyper)
        assert np.array_equal(report.grad_x[0], np.zeros(4))

    def test_gradients_finite(self, rng):
        x, y, t, masks = self._inputs(rng)
        report = total_loss(x, y, t, masks, Hyperparams(sigma=2.0))
        assert np.isfinite(report.grad_x).all() and np.isfinite(report.grad_y).all()
