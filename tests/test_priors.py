import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgwot.data_model import Hyperparams
from rgwot.errors import InvalidRadius, ShapeMismatch, ZeroNormRow
from rgwot.priors import (
    background_mask,
    build_cost_bundle,
    structural_priors,
    temporal_prior,
    visual_cost,
)
from rgwot.solver import Coupling


class TestVisualCost:
    def test_identical_vectors_cost_zero(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert visual_cost(x, x)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_cost_one(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 5.0]])
        assert visual_cost(x, y)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_opposite_cost_two(self):
        x = np.array([[2.0, -1.0]])
        assert visual_cost(x, -x)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_range(self, rng):
        c = visual_cost(rng.normal(size=(20, 5)), rng.normal(size=(17, 5)))
        assert c.shape == (20, 17)
        assert c.min() >= 0.0 and c.max() <= 2.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), scale=st.floats(1e-3, 1e3))
    def test_invariant_under_row_rescaling(self, seed, scale):
        r = np.random.default_rng(seed)
        x = r.normal(size=(4, 3)) + 0.1
        y = r.normal(size=(5, 3)) + 0.1
        base = visual_cost(x, y)
        x2 = x.copy()
        x2[1] *= scale
        assert np.allclose(visual_cost(x2, y), base, atol=1e-10)

    def test_zero_norm_row_names_index_and_side(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        y = np.array([[1.0, 1.0]])
        with pytest.raises(ZeroNormRow) as exc:
            visual_cost(x, y)
        assert exc.value.index == 1 and exc.value.side == "x"
        with pytest.raises(ZeroNormRow) as exc:
            visual_cost(y, x)
        assert exc.value.side == "y"

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            visual_cost(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))

    def test_accepts_embedding_objects(self, rng):
        from rgwot.data_model import FrameEmbeddings

        x = FrameEmbeddings("a", rng.normal(size=(3, 2)))
        c = visual_cost(x, x)
        assert np.allclose(np.diag(c), 0.0, atol=1e-12)


class TestTemporalPrior:
    def test_endpoints_align(self):
        r = temporal_prior(6, 9)
        assert r[5, 8] == pytest.approx(0.0, abs=1e-15)

    def test_square_diagonal_zero(self):
        r = temporal_prior(7, 7)
        assert np.allclose(np.diag(r), 0.0)

    def test_hand_value(self):
        # i=1 of N=2 against j=4 of M=4: |1/2 - 4/4|
        assert temporal_prior(2, 4)[0, 3] == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), m=st.integers(1, 40))
    def test_bounded_below_one(self, n, m):
        r = temporal_prior(n, m)
        assert r.min() >= 0.0 and r.max() < 1.0


class TestStructuralPriors:
    def test_half_width_and_value(self):
        bx, by = structural_priors(50, 50, 0.02)
        assert bx.radius == 1 and bx.value == pytest.approx(50.0)
        assert by.radius == 1

    def test_default_clip_radius_is_empty(self):
        bx, _ = structural_priors(32, 32, 0.02)
        assert bx.radius == 0

    def test_diagonal_zero_on_x_band(self):
        bx, _ = structural_priors(8, 8, 0.25)
        assert np.allclose(np.diag(bx.dense()), 0.0)

    def test_invalid_radius(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidRadius):
                structural_priors(10, 10, bad)

    @pytest.mark.parametrize("n,m,r", [(6, 9, 0.25), (12, 5, 0.4), (16, 16, 1.0), (10, 7, 0.09)])
    def test_dense_matches_elementwise_definition(self, n, m, r):
        bx, by = structural_priors(n, m, r)
        wx = int(np.floor(n * r + 1e-9))
        wy = int(np.floor(m * r + 1e-9))
        cx = np.zeros((n, n))
        for i in range(n):
            for k in range(n):
                if 1 <= abs(i - k) <= wx:
                    cx[i, k] = 1.0 / r
        cy = np.ones((m, m))
        for j in range(m):
            for l in range(m):
                if 1 <= abs(j - l) <= wy:
                    cy[j, l] = 0.0
        assert np.array_equal(bx.dense(), cx)
        assert np.array_equal(by.dense(), cy)

    def test_band_complementarity(self):
        # the product cost is 1/r exactly when the x pair is inside its band
        # and the y pair is outside (or on) its band
        n, m, r = 9, 7, 0.3
        bx, by = structural_priors(n, m, r)
        cx, cy = bx.dense(), by.dense()
        for i in range(n):
            for k in range(n):
                for j in range(m):
                    for l in range(m):
                        prod = cx[i, k] * cy[j, l]
                        assert prod in (0.0, 1.0 / r)
                        inside_x = 1 <= abs(i - k) <= bx.radius
                        outside_y = not (1 <= abs(j - l) <= by.radius)
                        assert (prod > 0) == (inside_x and outside_y)


class TestCostBundle:
    def test_fused_cost_identity(self, rng):
        hyper = Hyperparams(use_virtual=False)
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(9, 4))
        b = build_cost_bundle(x, y, hyper)
        expected = visual_cost(x, y) + hyper.rho * temporal_prior(6, 9)
        assert np.allclose(b.C_tilde, expected, atol=1e-14)
        assert b.p.sum() == pytest.approx(1.0) and b.q.sum() == pytest.approx(1.0)
        assert not b.virtual and b.n_real == 6 and b.m_real == 9

    def test_virtual_is_default(self, rng):
        b = build_cost_bundle(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), Hyperparams())
        assert b.virtual
        assert b.C_tilde.shape == (5, 6)
        assert b.band_x.size == 4 and b.band_y.size == 5


class TestAugmentVirtual:
    """The virtual frame build_cost_bundle appends under use_virtual."""

    def _pair(self, rng, n=4, m=5):
        x, y = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        raw = build_cost_bundle(x, y, Hyperparams(use_virtual=False))
        return raw, build_cost_bundle(x, y, Hyperparams(use_virtual=True))

    def test_shapes_and_marginals(self, rng):
        raw, b = self._pair(rng, 2, 3)
        assert raw.C_tilde.shape == (2, 3) and not raw.virtual
        assert b.C_tilde.shape == (3, 4) and b.virtual
        assert np.array_equal(b.p, np.full(3, 1.0 / 3.0))
        assert np.array_equal(b.q, np.full(4, 1.0 / 4.0))
        assert b.n_real == 2 and b.m_real == 3

    def test_fill_is_mean_of_real_entries(self, rng):
        raw, b = self._pair(rng)
        fill = raw.C_tilde.mean()
        assert (b.C_tilde[-1, :] == fill).all()
        assert (b.C_tilde[:, -1] == fill).all()

    def test_fused_identity_still_holds(self, rng):
        raw, b = self._pair(rng)
        assert b.C_tilde[:-1, :-1].tobytes() == raw.C_tilde.tobytes()

    def test_band_params_unchanged(self, rng):
        raw, b = self._pair(rng)
        assert b.band_x == raw.band_x and b.band_y == raw.band_y


def _coupling(t, virtual):
    return Coupling(T=t, outer_iterations=1, converged=True, final_delta=0.0,
                    virtual=virtual)


def _parent_row_mask(coupling, zeta):
    """The row half of background_mask before it stopped scoring columns."""
    t, real = coupling.T, coupling.real
    n, m = real.shape
    row_total = t[:n, :].sum(axis=1)
    row_score = real.max(axis=1) / np.where(row_total > 0, row_total, 1.0)
    return row_score < zeta, row_score


class TestBackgroundMask:
    def test_confident_permutation_unmasked(self):
        t = np.eye(6) / 6.0
        mask = background_mask(_coupling(t, False), 0.5)
        assert not mask.any()

    def test_uniform_coupling_fully_masked(self):
        n, m = 5, 7
        t = np.full((n + 1, m + 1), 1.0 / ((n + 1) * (m + 1)))
        mask = background_mask(_coupling(t, True), 0.5)
        assert mask.all()
        assert mask.shape == (n,)

    def test_zeta_zero_disables(self):
        t = np.full((4, 4), 1.0 / 16.0)
        mask = background_mask(_coupling(t, False), 0.0)
        assert not mask.any()

    def test_single_spread_row_masked(self):
        # three frames match confidently, the fourth is spread out
        n = m = 4
        t = np.eye(n) / n
        t[3] = 1.0 / (n * m)
        mask = background_mask(_coupling(t, False), 0.5)
        assert mask.tolist() == [False, False, False, True]

    def test_virtual_row_column_excluded_from_scores(self):
        # mass hidden in the virtual column lowers the row's real max
        n = m = 3
        t = np.zeros((n + 1, m + 1))
        for i in range(n):
            t[i, i] = 0.2
        t[2, m] = 0.15  # frame 2 leaks most mass to the virtual sink
        t[2, 2] = 0.05
        t[n, m] = 0.2
        mask = background_mask(_coupling(t, True), 0.5)
        assert mask.tolist() == [False, False, True]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_mask_shapes_real_frames_only(self, seed):
        r = np.random.default_rng(seed)
        n, m = int(r.integers(2, 8)), int(r.integers(2, 8))
        t = r.random((n + 1, m + 1))
        t /= t.sum()
        mask = background_mask(_coupling(t, True), 0.5)
        assert mask.shape == (n,) and mask.dtype == bool

    @pytest.mark.parametrize("virtual", [False, True])
    def test_matches_the_row_half_of_the_two_sided_mask(self, virtual):
        # zeta values include every row's own score, where strict < decides
        r = np.random.default_rng(7)
        for trial in range(50):
            n, m = int(r.integers(1, 12)), int(r.integers(1, 12))
            rows, cols = (n + 1, m + 1) if virtual else (n, m)
            t = r.random((rows, cols)) ** 4
            t[r.random((rows, cols)) < 0.3] = 0.0
            t[int(r.integers(n))] = 0.0  # a row of zeros: the row_total > 0 guard
            t /= max(t.sum(), 1.0)
            coupling = _coupling(t, virtual)
            _, scores = _parent_row_mask(coupling, 0.5)
            for zeta in [0.0, 0.25, 0.5, 1.0, *scores.tolist()]:
                want, _ = _parent_row_mask(coupling, zeta)
                got = background_mask(coupling, zeta)
                assert got.dtype == bool and np.array_equal(got, want), (trial, zeta)
