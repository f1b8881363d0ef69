import json
from dataclasses import replace

import numpy as np
import pytest

from rgwot.data_model import FrameFeatures, Hyperparams
from rgwot.encoder import (
    AdamState,
    Encoder,
    adam_update,
    load_encoder,
    save_encoder,
)
from rgwot.errors import ConfigError, DimMismatch, InsufficientFrames, MalformedHeader, ZeroNormRow
from rgwot.priors import build_cost_bundle, visual_cost
from rgwot.solver import solve_fgwot
from rgwot.losses import total_loss
from rgwot.training import (
    _WEIGHT_DECAY,
    loss_and_param_grads,
    sample_frames,
    train,
    train_step,
    write_loss_csv,
)

from conftest import rel_err, toy_videos


def near_identity_encoder(dim, shift=0.0, delta=1e-4):
    """W1 = delta*I, W2 = I/delta: tanh stays in its linear regime, so the
    encoder computes F + shift up to O(delta^2)."""
    return Encoder(
        w1=delta * np.eye(dim),
        b1=np.zeros(dim),
        w2=np.eye(dim) / delta,
        b2=np.full(dim, shift),
    )


def fd_param_grads(loss_of, enc, h=1e-5):
    """Central differences of a scalar loss over every encoder parameter."""
    grads = {}
    for name, p in enc.params().items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_of(enc)
            p[idx] = orig - h
            down = loss_of(enc)
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads[name] = g
    return grads


def parent_forward(enc, features):
    """The forward map as one expression per layer."""
    h = np.tanh(np.asarray(features, dtype=np.float64) @ enc.w1 + enc.b1)
    return h @ enc.w2 + enc.b2, h


def parent_backward(enc, features, hidden, grad_out):
    """The gradients as one new array each."""
    x = np.asarray(features, dtype=np.float64)
    dz = (grad_out @ enc.w2.T) * (1.0 - hidden * hidden)
    return {"w1": x.T @ dz, "b1": dz.sum(axis=0),
            "w2": hidden.T @ grad_out, "b2": grad_out.sum(axis=0)}


def textbook_adam(params, m, v, grads, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as Kingma and Ba's Algorithm 1 writes it, on fresh arrays:
    theta -= lr * m_hat / (sqrt(v_hat) + eps), three divisions per element."""
    for k in params:
        g = grads[k] + wd * params[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
        m_hat = m[k] / (1.0 - b1 ** t)
        v_hat = v[k] / (1.0 - b2 ** t)
        params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)


def random_encoder(rng, f=24, d=16, h=40):
    return Encoder(rng.normal(size=(f, h)) / np.sqrt(f), rng.normal(size=h),
                   rng.normal(size=(h, d)) / np.sqrt(h), rng.normal(size=d))


class TestEncoder:
    def test_near_identity_construction(self, rng):
        f = rng.uniform(-1.0, 1.0, size=(9, 5))
        enc = near_identity_encoder(5, shift=0.25)
        e, _ = enc.forward(f)
        assert np.abs(e - (f + 0.25)).max() < 1e-8

    def test_zero_weights_give_zero_embeddings(self, rng):
        enc = Encoder(np.zeros((4, 6)), np.zeros(6), np.zeros((6, 3)), np.zeros(3))
        e, _ = enc.forward(rng.normal(size=(5, 4)))
        assert np.array_equal(e, np.zeros((5, 3)))
        with pytest.raises(ZeroNormRow):
            visual_cost(e, e)

    def test_feature_width_checked(self, rng):
        enc = Encoder.create(feature_dim=4, embed_dim=3, hidden_dim=6)
        with pytest.raises(DimMismatch):
            enc.forward(rng.normal(size=(5, 7)))

    def test_create_is_seeded(self):
        a = Encoder.create(4, embed_dim=3, hidden_dim=6, seed=11)
        b = Encoder.create(4, embed_dim=3, hidden_dim=6, seed=11)
        c = Encoder.create(4, embed_dim=3, hidden_dim=6, seed=12)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, c.w1)

    def test_copy_is_deep(self):
        enc = Encoder.create(4, embed_dim=3, hidden_dim=6)
        dup = enc.copy()
        dup.w1[0, 0] += 1.0
        assert enc.w1[0, 0] != dup.w1[0, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        enc = Encoder.create(4, embed_dim=3, hidden_dim=6, seed=seed)
        f = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 3))

        def loss_of(e):
            out, _ = e.forward(f)
            return float((out * weights).sum())

        out, hidden = enc.forward(f)
        got = enc.backward(f, hidden, weights)
        want = fd_param_grads(loss_of, enc.copy())
        for name in got:
            assert rel_err(got[name], want[name]) < 1e-6, name

    @pytest.mark.parametrize("n", [2, 33, 260])
    def test_forward_into_a_row_view_has_the_bits_of_the_expression(self, n):
        rng = np.random.default_rng(n)
        enc = random_encoder(rng)
        f = rng.normal(size=(n, 24)).astype(np.float32)
        want_e, want_h = parent_forward(enc, f)
        e, h = enc.forward(f)
        assert e.tobytes() == want_e.tobytes() and h.tobytes() == want_h.tobytes()
        buf = np.full((n + 5, 16), np.nan)
        e, h = enc.forward(f, out=buf[3:3 + n])
        assert np.shares_memory(e, buf)
        assert buf[3:3 + n].tobytes() == want_e.tobytes() and h.tobytes() == want_h.tobytes()
        assert np.isnan(buf[:3]).all() and np.isnan(buf[3 + n:]).all()

    @pytest.mark.parametrize("n", [2, 33, 260])
    def test_backward_into_kept_buffers_has_the_bits_of_the_expressions(self, n):
        rng = np.random.default_rng(n)
        enc = random_encoder(rng)
        f = rng.normal(size=(n, 24)).astype(np.float32)
        grad_out = rng.normal(size=(n, 16))
        _, hidden = enc.forward(f)
        want = parent_backward(enc, f, hidden, grad_out)
        fresh = enc.backward(f, hidden, grad_out)
        out = {name: np.full_like(p, np.nan) for name, p in enc.params().items()}
        got = enc.backward(f, hidden, grad_out, out)
        assert got is out and sorted(got) == sorted(want)
        for name in want:
            assert fresh[name].tobytes() == want[name].tobytes(), name
            assert got[name].tobytes() == want[name].tobytes(), name


class TestAdam:
    def test_zero_learning_rate_leaves_params(self, rng):
        enc = Encoder.create(3, embed_dim=2, hidden_dim=4)
        before = {k: v.copy() for k, v in enc.params().items()}
        grads = {k: rng.normal(size=v.shape) for k, v in enc.params().items()}
        adam_update(enc, AdamState.for_encoder(enc), grads, lr=0.0, weight_decay=0.0)
        for k, v in enc.params().items():
            assert np.array_equal(v, before[k])

    def test_first_step_is_signed_unit_move(self, rng):
        enc = Encoder.create(3, embed_dim=2, hidden_dim=4)
        before = {k: v.copy() for k, v in enc.params().items()}
        grads = {
            k: rng.choice([-1.0, 1.0], size=v.shape) * rng.uniform(0.5, 1.5, size=v.shape)
            for k, v in enc.params().items()
        }
        lr = 1e-2
        adam_update(enc, AdamState.for_encoder(enc), grads, lr=lr, weight_decay=0.0)
        for k, v in enc.params().items():
            # bias-corrected first step is lr * g / (|g| + eps)
            assert np.allclose(v - before[k], -lr * np.sign(grads[k]), atol=1e-8)

    def test_weight_decay_shrinks_params(self):
        enc = Encoder(np.ones((3, 4)), np.ones(4), np.ones((4, 2)), np.ones(2))
        zeros = {k: np.zeros_like(v) for k, v in enc.params().items()}
        adam_update(enc, AdamState.for_encoder(enc), zeros, lr=1e-3, weight_decay=0.1)
        for v in enc.params().values():
            assert (v < 1.0).all() and (v > 0.9).all()

    def test_in_place_update_equals_the_formula(self, rng):
        # the moment buffers and parameters are updated in place; the result
        # must be the formula's, bit for bit, step after step
        enc = Encoder.create(6, embed_dim=3, hidden_dim=5, seed=1)
        state = AdamState.for_encoder(enc)
        theta = {k: p.copy() for k, p in enc.params().items()}
        m = {k: np.zeros_like(p) for k, p in theta.items()}
        v = {k: np.zeros_like(p) for k, p in theta.items()}
        lr, wd, b1, b2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 7):
            grads = {k: rng.normal(size=p.shape) for k, p in theta.items()}
            given = {k: g.copy() for k, g in grads.items()}
            adam_update(enc, state, grads, lr=lr, weight_decay=wd)
            c = np.sqrt(1.0 - b2 ** t)
            alpha_t = lr * c / (1.0 - b1 ** t)
            eps_hat = eps * c
            for k in theta:
                g = grads[k] + wd * theta[k]
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                theta[k] = theta[k] - alpha_t * (m[k] / (np.sqrt(v[k]) + eps_hat))
            for k, p in enc.params().items():
                assert np.array_equal(p, theta[k]), (t, k)
                assert np.array_equal(state.m[k], m[k]), (t, k)
                assert np.array_equal(state.v[k], v[k]), (t, k)
                assert np.array_equal(grads[k], given[k]), (t, k)

    def test_update_agrees_with_the_textbook_order(self, rng):
        # the folded bias corrections change rounding only: over 1,000 steps
        # at the training step's lr and weight decay the parameters stay
        # within 1e-12 relative of lr * m_hat / (sqrt(v_hat) + eps)
        enc = Encoder.create(6, embed_dim=3, hidden_dim=5, seed=2)
        state = AdamState.for_encoder(enc)
        theta = {k: p.copy() for k, p in enc.params().items()}
        m = {k: np.zeros_like(p) for k, p in theta.items()}
        v = {k: np.zeros_like(p) for k, p in theta.items()}
        for t in range(1, 1001):
            grads = {k: rng.normal(size=p.shape) for k, p in theta.items()}
            adam_update(enc, state, grads, lr=1e-3, weight_decay=_WEIGHT_DECAY)
            textbook_adam(theta, m, v, grads, t, lr=1e-3, wd=_WEIGHT_DECAY)
        for k, p in enc.params().items():
            assert rel_err(p, theta[k]) < 1e-12, k
            assert rel_err(state.m[k], m[k]) < 1e-12 and rel_err(state.v[k], v[k]) < 1e-12, k

    def test_scratch_buffers_are_made_once(self, rng):
        enc = Encoder.create(4, embed_dim=3, hidden_dim=5, seed=2)
        state = AdamState.for_encoder(enc)
        grads = {k: rng.normal(size=p.shape) for k, p in enc.params().items()}
        adam_update(enc, state, grads, lr=1e-3, weight_decay=1e-5)
        made = {k: pair for k, pair in state.scratch.items()}
        assert sorted(made) == sorted(enc.params())
        adam_update(enc, state, grads, lr=1e-3, weight_decay=1e-5)
        assert all(state.scratch[k][i] is made[k][i] for k in made for i in range(2))

    def test_step_counter_advances(self):
        enc = Encoder.create(3, embed_dim=2, hidden_dim=4)
        state = AdamState.for_encoder(enc)
        zeros = {k: np.zeros_like(v) for k, v in enc.params().items()}
        adam_update(enc, state, zeros, lr=1e-3, weight_decay=0.0)
        adam_update(enc, state, zeros, lr=1e-3, weight_decay=0.0)
        assert state.step == 2


class TestCheckpoint:
    def test_round_trip_is_float32_exact(self, tmp_path):
        enc = Encoder.create(5, embed_dim=3, hidden_dim=7, seed=3)
        save_encoder(enc, tmp_path / "enc.rgwf", Hyperparams())
        back = load_encoder(tmp_path / "enc.rgwf")
        for name, p in enc.params().items():
            want = p.astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(back, name), want), name
        assert back.seed == 3

    def test_sidecar_records_hyperparams(self, tmp_path):
        enc = Encoder.create(5, embed_dim=3, hidden_dim=7)
        hyper = Hyperparams(alpha=0.4)
        save_encoder(enc, tmp_path / "enc.rgwf", hyper)
        meta = json.loads((tmp_path / "enc.rgwf.json").read_text())
        assert meta["hyperparams"]["alpha"] == 0.4
        assert meta["hyperparams"] == vars(hyper)  # every field, nothing else
        assert meta["embed_dim"] == 3

    def test_missing_sidecar(self, tmp_path):
        enc = Encoder.create(5, embed_dim=3, hidden_dim=7)
        save_encoder(enc, tmp_path / "enc.rgwf", Hyperparams())
        (tmp_path / "enc.rgwf.json").unlink()
        with pytest.raises(MalformedHeader):
            load_encoder(tmp_path / "enc.rgwf")

    def test_size_mismatch_with_sidecar(self, tmp_path):
        enc = Encoder.create(5, embed_dim=3, hidden_dim=7)
        save_encoder(enc, tmp_path / "enc.rgwf", Hyperparams())
        meta = json.loads((tmp_path / "enc.rgwf.json").read_text())
        meta["hidden_dim"] += 1
        (tmp_path / "enc.rgwf.json").write_text(json.dumps(meta))
        with pytest.raises(MalformedHeader):
            load_encoder(tmp_path / "enc.rgwf")


class TestSampleFrames:
    def test_sorted_unique_in_range(self, rng):
        idx = sample_frames(50, 12, rng)
        assert len(idx) == 12
        assert (np.diff(idx) > 0).all()
        assert idx.min() >= 0 and idx.max() < 50

    def test_full_sample_is_identity(self, rng):
        assert np.array_equal(sample_frames(6, 6, rng), np.arange(6))

    def test_too_many_requested(self, rng):
        with pytest.raises(InsufficientFrames):
            sample_frames(5, 6, rng)

    def test_deterministic_under_seed(self):
        a = sample_frames(40, 7, np.random.default_rng(99))
        b = sample_frames(40, 7, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_draws_are_roughly_uniform(self):
        # each of 5 indices should land in ~40% of 10k draws of 2; the band
        # is +-4 sigma of the binomial and the seed is fixed
        rng = np.random.default_rng(123)
        counts = np.zeros(5)
        for _ in range(10_000):
            counts[sample_frames(5, 2, rng)] += 1
        sigma = np.sqrt(10_000 * 0.4 * 0.6)
        assert (np.abs(counts - 4000) < 4 * sigma).all()


def step_target(enc, feats_x, feats_y, hyper, rng):
    """Clip indices and solved coupling of one step, built as train_step does."""
    idx_x = sample_frames(feats_x.n_frames, hyper.sampled_frames, rng)
    idx_y = sample_frames(feats_y.n_frames, hyper.sampled_frames, rng)
    ex, _ = enc.forward(feats_x.data[idx_x])
    ey, _ = enc.forward(feats_y.data[idx_y])
    coupling = solve_fgwot(build_cost_bundle(ex, ey, hyper), hyper)
    return idx_x, idx_y, coupling


class TestTrainingLoop:
    def test_alignment_targets_shapes(self, rng, desk_hyper):
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim)
        idx_x, idx_y, coupling = step_target(
            enc, videos[0], videos[1], desk_hyper, rng
        )
        assert len(idx_x) == len(idx_y) == desk_hyper.sampled_frames
        assert (np.diff(idx_x) > 0).all()
        assert coupling.T.shape == (13, 13)  # sampled 12 plus the virtual bin

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_target_descent(self, seed, desk_hyper):
        rng = np.random.default_rng(seed)
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim, seed=seed)
        idx_x, idx_y, coupling = step_target(
            enc, videos[0], videos[1], desk_hyper, rng
        )
        clip_x, clip_y = videos[0].data[idx_x], videos[1].data[idx_y]
        adam = AdamState.for_encoder(enc)
        totals = []
        for _ in range(30):
            report, grads = loss_and_param_grads(
                enc, clip_x, clip_y, coupling.real, None, desk_hyper,
                idx_x.astype(np.float64), idx_y.astype(np.float64),
            )
            totals.append(report.total)
            adam_update(enc, adam, grads, desk_hyper.learning_rate, _WEIGHT_DECAY)
        assert totals[-1] < totals[0]

    def test_end_to_end_gradients_match_finite_differences(self, rng, desk_hyper):
        from rgwot.losses import total_loss

        videos = toy_videos(rng, frames=15, dim=4)
        hyper = replace(desk_hyper, sampled_frames=6, embed_dim=3, hidden_dim=5,
                        sigma=2.0, tau=0.2, xi=0.5)
        enc = Encoder.create(4, embed_dim=3, hidden_dim=5, seed=1)
        idx_x, idx_y, coupling = step_target(
            enc, videos[0], videos[1], hyper, rng
        )
        clip_x, clip_y = videos[0].data[idx_x], videos[1].data[idx_y]
        px, py = idx_x.astype(np.float64), idx_y.astype(np.float64)

        _, got = loss_and_param_grads(enc, clip_x, clip_y, coupling.real, None,
                                      hyper, px, py)

        def loss_of(e):
            ex, _ = e.forward(clip_x)
            ey, _ = e.forward(clip_y)
            return total_loss(ex, ey, coupling.real, None, hyper, px, py).total

        want = fd_param_grads(loss_of, enc.copy())
        for name in got:
            assert rel_err(got[name], want[name]) < 1e-4, name

    def test_steps_through_kept_gradient_buffers_match_new_ones(self, desk_hyper):
        # train_step backpropagates into the gradient dict kept on its
        # AdamState; the steps must be those of new gradients, bit for bit.
        # The reference encodes the stacked clips in one forward pass and
        # backpropagates both embedding gradients in one backward pass into
        # new arrays
        videos = toy_videos(np.random.default_rng(3))
        hyper = replace(desk_hyper, embed_dim=5, hidden_dim=9)
        enc = Encoder.create(videos[0].feature_dim, hyper.embed_dim, hyper.hidden_dim, seed=3)
        ref = enc.copy()
        adam, ref_adam = AdamState.for_encoder(enc), AdamState.for_encoder(ref)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        kept = list(adam.grads.values())
        for a, b in [(0, 1), (2, 3), (1, 2), (3, 0)]:
            train_step(enc, adam, videos[a], videos[b], hyper, rng)
            idx_x = sample_frames(videos[a].n_frames, hyper.sampled_frames, ref_rng)
            idx_y = sample_frames(videos[b].n_frames, hyper.sampled_frames, ref_rng)
            clips = np.concatenate((videos[a].data[idx_x], videos[b].data[idx_y]),
                                   dtype=np.float64)
            e, hidden = ref.forward(clips)
            ex, ey = e[:len(idx_x)], e[len(idx_x):]
            coupling = solve_fgwot(build_cost_bundle(ex, ey, hyper), hyper)
            report = total_loss(ex, ey, coupling.real, None, hyper,
                                idx_x.astype(np.float64), idx_y.astype(np.float64))
            grads = ref.backward(clips, hidden, np.concatenate((report.grad_x, report.grad_y)))
            adam_update(ref, ref_adam, grads, hyper.learning_rate, _WEIGHT_DECAY)
            for name, p in enc.params().items():
                assert p.tobytes() == ref.params()[name].tobytes(), (a, b, name)
            assert all(g is k for g, k in zip(adam.grads.values(), kept))

    def test_steps_agree_with_two_pass_textbook_steps(self, desk_hyper):
        # the reference step encodes and backpropagates each clip on its own,
        # sums the two gradients and takes the textbook Adam step; over 60
        # steps the parameters stay within 1e-10 relative of train_step's
        videos = toy_videos(np.random.default_rng(6))
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim, seed=6)
        adam = AdamState.for_encoder(enc)
        ref = enc.copy()
        m = {k: np.zeros_like(p) for k, p in ref.params().items()}
        v = {k: np.zeros_like(p) for k, p in ref.params().items()}
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for t, (a, b) in enumerate([(0, 1), (2, 3), (1, 2), (3, 0)] * 15, start=1):
            train_step(enc, adam, videos[a], videos[b], desk_hyper, rng)
            idx_x, idx_y, coupling = step_target(ref, videos[a], videos[b], desk_hyper, ref_rng)
            clip_x, clip_y = videos[a].data[idx_x], videos[b].data[idx_y]
            ex, hx = parent_forward(ref, clip_x)
            ey, hy = parent_forward(ref, clip_y)
            report = total_loss(ex, ey, coupling.real, None, desk_hyper,
                                idx_x.astype(np.float64), idx_y.astype(np.float64))
            gx = parent_backward(ref, clip_x, hx, report.grad_x)
            gy = parent_backward(ref, clip_y, hy, report.grad_y)
            grads = {k: gx[k] + gy[k] for k in gx}
            params = ref.params()
            textbook_adam(params, m, v, grads, t, desk_hyper.learning_rate, _WEIGHT_DECAY)
            for name, p in params.items():
                setattr(ref, name, p)
        assert adam.step == 60
        for name, p in enc.params().items():
            assert rel_err(p, getattr(ref, name)) < 1e-10, name

    def test_adam_state_is_built_whole_and_reused(self, rng, desk_hyper):
        # for_encoder makes every buffer a step uses, one gradient dict
        # included; train_step allocates none
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim)
        adam = AdamState.for_encoder(enc)
        params = enc.params()

        def buffers():
            """(parameter name, buffer) for every buffer the state holds."""
            return ([(k, adam.m[k]) for k in params] + [(k, adam.v[k]) for k in params]
                    + [(k, b) for k in params for b in adam.scratch[k]]
                    + [(k, adam.grads[k]) for k in params])

        for held in (adam.m, adam.v, adam.scratch, adam.grads):
            assert sorted(held) == sorted(params)
        assert all(b.shape == params[k].shape for k, b in buffers())
        made = [b for _, b in buffers()]
        assert len({id(b) for b in made}) == len(made) == 5 * len(params)
        assert not any(np.shares_memory(b, p) for b in made for p in params.values())
        for _ in range(2):
            train_step(enc, adam, videos[0], videos[1], desk_hyper, rng)
            assert all(b is k for (_, b), k in zip(buffers(), made))
        assert adam.step == 2

    def test_masks_are_rejected(self, rng, desk_hyper):
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim)
        idx_x, idx_y, coupling = step_target(enc, videos[0], videos[1], desk_hyper, rng)
        n, m = coupling.real.shape
        masks = (np.zeros(n, dtype=bool), np.zeros(m, dtype=bool))
        with pytest.raises(ConfigError):
            loss_and_param_grads(enc, videos[0].data[idx_x], videos[1].data[idx_y],
                                 coupling.real, masks, desk_hyper)

    def test_clips_of_different_widths_are_rejected(self, rng, desk_hyper):
        enc = Encoder.create(4, desk_hyper.embed_dim, desk_hyper.hidden_dim)
        with pytest.raises(DimMismatch):
            loss_and_param_grads(enc, rng.normal(size=(6, 4)), rng.normal(size=(6, 3)),
                                 np.full((6, 6), 1.0 / 36), None, desk_hyper)

    def test_train_step_updates_and_logs(self, rng, desk_hyper):
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim)
        adam = AdamState.for_encoder(enc)
        before = {k: v.copy() for k, v in enc.params().items()}
        report, coupling = train_step(enc, adam, videos[0], videos[1], desk_hyper, rng)
        assert adam.step == 1
        assert coupling.T.shape == (13, 13)  # sampled 12 plus the virtual bin
        assert np.isfinite(report.total)
        assert any(not np.array_equal(v, before[k]) for k, v in enc.params().items())

    def test_train_step_does_not_depend_on_zeta(self, desk_hyper):
        # zeta is segment's mask threshold; a training step scores every
        # sampled frame, so at zeta=1, where every frame of an entropic plan
        # falls below the threshold, the step is the same bit for bit
        videos = toy_videos(np.random.default_rng(2))
        base = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                              desk_hyper.hidden_dim, seed=4)
        runs = []
        for zeta in (0.0, 1.0):
            enc = base.copy()
            adam = AdamState.for_encoder(enc)
            report, _ = train_step(enc, adam, videos[0], videos[1],
                                   replace(desk_hyper, zeta=zeta), np.random.default_rng(9))
            runs.append((enc.params(), (report.align, report.reg_x, report.reg_y, report.total)))
        (params_0, scalars_0), (params_1, scalars_1) = runs
        assert scalars_0 == scalars_1
        for name in params_0:
            assert np.array_equal(params_0[name], params_1[name]), name

    def test_train_step_encodes_each_clip_once(self, rng, desk_hyper, monkeypatch):
        videos = toy_videos(rng)
        enc = Encoder.create(videos[0].feature_dim, desk_hyper.embed_dim,
                             desk_hyper.hidden_dim)
        forward = Encoder.forward
        calls = []

        def counted(self, features):
            calls.append(len(features))
            return forward(self, features)

        monkeypatch.setattr(Encoder, "forward", counted)
        train_step(enc, AdamState.for_encoder(enc), videos[0], videos[1], desk_hyper, rng)
        assert calls == [24]  # both 12-frame clips, stacked, in one pass

    def test_on_target_sees_every_step(self, rng, desk_hyper):
        videos = toy_videos(rng)
        seen = []
        _, history = train(videos, desk_hyper, rng, on_target=seen.append)
        assert len(seen) == len(history) == desk_hyper.epochs * 2
        assert all(c.T.shape == (13, 13) for c in seen)

    def test_odd_video_sits_out(self, rng, desk_hyper):
        videos = toy_videos(rng, n_videos=3)
        _, history = train(videos, desk_hyper, rng)
        assert len(history) == desk_hyper.epochs  # one pair per epoch

    def test_history_holds_no_arrays(self, rng, desk_hyper):
        # each step's embedding gradients are spent by its Adam step
        _, history = train(toy_videos(rng), desk_hyper, rng)
        assert history
        for record in history:
            assert not any(isinstance(v, np.ndarray) for v in vars(record).values())

    def test_zero_epochs(self, rng, desk_hyper):
        videos = toy_videos(rng)
        enc, history = train(videos, replace(desk_hyper, epochs=0), rng)
        assert history == []
        assert enc.feature_dim == videos[0].feature_dim

    def test_mixed_widths_rejected(self, rng, desk_hyper):
        videos = toy_videos(rng)
        videos.append(FrameFeatures("odd", np.ones((10, 3), dtype=np.float32)))
        with pytest.raises(DimMismatch):
            train(videos, desk_hyper, rng)

    def test_training_is_deterministic(self, desk_hyper):
        videos = toy_videos(np.random.default_rng(5))
        enc_a, hist_a = train(videos, desk_hyper, np.random.default_rng(7))
        enc_b, hist_b = train(videos, desk_hyper, np.random.default_rng(7))
        for name in enc_a.params():
            assert np.array_equal(enc_a.params()[name], enc_b.params()[name])
        assert [h.total for h in hist_a] == [h.total for h in hist_b]

    def test_loss_csv_rows_recompose(self, rng, desk_hyper, tmp_path):
        videos = toy_videos(rng)
        _, history = train(videos, desk_hyper, rng)
        write_loss_csv(history, tmp_path / "curve.csv", desk_hyper)
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        # every Hyperparams field, in name order
        assert lines[0].startswith("# hyperparams: ")
        items = [item.split("=") for item in lines[0].split()[2:]]
        assert [name for name, _ in items] == sorted(vars(desk_hyper))
        assert dict(items) == {k: str(v) for k, v in vars(desk_hyper).items()}
        assert lines[1] == "step,align,reg_x,reg_y,total"
        rows = lines[2:]
        assert len(rows) == len(history)
        for row, rep in zip(rows, history):
            _, align, reg_x, reg_y, total = map(float, row.split(","))
            assert total == pytest.approx(align + desk_hyper.xi * (reg_x + reg_y),
                                          rel=1e-8)
