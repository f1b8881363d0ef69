"""Pairwise self-supervised training loop.

Each step samples a clip from two videos, encodes both, solves the fused
transport problem between the clips, and descends the alignment +
regularizer loss with the solved plan held constant. Training is
single-threaded and fully determined by the passed Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import FrameFeatures, Hyperparams
from .encoder import AdamState, Encoder, adam_update
from .errors import DimMismatch, InsufficientFrames
from .losses import LossReport, total_loss
from .priors import background_mask, build_cost_bundle
from .solver import solve_fgwot


def sample_frames(n_total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted uniform sample of frame indices without replacement."""
    if count > n_total:
        raise InsufficientFrames(f"cannot sample {count} of {n_total} frames")
    idx = rng.choice(n_total, size=count, replace=False)
    idx.sort()
    return idx


@dataclass
class TrainState:
    encoder: Encoder
    adam: AdamState
    history: list[LossReport] = field(default_factory=list)

    @classmethod
    def create(cls, encoder: Encoder) -> "TrainState":
        return cls(encoder=encoder, adam=AdamState.for_encoder(encoder))


def alignment_targets(encoder: Encoder, feats_x: FrameFeatures, feats_y: FrameFeatures,
                      hyper: Hyperparams, rng: np.random.Generator):
    """Sample clips and solve for the training target of one pair.

    Returns (idx_x, idx_y, coupling, masks); the coupling's plan is the
    constant target for the loss, masks flag background frames.
    """
    idx_x = sample_frames(feats_x.n_frames, min(hyper.sampled_frames, feats_x.n_frames), rng)
    idx_y = sample_frames(feats_y.n_frames, min(hyper.sampled_frames, feats_y.n_frames), rng)
    ex, _ = encoder.forward(feats_x.data[idx_x])
    ey, _ = encoder.forward(feats_y.data[idx_y])
    bundle = build_cost_bundle(ex, ey, hyper)
    coupling = solve_fgwot(bundle, hyper)
    masks = background_mask(coupling, hyper.zeta)
    return idx_x, idx_y, coupling, masks


def loss_and_param_grads(encoder: Encoder, clip_x: np.ndarray, clip_y: np.ndarray,
                         t_star: np.ndarray, masks, hyper: Hyperparams,
                         positions_x=None, positions_y=None):
    """Loss report and parameter gradients for fixed target plan and masks."""
    ex, hx = encoder.forward(clip_x)
    ey, hy = encoder.forward(clip_y)
    report = total_loss(ex, ey, t_star, masks, hyper, positions_x, positions_y)
    grads_x = encoder.backward(clip_x, hx, report.grad_x)
    grads_y = encoder.backward(clip_y, hy, report.grad_y)
    grads = {k: grads_x[k] + grads_y[k] for k in grads_x}
    return report, grads


def train_step(state: TrainState, feats_x: FrameFeatures, feats_y: FrameFeatures,
               hyper: Hyperparams, rng: np.random.Generator,
               on_target=None) -> LossReport:
    """One optimization step on a pair of videos.

    on_target, when given, receives the solved coupling of this step (used by
    the CLI to dump diagnostics).
    """
    idx_x, idx_y, coupling, masks = alignment_targets(
        state.encoder, feats_x, feats_y, hyper, rng
    )
    if on_target is not None:
        on_target(coupling)
    report, grads = loss_and_param_grads(
        state.encoder,
        feats_x.data[idx_x],
        feats_y.data[idx_y],
        coupling.T,
        masks,
        hyper,
        positions_x=idx_x.astype(np.float64),
        positions_y=idx_y.astype(np.float64),
    )
    adam_update(state.encoder, state.adam, grads, hyper.learning_rate, hyper.weight_decay)
    state.history.append(report)
    return report


def train(videos: list[FrameFeatures], hyper: Hyperparams, rng: np.random.Generator,
          on_target=None) -> tuple[Encoder, list[LossReport]]:
    """Train an encoder on all videos of one task.

    Every epoch shuffles the videos and walks them in pairs (an odd video
    sits the epoch out).
    """
    widths = {v.feature_dim for v in videos}
    if len(widths) != 1:
        raise DimMismatch(f"videos disagree on feature width: {sorted(widths)}")
    seed = int(rng.integers(0, 2**31 - 1))
    state = TrainState.create(Encoder.create(
        feature_dim=widths.pop(),
        embed_dim=hyper.embed_dim,
        hidden_dim=hyper.hidden_dim,
        seed=seed,
    ))
    for _ in range(hyper.epochs):
        order = rng.permutation(len(videos))
        for a, b in zip(order[0::2], order[1::2]):
            train_step(state, videos[a], videos[b], hyper, rng, on_target=on_target)
    return state.encoder, state.history


def write_loss_csv(history: list[LossReport], path, hyper: Hyperparams | None = None) -> None:
    with open(path, "w") as fh:
        if hyper is not None:
            fh.write(f"# {hyper_header(hyper)}\n")
        fh.write("step,align,reg_x,reg_y,total\n")
        for i, rep in enumerate(history):
            fh.write(f"{i},{rep.align:.10g},{rep.reg_x:.10g},{rep.reg_y:.10g},{rep.total:.10g}\n")


def hyper_header(hyper: Hyperparams) -> str:
    items = [f"{k}={v}" for k, v in sorted(vars(hyper).items())
             if isinstance(v, (int, float, bool))]
    return "hyperparams: " + " ".join(items)
