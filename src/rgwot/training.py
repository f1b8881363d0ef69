"""Pairwise self-supervised training loop.

A step is one pass over a pair of videos: sample a clip from each, encode
the two clips stacked in one forward pass, solve the fused transport problem
between them, score the alignment + regularizer loss of every sampled frame
against the real-frame block of the solved plan (held constant),
backpropagate through the stack in one backward pass and take one Adam step.
Training is single-threaded and fully determined by the passed Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import FrameFeatures, Hyperparams
from .encoder import AdamState, Encoder, adam_update
from .errors import DimMismatch, InsufficientFrames
from .losses import LossReport, total_loss
from .priors import build_cost_bundle
from .solver import Coupling, solve_fgwot

# L2 weight decay of every Adam step
_WEIGHT_DECAY = 1e-5


@dataclass(frozen=True)
class StepRecord:
    """What the history keeps of a step's LossReport: its scalars, without
    the embedding gradients the Adam step used up."""

    align: float
    reg_x: float
    reg_y: float
    total: float


def sample_frames(n_total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted uniform sample of frame indices without replacement."""
    if count > n_total:
        raise InsufficientFrames(f"cannot sample {count} of {n_total} frames")
    idx = rng.choice(n_total, size=count, replace=False)
    idx.sort()
    return idx


def _encode_pair(encoder: Encoder, clip_x, clip_y):
    """(clips, hidden, ex, ey): both clips stacked in one float64 array and
    encoded in one pass; ex and ey are row views of the stack's embeddings."""
    if np.shape(clip_x)[1:] != np.shape(clip_y)[1:]:
        raise DimMismatch(f"clips of widths {np.shape(clip_x)[1:]} and {np.shape(clip_y)[1:]}")
    clips = np.concatenate((clip_x, clip_y), dtype=np.float64)
    e, hidden = encoder.forward(clips)
    return clips, hidden, e[:len(clip_x)], e[len(clip_x):]


def loss_and_param_grads(encoder: Encoder, clip_x: np.ndarray, clip_y: np.ndarray,
                         t_star: np.ndarray, masks, hyper: Hyperparams,
                         positions_x=None, positions_y=None):
    """Loss report and parameter gradients for a fixed real-frame plan (masks must be None)."""
    return _backprop_loss(encoder, _encode_pair(encoder, clip_x, clip_y), t_star, masks,
                          hyper, positions_x, positions_y)


def _backprop_loss(encoder: Encoder, encoded, t_star: np.ndarray, masks, hyper: Hyperparams,
                   positions_x, positions_y, out=None):
    """(report, grads): the loss of _encode_pair's encoded clips against t_star,
    and its parameter gradients, written into out when it is given."""
    clips, hidden, ex, ey = encoded
    report = total_loss(ex, ey, t_star, masks, hyper, positions_x, positions_y)
    grad_out = np.concatenate((report.grad_x, report.grad_y))
    return report, encoder.backward(clips, hidden, grad_out, out)


def train_step(encoder: Encoder, adam: AdamState, feats_x: FrameFeatures,
               feats_y: FrameFeatures, hyper: Hyperparams,
               rng: np.random.Generator) -> tuple[LossReport, Coupling]:
    """One optimization step on a pair of videos, updating encoder and adam in place.

    Returns the step's loss report and the solved coupling (virtual frame
    included when the solver used one).
    """
    idx_x = sample_frames(feats_x.n_frames, min(hyper.sampled_frames, feats_x.n_frames), rng)
    idx_y = sample_frames(feats_y.n_frames, min(hyper.sampled_frames, feats_y.n_frames), rng)
    encoded = _encode_pair(encoder, feats_x.data[idx_x], feats_y.data[idx_y])
    coupling = solve_fgwot(build_cost_bundle(*encoded[2:], hyper), hyper)
    report, grads = _backprop_loss(encoder, encoded, coupling.real, None, hyper,
                                   idx_x.astype(np.float64), idx_y.astype(np.float64),
                                   adam.grads)
    adam_update(encoder, adam, grads, hyper.learning_rate, _WEIGHT_DECAY)
    return report, coupling


def train(videos: list[FrameFeatures], hyper: Hyperparams, rng: np.random.Generator,
          on_target=None) -> tuple[Encoder, list[StepRecord]]:
    """Train an encoder on all videos of one task.

    Every epoch shuffles the videos and walks them in pairs (an odd video
    sits the epoch out). on_target, when given, receives the solved coupling
    of every step (the CLI dumps it as a diagnostic). The history holds one
    StepRecord per step.
    """
    widths = {v.feature_dim for v in videos}
    if len(widths) != 1:
        raise DimMismatch(f"videos disagree on feature width: {sorted(widths)}")
    seed = int(rng.integers(0, 2**31 - 1))
    encoder = Encoder.create(widths.pop(), hyper.embed_dim, hyper.hidden_dim, seed=seed)
    adam = AdamState.for_encoder(encoder)
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(videos))
        for a, b in zip(order[0::2], order[1::2]):
            report, coupling = train_step(encoder, adam, videos[a], videos[b], hyper, rng)
            if on_target is not None:
                on_target(coupling)
            history.append(StepRecord(report.align, report.reg_x, report.reg_y,
                                      report.total))
    return encoder, history


def write_loss_csv(history: list[StepRecord], path, hyper: Hyperparams) -> None:
    """A header line naming every Hyperparams field, then one row per step."""
    items = " ".join(f"{k}={v}" for k, v in sorted(vars(hyper).items()))
    with open(path, "w") as fh:
        fh.write(f"# hyperparams: {items}\n")
        fh.write("step,align,reg_x,reg_y,total\n")
        for i, rep in enumerate(history):
            fh.write(f"{i},{rep.align:.10g},{rep.reg_x:.10g},{rep.reg_y:.10g},{rep.total:.10g}\n")
