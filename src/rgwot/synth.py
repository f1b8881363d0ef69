"""Synthetic procedure tasks with known ground truth.

Each video walks through the K steps (optionally with adjacent steps
transposed and one step repeated), emitting Gaussian features around the
step means. Background frames are sprinkled in at `background_rate`; they
are drawn on a spread-out shell anchored at `background_mean`, far from
every step mean, so they imitate heterogeneous junk rather than a sixth
step. Everything is a pure function of the task seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import BACKGROUND, FrameFeatures, LabelSequence, TaskManifest, VideoEntry, save_features, save_labels, save_manifest
from .errors import ConfigError

_MIN_SEGMENT = 4


@dataclass(frozen=True)
class SynthTask:
    task_name: str
    k_true: int
    feature_dim: int
    videos: int
    frames_per_video: tuple[int, int]
    step_means: np.ndarray  # (K, F)
    background_mean: np.ndarray  # (F,) anchor of the background shell
    noise_sigma: float
    permutation_rate: float
    repeat_rate: float
    background_rate: float
    seed: int

    def __post_init__(self):
        lo, hi = self.frames_per_video
        if self.k_true < 2 or self.videos < 2:
            raise ConfigError("need at least 2 steps and 2 videos")
        if lo > hi or lo < self.k_true * _MIN_SEGMENT * 2:
            raise ConfigError(f"frames_per_video {self.frames_per_video} too small for K={self.k_true}")
        for name in ("permutation_rate", "repeat_rate", "background_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.step_means.shape != (self.k_true, self.feature_dim):
            raise ConfigError("step_means shape does not match K x F")
        if np.unique(self.step_means, axis=0).shape[0] != self.k_true:
            raise ConfigError("step means must be pairwise distinct")


def make_task(task_name: str, k: int = 5, feature_dim: int = 24, videos: int = 10,
              frames_per_video: tuple[int, int] = (180, 220), noise_sigma: float = 0.1,
              permutation_rate: float = 0.1, repeat_rate: float = 0.1,
              background_rate: float = 0.1, seed: int = 7,
              mean_scale: float = 4.0, mean_jitter: float = 0.0) -> SynthTask:
    """Build a task configuration; means are drawn from the seed.

    mean_jitter > 0 replaces well-separated means by one common vector plus
    jitter-sized offsets (the collapse-prone regime).
    """
    rng = np.random.default_rng(seed)
    if mean_jitter > 0.0:
        base = rng.normal(size=feature_dim)
        base *= mean_scale / np.linalg.norm(base)
        means = base[None, :] + mean_jitter * rng.normal(size=(k, feature_dim))
    else:
        means = rng.normal(size=(k, feature_dim))
        means *= mean_scale / np.linalg.norm(means, axis=1, keepdims=True)
    centroid = means.mean(axis=0)
    diffs = means[:, None, :] - means[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(-1)).max())
    direction = rng.normal(size=feature_dim)
    direction /= np.linalg.norm(direction)
    background_mean = centroid + 2.2 * diameter * direction
    return SynthTask(
        task_name=task_name,
        k_true=k,
        feature_dim=feature_dim,
        videos=videos,
        frames_per_video=frames_per_video,
        step_means=means,
        background_mean=background_mean,
        noise_sigma=noise_sigma,
        permutation_rate=permutation_rate,
        repeat_rate=repeat_rate,
        background_rate=background_rate,
        seed=seed,
    )


def profiles(seed: int | None = None) -> dict[str, SynthTask]:
    """The three stock benchmark profiles."""
    def s(default):
        return default if seed is None else seed

    return {
        "easy": make_task("easy", k=5, videos=10, noise_sigma=0.1,
                          permutation_rate=0.1, repeat_rate=0.1, background_rate=0.1,
                          seed=s(7)),
        "hard": make_task("hard", k=5, videos=10, noise_sigma=0.25,
                          permutation_rate=0.3, repeat_rate=0.3, background_rate=0.3,
                          seed=s(11)),
        "collapse-prone": make_task("collapse-prone", k=5, videos=8,
                                    frames_per_video=(160, 200), noise_sigma=1.0,
                                    permutation_rate=0.0, repeat_rate=0.0,
                                    background_rate=0.0, seed=s(13),
                                    mean_jitter=0.15),
    }


def _step_sequence(task: SynthTask, rng: np.random.Generator) -> list[int]:
    order = list(range(task.k_true))
    for i in range(task.k_true - 1):
        if rng.random() < task.permutation_rate:
            order[i], order[i + 1] = order[i + 1], order[i]
    if rng.random() < task.repeat_rate:
        step = int(rng.integers(task.k_true))
        slot = int(rng.integers(len(order) + 1))
        order.insert(slot, step)
    return order


def _segment_lengths(n: int, segments: int, rng: np.random.Generator) -> np.ndarray:
    props = rng.dirichlet(np.full(segments, 3.0))
    lengths = np.maximum(_MIN_SEGMENT, np.floor(props * n).astype(np.int64))
    while lengths.sum() > n:
        lengths[int(np.argmax(lengths))] -= 1
    lengths[int(np.argmax(lengths))] += n - lengths.sum()
    return lengths


def _background_frame(task: SynthTask, rng: np.random.Generator) -> np.ndarray:
    centroid = task.step_means.mean(axis=0)
    anchor_dir = task.background_mean - centroid
    radius = float(np.linalg.norm(anchor_dir))
    direction = rng.normal(size=task.feature_dim)
    direction /= np.linalg.norm(direction)
    if direction @ anchor_dir < 0:  # keep the shell on the anchor's side
        direction = -direction
    return centroid + radius * direction + task.noise_sigma * rng.normal(size=task.feature_dim)


def generate(task: SynthTask):
    """Materialize the task: features, labels and an in-memory manifest.

    Deterministic in task.seed; calling twice yields identical bytes.
    """
    rng = np.random.default_rng(task.seed)
    lo, hi = task.frames_per_video
    all_features: list[FrameFeatures] = []
    all_labels: list[LabelSequence] = []
    entries = []
    for v in range(task.videos):
        vid = f"video_{v:02d}"
        sequence = _step_sequence(task, rng)
        n = int(rng.integers(lo, hi + 1))
        lengths = _segment_lengths(n, len(sequence), rng)
        frames: list[np.ndarray] = []
        labels: list[int] = []
        for step, length in zip(sequence, lengths):
            for _ in range(length):
                if task.background_rate > 0.0 and rng.random() < task.background_rate:
                    frames.append(_background_frame(task, rng))
                    labels.append(BACKGROUND)
                frames.append(task.step_means[step]
                              + task.noise_sigma * rng.normal(size=task.feature_dim))
                labels.append(step)
        data = np.asarray(frames, dtype=np.float32)
        all_features.append(FrameFeatures(video_id=vid, data=data))
        all_labels.append(LabelSequence(video_id=vid, labels=np.asarray(labels, dtype=np.int64)))
        entries.append(VideoEntry(vid, f"{vid}.rgwf", f"{vid}.labels.txt"))
    manifest = TaskManifest(task_name=task.task_name, k=task.k_true, videos=tuple(entries))
    return all_features, all_labels, manifest


def planted_order(labels: LabelSequence) -> list[int]:
    """Ground-truth step order of one video (consecutive runs, background skipped)."""
    order = []
    for v in labels.labels:
        step = int(v)
        if step == BACKGROUND:
            continue
        if not order or order[-1] != step:
            order.append(step)
    return order


def write_task(task: SynthTask, out_dir) -> Path:
    """Write features, labels and manifest under out_dir; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features, labels, manifest = generate(task)
    resolved = []
    for feats, labs in zip(features, labels):
        fpath = out / f"{feats.video_id}.rgwf"
        lpath = out / f"{feats.video_id}.labels.txt"
        save_features(feats, fpath)
        save_labels(labs, lpath)
        resolved.append(VideoEntry(feats.video_id, fpath, lpath))
    manifest_path = out / "manifest.json"
    save_manifest(TaskManifest(manifest.task_name, manifest.k, tuple(resolved)), manifest_path)
    return manifest_path
