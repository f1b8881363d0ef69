"""On-disk formats and core value types.

Feature files (.rgwf) are little-endian binary: a 4-byte magic ``RGWF``,
a u32 format version (currently 1), u32 frame count N, u32 feature width D,
followed by N*D float32 values in row-major order.

Label files are plain text, one signed integer per line; -1 marks a
background frame.

Manifests are JSON with keys ``task_name``, ``k`` and ``videos``, where each
video entry has ``id``, ``features`` and optionally ``labels``. Paths are
resolved relative to the manifest's directory. See the README for a sample.

All value types here are frozen; treat the wrapped arrays as read-only.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    LengthMismatch,
    MalformedHeader,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)

RGWF_MAGIC = b"RGWF"
RGWF_VERSION = 1
_HEADER = struct.Struct("<4sIII")
BACKGROUND = -1  # the label of a frame that belongs to no key step


def write_rgwf(path, matrix) -> None:
    """Write a 2-D array as an .rgwf file (float32, little-endian)."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFiniteValue(f"refusing to write non-finite values to {path}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RGWF_MAGIC, RGWF_VERSION, m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_rgwf(path):
    """Read an .rgwf file back into a float32 (N, D) array."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if len(raw) < _HEADER.size:
        raise MalformedHeader(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n, d = _HEADER.unpack_from(raw)
    if magic != RGWF_MAGIC:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")
    if version != RGWF_VERSION:
        raise MalformedHeader(f"{path}: unsupported version {version}")
    payload = raw[_HEADER.size:]
    expected = 4 * n * d
    if len(payload) != expected:
        raise ShapeMismatch(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{path}: payload contains non-finite values")
    return data


@dataclass(frozen=True)
class FrameFeatures:
    """Per-frame feature matrix for one video, row i = frame i."""

    video_id: str
    data: np.ndarray  # (N, F) float32

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ShapeMismatch(f"{self.video_id}: features must be 2-D")
        n, f = self.data.shape
        if n < 2 or f < 1:
            raise ShapeMismatch(f"{self.video_id}: need N >= 2 and F >= 1, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NonFiniteValue(f"{self.video_id}: non-finite feature values")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FrameEmbeddings:
    """Learned embedding matrix for one video."""

    video_id: str
    data: np.ndarray  # (N, D) float64


@dataclass(frozen=True)
class LabelSequence:
    """One integer key-step label per frame; BACKGROUND marks background."""

    video_id: str
    labels: np.ndarray  # (N,) int

    def __post_init__(self):
        if self.labels.ndim != 1:
            raise ShapeMismatch(f"{self.video_id}: labels must be 1-D")
        if self.labels.size and self.labels.min() < BACKGROUND:
            raise ParseError(f"{self.video_id}: label below background code {BACKGROUND}")


def save_features(features: FrameFeatures, path) -> None:
    write_rgwf(path, features.data)


def load_features(path, video_id: str | None = None) -> FrameFeatures:
    vid = video_id if video_id is not None else Path(path).stem
    return FrameFeatures(video_id=vid, data=read_rgwf(path))


def save_labels(labels: LabelSequence, path) -> None:
    with open(path, "w") as fh:
        for v in labels.labels.tolist():
            fh.write(f"{v}\n")


def load_labels(path, video_id: str | None = None) -> LabelSequence:
    vid = video_id if video_id is not None else Path(path).stem
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: not an integer label: {text!r}") from None
    return LabelSequence(video_id=vid, labels=np.asarray(values, dtype=np.int64))


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    features_path: Path
    labels_path: Path | None = None


@dataclass(frozen=True)
class TaskManifest:
    """A named task: K key steps and at least two videos."""

    task_name: str
    k: int
    videos: tuple[VideoEntry, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ParseError(f"{self.task_name}: k must be >= 1, got {self.k}")
        if len(self.videos) < 2:
            raise ParseError(f"{self.task_name}: need at least 2 videos")
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ParseError(f"{self.task_name}: duplicate video ids")

    def entry(self, video_id: str) -> VideoEntry:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise ParseError(f"{self.task_name}: unknown video id {video_id!r}")


def save_manifest(manifest: TaskManifest, path) -> None:
    """Write a manifest as JSON with paths relative to the manifest directory."""
    base = Path(path).resolve().parent
    videos = []
    for v in manifest.videos:
        entry = {"id": v.video_id, "features": _relativize(v.features_path, base)}
        if v.labels_path is not None:
            entry["labels"] = _relativize(v.labels_path, base)
        videos.append(entry)
    doc = {"task_name": manifest.task_name, "k": manifest.k, "videos": videos}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _relativize(p, base: Path) -> str:
    p = Path(p)
    try:
        return p.resolve().relative_to(base).as_posix()
    except ValueError:
        return p.as_posix()


def load_manifest(path) -> TaskManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("task_name", "k", "videos"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")
    if isinstance(doc["k"], bool) or not isinstance(doc["k"], int):
        raise ParseError(f"{path}: k must be an integer")
    if not (isinstance(doc["videos"], list) and all(isinstance(v, dict) for v in doc["videos"])):
        raise ParseError(f"{path}: videos must be a list of objects")
    base = path.resolve().parent
    videos = []
    for raw in doc["videos"]:
        if "id" not in raw or "features" not in raw:
            raise ParseError(f"{path}: video entries need 'id' and 'features'")
        if not isinstance(raw["features"], str):
            raise ParseError(f"{path}: 'features' of video {raw['id']!r} must be a path string")
        if not isinstance(raw.get("labels", ""), (str, type(None))):
            raise ParseError(f"{path}: 'labels' of video {raw['id']!r} must be a path string")
        feat = base / raw["features"]
        if not feat.is_file():
            raise ParseError(f"{path}: features file not found: {feat}")
        labels = None
        if raw.get("labels") is not None:
            labels = base / raw["labels"]
            if not labels.is_file():
                raise ParseError(f"{path}: labels file not found: {labels}")
        videos.append(VideoEntry(str(raw["id"]), feat, labels))
    return TaskManifest(task_name=str(doc["task_name"]), k=doc["k"], videos=tuple(videos))


def load_task(manifest: TaskManifest):
    """Load every video of a task.

    Returns (features, labels) dicts keyed by video id; labels may be missing
    for a video. Label length is checked against the frame count, and label
    values against the manifest's K.
    """
    features: dict[str, FrameFeatures] = {}
    labels: dict[str, LabelSequence] = {}
    for entry in manifest.videos:
        feats = load_features(entry.features_path, entry.video_id)
        features[entry.video_id] = feats
        if entry.labels_path is None:
            continue
        seq = load_labels(entry.labels_path, entry.video_id)
        if seq.labels.size != feats.n_frames:
            raise LengthMismatch(
                f"{entry.video_id}: {seq.labels.size} labels for {feats.n_frames} frames"
            )
        if seq.labels.size and seq.labels.max() >= manifest.k:
            raise ParseError(
                f"{entry.video_id}: label {int(seq.labels.max())} >= k={manifest.k}"
            )
        labels[entry.video_id] = seq
    return features, labels


@dataclass(frozen=True)
class Hyperparams:
    """Every knob of the pipeline in one place.

    Defaults follow the reference configuration; sigma=300 and epochs=300
    are sized for corpora of long real videos, and the short bundled tasks
    take a tighter sigma and fewer epochs as flags (README quick start).
    sigma counts frames (same units as the frame indices handed to the
    temporal regularizer). Fixed values are constants beside their one
    user: the solver's stopping rule (solver._MAX_OUTER, _SINKHORN_ITERS,
    _TOL, _INNER_TOL) and the forcing term of its inexact inner solves
    (solver._INNER_FORCING), the Sinkhorn kernel's check period and
    extrapolation bound (kernels._CHECK and _RHO_MIN, in
    kernels.sinkhorn_log), Adam's weight decay (training._WEIGHT_DECAY),
    and segment's k-means runs and Lloyd-round cap (segmentation._RESTARTS
    and _LLOYD_ITERS) and background trim cut (segmentation._TRIM).
    """

    k: int = 7
    sampled_frames: int = 32
    epochs: int = 300
    learning_rate: float = 1e-4
    sigma: float = 300.0
    lam: float = 2.0
    embed_dim: int = 128
    hidden_dim: int = 256
    xi: float = 1.0
    epsilon: float = 0.07
    zeta: float = 0.5
    alpha: float = 0.3
    r: float = 0.02
    rho: float = 0.35
    tau: float = 0.1
    use_virtual: bool = True

    def __post_init__(self):
        checks = [
            (self.k >= 1, "k must be >= 1"),
            (self.sampled_frames >= 2, "sampled_frames must be >= 2"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.learning_rate > 0, "learning_rate must be positive"),
            (self.sigma >= 0, "sigma must be >= 0"),
            (self.lam >= 0, "lam must be >= 0"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.hidden_dim >= 1, "hidden_dim must be >= 1"),
            (self.xi >= 0, "xi must be >= 0"),
            (self.epsilon > 0, "epsilon must be positive"),
            (0.0 <= self.zeta <= 1.0, "zeta must lie in [0, 1]"),
            (0.0 <= self.alpha <= 1.0, "alpha must lie in [0, 1]"),
            (0.0 < self.r <= 1.0, "r must lie in (0, 1]"),
            (self.rho >= 0, "rho must be >= 0"),
            (self.tau > 0, "tau must be positive"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        for name in ("learning_rate", "sigma", "lam", "xi", "epsilon", "rho", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
