"""Two-layer MLP frame encoder with hand-written backprop and Adam.

The forward map is E = tanh(F W1 + b1) W2 + b2. tanh keeps the map smooth so
gradient checks against central finite differences are clean. Checkpoints
reuse the .rgwf container for the flattened parameter vector plus a JSON
sidecar describing shapes and hyperparameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import FrameEmbeddings, FrameFeatures, read_rgwf, write_rgwf
from .errors import DimMismatch, MalformedHeader

PARAM_NAMES = ("w1", "b1", "w2", "b2")


class Encoder:
    def __init__(self, w1, b1, w2, b2, seed: int = 0):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.seed = seed

    @classmethod
    def create(cls, feature_dim: int, embed_dim: int = 128, hidden_dim: int = 256,
               seed: int = 0) -> "Encoder":
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, hidden_dim))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, embed_dim))
        return cls(w1, np.zeros(hidden_dim), w2, np.zeros(embed_dim), seed=seed)

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "Encoder":
        return Encoder(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
                       seed=self.seed)

    def forward(self, features: np.ndarray):
        """Returns (embeddings, cache) where cache holds the hidden activations."""
        x = np.asarray(features, dtype=np.float64)
        if x.shape[1] != self.feature_dim:
            raise DimMismatch(
                f"features have width {x.shape[1]}, encoder expects {self.feature_dim}"
            )
        h = np.tanh(x @ self.w1 + self.b1)
        e = h @ self.w2 + self.b2
        return e, h

    def backward(self, features: np.ndarray, hidden: np.ndarray,
                 grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. parameters, given dLoss/dE."""
        x = np.asarray(features, dtype=np.float64)
        dw2 = hidden.T @ grad_out
        db2 = grad_out.sum(axis=0)
        dh = grad_out @ self.w2.T
        dz = dh * (1.0 - hidden * hidden)
        dw1 = x.T @ dz
        db1 = dz.sum(axis=0)
        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}

    def encode(self, features: FrameFeatures) -> FrameEmbeddings:
        e, _ = self.forward(features.data)
        return FrameEmbeddings(video_id=features.video_id, data=e)


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers for Adam."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_encoder(cls, enc: Encoder) -> "AdamState":
        zeros = {k: np.zeros_like(p) for k, p in enc.params().items()}
        return cls(m=zeros, v={k: np.zeros_like(p) for k, p in enc.params().items()})


def adam_update(enc: Encoder, state: AdamState, grads: dict[str, np.ndarray],
                lr: float, weight_decay: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place Adam step; weight decay is added to the gradient (L2 style)."""
    state.step += 1
    t = state.step
    for name in PARAM_NAMES:
        theta = getattr(enc, name)
        g = grads[name] + weight_decay * theta
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / (1.0 - beta1 ** t)
        v_hat = state.v[name] / (1.0 - beta2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)


def save_encoder(enc: Encoder, path, hyper=None) -> None:
    """Checkpoint: flattened float32 parameter vector + JSON sidecar."""
    flat = np.concatenate([enc.params()[name].ravel() for name in PARAM_NAMES])
    write_rgwf(path, flat[None, :])
    sidecar = {
        "feature_dim": enc.feature_dim,
        "hidden_dim": enc.hidden_dim,
        "embed_dim": enc.embed_dim,
        "seed": enc.seed,
    }
    if hyper is not None:
        sidecar["hyperparams"] = {
            k: v for k, v in vars(hyper).items() if isinstance(v, (int, float, bool))
        }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_encoder(path) -> Encoder:
    flat = read_rgwf(path).astype(np.float64).ravel()
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.is_file():
        raise MalformedHeader(f"checkpoint sidecar missing: {sidecar_path}")
    try:
        meta = json.loads(sidecar_path.read_text())
        f, h, d = (int(meta[key]) for key in ("feature_dim", "hidden_dim", "embed_dim"))
        seed = int(meta.get("seed", 0))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise MalformedHeader(f"{sidecar_path}: bad checkpoint sidecar: {exc!r}") from None
    sizes = [f * h, h, h * d, d]
    if flat.size != sum(sizes):
        raise MalformedHeader(
            f"checkpoint holds {flat.size} parameters, sidecar promises {sum(sizes)}"
        )
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    return Encoder(
        chunks[0].reshape(f, h), chunks[1], chunks[2].reshape(h, d), chunks[3],
        seed=seed,
    )
