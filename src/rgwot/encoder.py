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

from .data_model import FrameEmbeddings, FrameFeatures, Hyperparams, read_rgwf, write_rgwf
from .errors import DimMismatch, MalformedHeader

PARAM_NAMES = ("w1", "b1", "w2", "b2")
# Adam's moment decay rates and the epsilon of its denominator
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Encoder:
    def __init__(self, w1, b1, w2, b2, seed: int = 0):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.seed = seed

    @classmethod
    def create(cls, feature_dim: int, embed_dim: int, hidden_dim: int,
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

    def forward(self, features: np.ndarray, out: np.ndarray | None = None):
        """Returns (embeddings, cache) where cache holds the hidden activations.

        The embeddings are written into out, an (n, embed_dim) float64 array
        (a row view included), when it is given. The biases and the tanh are
        applied in place in the buffers of the two products.
        """
        x = np.asarray(features, dtype=np.float64)
        if x.shape[1] != self.feature_dim:
            raise DimMismatch(
                f"features have width {x.shape[1]}, encoder expects {self.feature_dim}"
            )
        h = x @ self.w1
        h += self.b1
        np.tanh(h, out=h)
        e = np.matmul(h, self.w2, out=out)
        e += self.b2
        return e, h

    def backward(self, features: np.ndarray, hidden: np.ndarray,
                 grad_out: np.ndarray,
                 out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. parameters, given dLoss/dE.

        They are written into out, a dict of float64 arrays shaped like the
        parameters, when it is given, and out is returned; without it each
        gradient is a new array.
        """
        x = np.asarray(features, dtype=np.float64)
        if out is None:
            out = {name: np.empty_like(p) for name, p in self.params().items()}
        np.matmul(hidden.T, grad_out, out=out["w2"])
        np.sum(grad_out, axis=0, out=out["b2"])
        dz = grad_out @ self.w2.T
        dz *= 1.0 - hidden * hidden
        np.matmul(x.T, dz, out=out["w1"])
        np.sum(dz, axis=0, out=out["b1"])
        return out

    def encode(self, features: FrameFeatures) -> FrameEmbeddings:
        e, _ = self.forward(features.data)
        return FrameEmbeddings(video_id=features.video_id, data=e)


@dataclass
class AdamState:
    """Adam's buffers for one encoder, all made by for_encoder: the moments of
    each parameter, two scratch buffers per parameter for adam_update's
    temporaries, and the gradient dict a training step fills."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]
    grads: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_encoder(cls, enc: Encoder) -> "AdamState":
        params = enc.params().items()
        return cls(m={k: np.zeros_like(p) for k, p in params},
                   v={k: np.zeros_like(p) for k, p in params},
                   scratch={k: (np.empty_like(p), np.empty_like(p)) for k, p in params},
                   grads={k: np.empty_like(p) for k, p in params})


def adam_update(enc: Encoder, state: AdamState, grads: dict[str, np.ndarray],
                lr: float, weight_decay: float) -> None:
    """In-place Adam step; weight decay is added to the gradient (L2 style).

    The parameters and both moment buffers are updated in place, in Kingma
    and Ba's efficient order (Adam, 2015, section 2): with c = sqrt(1 -
    beta2^t), theta -= (lr * c / (1 - beta1^t)) * (m / (sqrt(v) + eps * c)),
    in that order. Up to rounding this is the textbook lr * m_hat /
    (sqrt(v_hat) + eps), with one division per element instead of three. Every
    temporary is computed in the state's two scratch buffers of the parameter.
    """
    state.step += 1
    t = state.step
    c = np.sqrt(1.0 - _BETA2 ** t)
    alpha = lr * c / (1.0 - _BETA1 ** t)
    eps = _EPS * c
    for name in PARAM_NAMES:
        theta = getattr(enc, name)
        m, v = state.m[name], state.v[name]
        g, step = state.scratch[name]
        np.multiply(theta, weight_decay, out=g)
        g += grads[name]
        m *= _BETA1
        m += np.multiply(g, 1.0 - _BETA1, out=step)
        g *= g
        v *= _BETA2
        v += np.multiply(g, 1.0 - _BETA2, out=step)
        denom = np.sqrt(v, out=g)
        denom += eps
        np.divide(m, denom, out=step)
        step *= alpha
        theta -= step


def save_encoder(enc: Encoder, path, hyper: Hyperparams) -> None:
    """Checkpoint: flattened float32 parameter vector + JSON sidecar."""
    flat = np.concatenate([enc.params()[name].ravel() for name in PARAM_NAMES])
    write_rgwf(path, flat[None, :])
    sidecar = {
        "feature_dim": enc.feature_dim,
        "hidden_dim": enc.hidden_dim,
        "embed_dim": enc.embed_dim,
        "seed": enc.seed,
        "hyperparams": vars(hyper),
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
    if min(f, h, d) < 1:
        raise MalformedHeader(f"{sidecar_path}: dimensions {(f, h, d)} must be at least 1")
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
