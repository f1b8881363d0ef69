"""Regularized Gromov-Wasserstein alignment for procedure learning.

The package turns per-frame feature matrices of instructional videos into
key-step labels. The pieces, roughly in pipeline order:

- :mod:`rgwot.data_model`: file formats (RGWF tensors, label files, task
  manifests) and the shared :class:`Hyperparams` record.
- :mod:`rgwot.priors`: cost matrices, structural bands, the virtual frame
  and the background mask, which flags the row video's frames of a coupling.
- :mod:`rgwot.solver`: the entropic fused transport solver.
- :mod:`rgwot.losses` / :mod:`rgwot.encoder` / :mod:`rgwot.training`:
  the contrastive objective and the two-layer encoder trained with it.
- :mod:`rgwot.segmentation`: clustering plus exact chain Potts smoothing
  into key-step labels, and step orderings per video.
- :mod:`rgwot.evaluation`: Hungarian-matched precision/recall/F1/IoU per
  key step and their macro mean over the task.
- :mod:`rgwot.synth`: synthetic task generator used by tests and the CLI.
"""

from .data_model import (
    FrameEmbeddings,
    FrameFeatures,
    Hyperparams,
    LabelSequence,
    TaskManifest,
    VideoEntry,
    load_features,
    load_labels,
    load_manifest,
    load_task,
    read_rgwf,
    save_features,
    save_labels,
    save_manifest,
    write_rgwf,
)
from .encoder import Encoder, load_encoder, save_encoder
from .errors import RgwotError
from .evaluation import MetricsReport, evaluate, hungarian
from .kernels import active_backend
from .losses import total_loss
from .priors import background_mask, build_cost_bundle
from .segmentation import SegmentationResult, alpha_expansion, segment_task
from .solver import Coupling, fgwot_objective, sinkhorn, solve_fgwot
from .synth import SynthTask, generate, profiles
from .training import train

__version__ = "0.1.0"

__all__ = [
    "Coupling",
    "Encoder",
    "FrameEmbeddings",
    "FrameFeatures",
    "Hyperparams",
    "LabelSequence",
    "MetricsReport",
    "RgwotError",
    "SegmentationResult",
    "SynthTask",
    "TaskManifest",
    "VideoEntry",
    "active_backend",
    "alpha_expansion",
    "background_mask",
    "build_cost_bundle",
    "evaluate",
    "fgwot_objective",
    "generate",
    "hungarian",
    "load_encoder",
    "load_features",
    "load_labels",
    "load_manifest",
    "load_task",
    "profiles",
    "read_rgwf",
    "save_encoder",
    "save_features",
    "save_labels",
    "save_manifest",
    "segment_task",
    "sinkhorn",
    "solve_fgwot",
    "total_loss",
    "train",
    "write_rgwf",
    "__version__",
]
