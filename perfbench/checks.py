"""Output checks of the benchmark, written without the package's own code.

The scorer re-implements the README's metric (one Hungarian matching of
predicted ids to ground-truth steps over the whole task, background frames
excluded, macro average over the steps present) so that a defect in
`rgwot.evaluation` cannot hide a drop in label quality.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

RGWF_MAGIC = b"RGWF"


def read_labels(path: Path) -> np.ndarray:
    return np.array([int(line) for line in path.read_text().split()], dtype=np.int64)


def macro_scores(pred: list[np.ndarray], truth: list[np.ndarray], k: int) -> tuple[float, float]:
    """(macro F1, macro IoU) of predicted ids 0..k-1 against ground truth."""
    p = np.concatenate(pred)
    g = np.concatenate(truth)
    keep = g != -1
    p, g = p[keep], g[keep]
    steps = np.unique(g)
    overlap = np.zeros((k, max(k, int(steps.max()) + 1)))
    valid = (p >= 0) & (p < k)
    np.add.at(overlap, (p[valid], g[valid]), 1.0)
    rows, cols = linear_sum_assignment(-overlap)
    mapped = np.full(p.shape, -1)
    for pred_id, step in zip(rows, cols):
        mapped[p == pred_id] = step
    f1s, ious = [], []
    for step in steps:
        tp = np.count_nonzero((mapped == step) & (g == step))
        fp = np.count_nonzero((mapped == step) & (g != step))
        fn = np.count_nonzero((mapped != step) & (g == step))
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
        ious.append(tp / (tp + fp + fn) if tp else 0.0)
    return float(np.mean(f1s)), float(np.mean(ious))


def check_training(out: Path, expected_steps: int) -> list[str]:
    """Problems with a `train` output directory; empty when it is sound."""
    problems = []
    ckpt = out / "encoder.rgwf"
    if not ckpt.is_file() or ckpt.read_bytes()[:4] != RGWF_MAGIC:
        problems.append("encoder.rgwf missing or not an RGWF file")
    curve = out / "loss_curve.csv"
    if not curve.is_file():
        return problems + ["loss_curve.csv missing"]
    rows = [line.split(",") for line in curve.read_text().splitlines()
            if line and not line.startswith(("#", "step"))]
    if len(rows) != expected_steps:
        problems.append(f"loss_curve.csv has {len(rows)} steps, expected {expected_steps}")
    if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
        problems.append("loss_curve.csv has non-finite losses")
    return problems


def check_labels(out: Path, video_ids: list[str], frames: dict[str, int], k: int) -> list[str]:
    """Problems with the label files and order report of a `segment` run."""
    problems = []
    for vid in video_ids:
        path = out / f"{vid}.labels.txt"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        labels = read_labels(path)
        if labels.size != frames[vid]:
            problems.append(f"{path.name}: {labels.size} labels for {frames[vid]} frames")
        elif labels.size and (labels.min() < -1 or labels.max() >= k):
            problems.append(f"{path.name}: label outside [-1, {k - 1}]")
    if not (out / "order_report.txt").is_file():
        problems.append("order_report.txt missing")
    return problems


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """The artifacts the README promises are byte-identical across reruns."""
    names = ["encoder.rgwf", "loss_curve.csv", "order_report.txt"]
    found = {n: (out / n).read_bytes() for n in names if (out / n).is_file()}
    found.update({p.name: p.read_bytes() for p in sorted(out.glob("*.labels.txt"))})
    return found


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
