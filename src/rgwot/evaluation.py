"""Scoring predicted key-step labels against ground truth.

Predicted cluster ids carry no meaning on their own, so a single Hungarian
matching over the whole task (concatenated videos, cost = negative frame
overlap) maps predictions onto ground-truth steps before counting. With
fewer clusters than steps, the steps left unmatched score 0. Frames whose
ground truth is background (-1) are excluded from every count; predicted
background on a real frame still costs a false negative. Scores are kept
per key step and as their macro mean over the task, not per video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import BACKGROUND, LabelSequence
from .errors import ConfigError, LengthMismatch, NonFiniteValue, ShapeMismatch


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost matching of a finite 2-D cost matrix, as sorted (row, column) pairs.

    Every row is matched when rows <= columns, every column when rows >
    columns; an empty matrix gives no pairs. The pairs are those of
    ``scipy.optimize.linear_sum_assignment``, ties included.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ShapeMismatch(f"matching needs a 2-D cost matrix, got {c.shape}")
    if not np.isfinite(c).all():
        raise NonFiniteValue("matching needs a finite cost matrix")
    if c.shape[0] > c.shape[1]:
        return sorted((i, j) for j, i in _shortest_augmenting_paths(c.T))
    return _shortest_augmenting_paths(c)


def _shortest_augmenting_paths(cost: np.ndarray) -> list[tuple[int, int]]:
    """Rows <= columns: the shortest augmenting path method with dual updates
    (Jonker and Volgenant 1987, in the form of Crouse 2016), step for step as
    scipy's rectangular_lsap.cpp, so that equal reduced costs break the same way."""
    nr, nc = cost.shape
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        remaining = list(range(nc - 1, -1, -1))  # reversed: a constant cost gives the identity
        spc = [math.inf] * nc  # shortest path cost to each column
        in_sr, in_sc = [False] * nr, [False] * nc
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            in_sr[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                # among equal costs, a free column ends the path sooner
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if in_sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if in_sc[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return list(enumerate(col4row))


@dataclass(frozen=True)
class StepMetrics:
    precision: float
    recall: float
    f1: float
    iou: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class MetricsReport:
    matching: tuple[tuple[int, int], ...]  # (pred id, gt id)
    per_step: dict[int, StepMetrics]  # keyed by gt step id, gt-present steps only
    macro: StepMetrics  # rates only: its tp/fp/fn stay 0


def _counts_to_metrics(tp: int, fp: int, fn: int) -> StepMetrics:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    iou = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return StepMetrics(precision, recall, f1, iou, tp, fp, fn)


def _macro(per_step: dict[int, StepMetrics]) -> StepMetrics:
    if not per_step:
        return StepMetrics(0.0, 0.0, 0.0, 0.0)
    vals = list(per_step.values())
    return StepMetrics(
        precision=float(np.mean([v.precision for v in vals])),
        recall=float(np.mean([v.recall for v in vals])),
        f1=float(np.mean([v.f1 for v in vals])),
        iou=float(np.mean([v.iou for v in vals])),
    )


def _step_metrics(pred, gt, steps) -> dict[int, StepMetrics]:
    out = {}
    for step in steps:
        tp = int(np.count_nonzero((pred == step) & (gt == step)))
        fp = int(np.count_nonzero((pred == step) & (gt != step)))
        fn = int(np.count_nonzero((pred != step) & (gt == step)))
        out[step] = _counts_to_metrics(tp, fp, fn)
    return out


def evaluate(predictions: list[LabelSequence], ground_truth: list[LabelSequence],
             k: int) -> MetricsReport:
    """Hungarian-matched precision/recall/F1/IoU, macro over gt-present steps."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    gt_by_id = {seq.video_id: seq for seq in ground_truth}
    pred_parts = []
    gt_parts = []
    for pred in predictions:
        if pred.video_id not in gt_by_id:
            raise LengthMismatch(f"no ground truth for video {pred.video_id!r}")
        gt = gt_by_id[pred.video_id]
        if pred.labels.size != gt.labels.size:
            raise LengthMismatch(
                f"{pred.video_id}: {pred.labels.size} predictions vs {gt.labels.size} labels"
            )
        keep = gt.labels != BACKGROUND
        pred_parts.append(pred.labels[keep])
        gt_parts.append(gt.labels[keep])
    pred_all = np.concatenate(pred_parts) if pred_parts else np.empty(0, dtype=np.int64)
    gt_all = np.concatenate(gt_parts) if gt_parts else np.empty(0, dtype=np.int64)

    steps = int(gt_all.max()) + 1 if gt_all.size else 0
    overlap = np.zeros((k, max(k, steps)))
    valid = (pred_all != BACKGROUND) & (pred_all < k)
    np.add.at(overlap, (pred_all[valid], gt_all[valid]), 1.0)
    # every cluster gets a step; with fewer clusters than steps the rest stay unmatched
    matching = hungarian(-overlap)

    mapped = np.full(pred_all.shape, BACKGROUND, dtype=np.int64)
    for pred_id, gt_id in matching:
        mapped[pred_all == pred_id] = gt_id

    present = sorted(int(s) for s in np.unique(gt_all))
    per_step = _step_metrics(mapped, gt_all, present)
    return MetricsReport(matching=tuple(matching), per_step=per_step, macro=_macro(per_step))


def write_metrics_csv(report: MetricsReport, path, task_name: str,
                      header_comment: str) -> None:
    """A comment line, then one row per key step plus a macro row."""
    with open(path, "w") as fh:
        fh.write(f"# {header_comment}\n")
        fh.write("task,keystep,precision,recall,f1,iou\n")
        for step, m in sorted(report.per_step.items()):
            fh.write(f"{task_name},{step},{m.precision:.6f},{m.recall:.6f},"
                     f"{m.f1:.6f},{m.iou:.6f}\n")
        m = report.macro
        fh.write(f"{task_name},macro,{m.precision:.6f},{m.recall:.6f},"
                 f"{m.f1:.6f},{m.iou:.6f}\n")
