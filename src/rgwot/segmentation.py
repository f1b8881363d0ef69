"""Key-step discovery: clustering, per-video Potts smoothing, ordering.

Frames of all videos are clustered jointly (k-means++ seeding, Lloyd
refinement). Each video is then labeled by the exact minimum of a chain
energy whose unary cost is the squared distance to the cluster centers and
whose pairwise cost is a Potts penalty on consecutive frames; a Viterbi DP
with the Potts min trick finds it in O(N*K). Key-step order within a video
is the ascending mean normalized frame time of each label; the task-level
order ranks per-video orders by frequency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data_model import BACKGROUND, FrameFeatures, Hyperparams, LabelSequence
from .encoder import Encoder
from .errors import ConfigError, DegenerateData, EmptyVideo
from .priors import background_mask, build_cost_bundle
from .solver import solve_fgwot


def init_centers(points: np.ndarray, k: int, rng: np.random.Generator,
                 lloyd_iters: int = 100, restarts: int = 10) -> np.ndarray:
    """Best of `restarts` k-means runs (k-means++ seeding, Lloyd refinement).

    Restarts matter here: a lone run can park a center on diffuse outlier
    mass and merge two real clusters, which a better-SSE run avoids.
    """
    pts = np.asarray(points, dtype=np.float64)
    if np.unique(pts, axis=0).shape[0] < k:
        raise DegenerateData(f"need at least {k} distinct points")
    best_centers = None
    best_sse = np.inf
    for _ in range(max(1, restarts)):
        centers = _one_kmeans_run(pts, k, rng, lloyd_iters)
        assign = _nearest(pts, centers)
        sse = float(np.sum((pts - centers[assign]) ** 2))
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


def _one_kmeans_run(pts: np.ndarray, k: int, rng: np.random.Generator,
                    lloyd_iters: int) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass sits on chosen centers; pick any unseen point
            centers[c] = pts[rng.integers(n)]
        else:
            centers[c] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[c]) ** 2, axis=1))
    assign = _nearest(pts, centers)
    for _ in range(lloyd_iters):
        new_centers = centers.copy()
        for c in range(k):
            members = pts[assign == c]
            if members.shape[0]:
                new_centers[c] = members.mean(axis=0)
            else:
                # revive an empty cluster at the point that fits worst
                worst = np.argmax(np.sum((pts - new_centers[assign]) ** 2, axis=1))
                new_centers[c] = pts[worst]
        new_assign = _nearest(pts, new_centers)
        moved = not np.array_equal(new_assign, assign)
        centers, assign = new_centers, new_assign
        if not moved:
            break
    return centers


def _nearest(pts, centers):
    d2 = np.sum(pts * pts, axis=1)[:, None] - 2.0 * pts @ centers.T \
        + np.sum(centers * centers, axis=1)[None, :]
    return np.argmin(d2, axis=1)


@dataclass(frozen=True)
class GraphCutProblem:
    """Chain MRF: unary (N, K) costs plus a Potts weight on consecutive frames."""

    unary: np.ndarray
    pairwise_weight: float

    def __post_init__(self):
        _check_potts_weight(self.pairwise_weight)

    @property
    def n(self) -> int:
        return self.unary.shape[0]

    @property
    def k(self) -> int:
        return self.unary.shape[1]


def _check_potts_weight(beta: float) -> None:
    # the min trick below is exact only for a finite, non-negative weight
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ConfigError(f"Potts weight must be finite and >= 0, got {beta}")


def labeling_energy(problem: GraphCutProblem, labels: np.ndarray) -> float:
    e = float(problem.unary[np.arange(problem.n), labels].sum())
    e += problem.pairwise_weight * float(np.count_nonzero(labels[:-1] != labels[1:]))
    return e


def alpha_expansion(problem: GraphCutProblem):
    """Exact minimum of the chain Potts energy by a forward DP and a backtrack.

    The name predates the DP and is kept for callers. Each step costs O(K):
    cost[i, l] = unary[i, l] + min(cost[i-1, l], min(cost[i-1]) + beta), and
    a frame keeps its label when staying costs no more than switching.

    Returns (labels, energy_trace). The trace starts at the energy of the
    unary argmin labeling; the DP labeling is appended and returned only when
    it is lower by more than 1e-12, so the argmin labeling is kept on ties.
    """
    unary = problem.unary
    beta = problem.pairwise_weight
    labels = np.argmin(unary, axis=1)
    trace = [labeling_energy(problem, labels)]
    if problem.n < 2:
        return labels, trace
    back = np.empty(unary.shape, dtype=np.int64)
    cost = unary[0].astype(np.float64)
    for i in range(1, problem.n):
        best = int(np.argmin(cost))
        switch = cost[best] + beta
        stay = cost <= switch
        back[i] = np.where(stay, np.arange(problem.k), best)
        cost = unary[i] + np.minimum(cost, switch)
    path = np.empty(problem.n, dtype=np.int64)
    path[-1] = np.argmin(cost)
    for i in range(problem.n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    energy = labeling_energy(problem, path)
    if energy < trace[0] - 1e-12:
        labels = path
        trace.append(energy)
    return labels, trace


def keystep_order(labels: np.ndarray) -> list[int]:
    """Key steps sorted by mean normalized (1-based) frame time; ties by id."""
    arr = np.asarray(labels)
    n = arr.size
    present = sorted(set(int(v) for v in arr if v != BACKGROUND))
    if not present:
        raise EmptyVideo("no non-background frames")
    means = []
    for step in present:
        where = np.flatnonzero(arr == step) + 1
        means.append((float(where.mean()) / n, step))
    means.sort()
    return [step for _, step in means]


def rank_orders(orders: list[list[int]]) -> list[tuple[tuple[int, ...], int]]:
    """Distinct per-video orders ranked by frequency, ties lexicographic."""
    counts = Counter(tuple(o) for o in orders)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class SegmentationResult:
    labels: tuple[LabelSequence, ...]
    orders: tuple[tuple[int, ...], ...]  # aligned with labels; empty if fully masked
    task_order: tuple[tuple[tuple[int, ...], int], ...]
    energy_traces: tuple[tuple[float, ...], ...]
    centers: np.ndarray


def compute_segment_masks(embeddings: list[np.ndarray], hyper: Hyperparams,
                          on_coupling=None) -> list[np.ndarray]:
    """Background masks from solves of each video against the next (cyclic).

    on_coupling, when given, receives each solved coupling.
    """
    v = len(embeddings)
    masks: list[np.ndarray] = []
    for i in range(v):
        bundle = build_cost_bundle(embeddings[i], embeddings[(i + 1) % v], hyper)
        coupling = solve_fgwot(bundle, hyper)
        if on_coupling is not None:
            on_coupling(coupling)
        mask_x, _ = background_mask(coupling, hyper.zeta)
        masks.append(mask_x)
    return masks


def segment_task(videos: list[FrameFeatures], enc: Encoder, k: int,
                 beta: float, hyper: Hyperparams, rng: np.random.Generator,
                 use_masks: bool = True, on_coupling=None) -> SegmentationResult:
    """Full segmentation of one task with a trained encoder.

    With use_masks, background frames are detected by pairwise alignment
    first, excluded from clustering, and forced to label BACKGROUND.
    on_coupling, when given, receives the coupling of each of those solves.
    """
    _check_potts_weight(beta)  # before the alignment solves, not after
    embeddings = [enc.forward(v.data)[0] for v in videos]
    if use_masks and hyper.use_virtual and hyper.zeta > 0 and len(videos) >= 2:
        masks = compute_segment_masks(embeddings, hyper, on_coupling)
    else:
        masks = [np.zeros(e.shape[0], dtype=bool) for e in embeddings]
    pool = np.concatenate([e[~m] for e, m in zip(embeddings, masks)], axis=0)
    if pool.shape[0] < k:
        raise DegenerateData("all frames masked as background")
    centers = init_centers(pool, k, rng)

    label_seqs = []
    orders = []
    traces = []
    for video, e, mask in zip(videos, embeddings, masks):
        unary = np.sum((e[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels, trace = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=beta))
        labels = labels.astype(np.int64)
        labels[mask] = BACKGROUND
        label_seqs.append(LabelSequence(video_id=video.video_id, labels=labels))
        if np.any(labels != BACKGROUND):
            orders.append(tuple(keystep_order(labels)))
        else:
            orders.append(tuple())
        traces.append(tuple(trace))
    ranked = rank_orders([list(o) for o in orders if o])
    return SegmentationResult(
        labels=tuple(label_seqs),
        orders=tuple(orders),
        task_order=tuple(ranked),
        energy_traces=tuple(traces),
        centers=centers,
    )
