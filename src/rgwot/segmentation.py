"""Key-step discovery: clustering, per-video Potts smoothing, ordering.

Frames of all videos are clustered jointly: the best of several k-means
runs, whose greedy k-means++ seedings are drawn first and whose Lloyd rounds
then run in lockstep, with one distance product per round for all the runs
still moving and each run's cluster sums updated by the points that changed
cluster. Each video is then labeled by the exact minimum of a chain
energy whose unary cost is the squared distance to the cluster centers and
whose pairwise cost is a Potts penalty on consecutive frames; a Viterbi DP
with the Potts min trick finds it in O(N*K), over Python floats, since at a
few labels per frame a numpy call costs more than the arithmetic it does.
Background is found in the embedding, with no alignment solve: frames far
from every center of a first clustering of the whole pool are outliers by
the median/MAD rule (Leys et al. 2013), and the centers are then taken
again from the remaining frames, as k-means-- does (Chawla and Gionis
2013). Those frames are labelled BACKGROUND after smoothing. The trim and
the unaries read the squared distances of k-means' own arithmetic, one
product of the centers with the whole pool per clustering.
Key-step order within a video is the ascending mean normalized frame time
of each label; the task-level order ranks per-video orders by frequency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data_model import BACKGROUND, FrameFeatures, Hyperparams, LabelSequence
from .encoder import Encoder
from .errors import ConfigError, DegenerateData, EmptyVideo


# k-means runs per init_centers call, and the cap on Lloyd rounds per run;
# a run stops earlier once its assignment repeats
_RESTARTS = 5
_LLOYD_ITERS = 100
# a frame is background when its squared distance to the nearest center
# lies more than _TRIM robust standard deviations (1.4826 * MAD) above the
# median of those distances
_TRIM = 6.0
# the most rows per block of _row_sq_norms, which makes no N x d temporary
_BLOCK = 1024


def init_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Best of _RESTARTS k-means runs (greedy k-means++ seeding, Lloyd refinement).

    Restarts matter here: a lone run can park a center on diffuse outlier
    mass and merge two real clusters, which a better-SSE run avoids. The
    greedy seeding (_kmeans_pp) makes that rarer, so fewer restarts reach
    the best SSE.

    Every run's seeding is drawn first, in run order; Lloyd draws nothing
    from rng. The Lloyd rounds of all runs then go in lockstep: each round
    takes every still-moving run's cluster means (_lloyd_means) and assigns
    the points to the centers of all those runs with one matrix product. A
    run keeps its cluster sums and counts and the assignment they were
    summed from, and updates them by the points that changed cluster
    (_cluster_sums). A run stops when its assignment repeats, or after
    _LLOYD_ITERS rounds. Its centers are then averaged again from one
    product over the assignment they came from, so no drift of the running
    sums reaches them, and its SSE is the sum of the squared distances to
    those centers, from a product over its own centers. The lowest SSE
    wins, the earliest run on ties.

    points is only read, and no N x d temporary is made: the squared norms
    are summed in blocks of at most _BLOCK rows (_row_sq_norms), and each
    distance product has a row per center and a column per point.
    """
    pts = np.asarray(points, dtype=np.float64)
    # k distinct values in one column already make k distinct points; only
    # otherwise are the whole rows sorted to count them
    if np.unique(pts[:, 0]).size < k:
        distinct = np.unique(pts, axis=0).shape[0]
        if distinct < k:
            raise DegenerateData(f"need at least {k} distinct points, got {distinct}")
    sq = _row_sq_norms(pts)
    centers = [_kmeans_pp(pts, sq, k, rng) for _ in range(_RESTARTS)]
    assign = _nearest(pts, sq, centers)[0]
    # per run: the assignment its centers were averaged from, and the
    # cluster sums and counts of that assignment
    summed = [None] * len(centers)
    sums = [None] * len(centers)
    counts = [None] * len(centers)
    moving = list(range(len(centers)))
    for _ in range(_LLOYD_ITERS):
        if not moving:
            break
        for r in moving:
            sums[r], counts[r] = _cluster_sums(pts, assign[r], k, summed[r], sums[r])
            centers[r] = _lloyd_means(pts, centers[r], assign[r], sums[r], counts[r])
            summed[r] = assign[r]
        new_assign = _nearest(pts, sq, [centers[r] for r in moving])[0]
        still = []
        for r, a in zip(moving, new_assign):
            if not np.array_equal(a, assign[r]):
                still.append(r)
            assign[r] = a
        moving = still
    for r in range(len(centers)):
        # a run that revived a cluster in its last round took fresh sums then
        if counts[r].all():
            centers[r] = _cluster_sums(pts, summed[r], k)[0] / counts[r][:, None]
    best_centers = None
    best_sse = np.inf
    for c in centers:
        # from the run's own product: a row of a product stacked over all the
        # runs can round differently in its last bit, and runs that stop at
        # one clustering with their centers in another order must tie
        sse = float(_nearest(pts, sq, [c])[1][0].sum())
        if sse < best_sse:
            best_centers, best_sse = c, sse
    return best_centers


def _row_sq_norms(pts: np.ndarray, centers: np.ndarray | None = None,
                  assign: np.ndarray | None = None) -> np.ndarray:
    """np.sum(x * x, axis=1) of x = pts, or of x = pts - centers[assign].

    Taken in blocks of at most _BLOCK rows. Each row's sum reads that row
    alone, so the blocks give the bits of the whole-array expression without
    its N x d temporaries. The blocks are of near-equal size, so none is a
    lone row unless pts is one: numpy sums a lone row of a column-major
    array in another order than it sums the rows of the whole array.
    """
    n = pts.shape[0]
    sq = np.empty(n)
    blocks = -(-n // _BLOCK)
    for b in range(blocks):
        rows = slice(b * n // blocks, (b + 1) * n // blocks)
        x = pts[rows] if centers is None else pts[rows] - centers[assign[rows]]
        sq[rows] = np.sum(x * x, axis=1)
    return sq


def _kmeans_pp(pts: np.ndarray, sq: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding (Arthur and Vassilvitskii 2007).

    The first center is a uniform draw. Each later one draws 2 + floor(ln k)
    candidates from the D^2 weights, the squared distances to the nearest
    center chosen so far, and keeps the candidate that leaves the lowest
    potential, the sum of those distances once it is added; the first
    candidate wins ties.
    """
    n = pts.shape[0]
    trials = 2 + int(math.log(k))
    centers = np.empty((k, pts.shape[1]))
    first = rng.integers(n)
    centers[0] = pts[first]
    if k == 1:
        return centers
    d2 = _clipped_sq_distances(pts, sq, pts[first:first + 1])[0]
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # init_centers checked for k distinct points, so this is reached
            # only when the squared distances underflow; draw any point
            centers[c] = pts[rng.integers(n)]
            continue
        ids = rng.choice(n, size=trials, p=d2 / total)
        dist = np.minimum(_clipped_sq_distances(pts, sq, pts[ids]), d2)
        best = int(np.argmin(dist.sum(axis=1)))
        centers[c] = pts[ids[best]]
        d2 = dist[best]
    return centers


def _sq_distances(pts: np.ndarray, sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|p|^2 - 2 c.p + |c|^2 for every point p and row c, (len(rows), n), unclipped.

    Left to right in the buffer of one product; sq holds the squared norms of pts.
    """
    d2 = rows @ pts.T
    np.multiply(d2, 2.0, out=d2)
    np.subtract(sq[None, :], d2, out=d2)
    d2 += np.sum(rows * rows, axis=1)[:, None]
    return d2


def _clipped_sq_distances(pts: np.ndarray, sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_sq_distances clipped at 0, which rounding crosses near a row c.

    The seeding's D^2 weights (rng.choice needs weights >= 0), and in
    segment_task the trim's distances and the Potts unaries.
    """
    d2 = _sq_distances(pts, sq, rows)
    return np.maximum(d2, 0.0, out=d2)


def _cluster_sums(pts: np.ndarray, assign: np.ndarray, k: int,
                  summed: np.ndarray | None = None,
                  sums: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the points in each cluster of assign, and the clusters' sizes.

    Given the cluster sums of an earlier assignment summed, only the points
    whose cluster changed since are added to their new cluster and taken
    from their old one, in one product over those points. Without them, or
    when a cluster of assign is empty, the sums come from one product of
    assign's one-hot matrix, so that a revival reads fresh sums. The
    products are taken per run: one stacked over all the runs rounds
    differently, and the lockstep runs must match lone ones.
    """
    counts = np.bincount(assign, minlength=k)
    if summed is None or not counts.all():
        onehot = (assign == np.arange(k)[:, None]).astype(np.float64)
        return onehot @ pts, counts
    moved = np.flatnonzero(assign != summed)
    cols = np.arange(moved.size)
    step = np.zeros((k, moved.size))
    step[assign[moved], cols] = 1.0
    step[summed[moved], cols] = -1.0
    return sums + step @ pts[moved], counts


def _lloyd_means(pts: np.ndarray, centers: np.ndarray, assign: np.ndarray,
                 sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Cluster means of assign from its cluster sums and counts.

    An empty cluster is revived at the point that fits worst; the clusters
    are then taken in order, since a revival reads the centers updated
    before it.
    """
    if counts.all():
        return sums / counts[:, None]
    new_centers = centers.copy()
    for c in range(centers.shape[0]):
        if counts[c]:
            new_centers[c] = sums[c] / counts[c]
        else:
            worst = np.argmax(_row_sq_norms(pts, new_centers, assign))
            new_centers[c] = pts[worst]
    return new_centers


def _nearest(pts, sq, centers):
    """Nearest-center index and its squared distance, clipped at 0, of every
    point, for each center set in centers.

    sq holds the squared norms of pts. One product covers all the sets. A
    row of it can differ from the same row of a product for its set alone in
    the last bit, depending on where it sits in the stack; that moves no
    point unless two of a set's centers are equally near it, so each set's
    nearest centers are the ones a lone run takes, which
    tests/test_segmentation.py checks against the sequential runs.
    """
    k = centers[0].shape[0]
    # center-major rows: row c * len(centers) + r is center c of set r, so
    # that each center's distances to all sets are one contiguous block
    stacked = np.stack(centers, axis=1).reshape(-1, pts.shape[1])
    d2 = _sq_distances(pts, sq, stacked).reshape(k, len(centers), pts.shape[0])
    # running minimum over the centers; strict < keeps the first on ties,
    # as argmin does; clipping before it would tie centers that round below 0
    best = np.zeros(d2.shape[1:], dtype=np.intp)
    low = d2[0].copy()
    closer = np.empty(low.shape, dtype=bool)
    for c in range(1, k):
        np.less(d2[c], low, out=closer)
        np.copyto(best, c, where=closer)
        np.minimum(low, d2[c], out=low)
    np.maximum(low, 0.0, out=low)
    return list(best), list(low)


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
    a frame keeps its label when staying costs no more than switching; ties
    go to the first label. The DP runs over Python floats, which add and
    compare as float64 does.

    Returns (labels, energy_trace); the trace has one entry, the energy of
    the returned labeling.
    """
    rows = np.asarray(problem.unary, dtype=np.float64).tolist()
    beta = float(problem.pairwise_weight)
    back = []  # back[i - 1][l]: the label of frame i - 1 on the best path to l at i
    cost = rows[0]
    for row in rows[1:]:
        low = min(cost)
        best = cost.index(low)
        switch = low + beta
        back.append([j if c <= switch else best for j, c in enumerate(cost)])
        cost = [u + (c if c <= switch else switch) for u, c in zip(row, cost)]
    label = cost.index(min(cost))
    path = [label]
    for step in reversed(back):
        label = step[label]
        path.append(label)
    labels = np.array(path[::-1], dtype=np.int64)
    return labels, [labeling_energy(problem, labels)]


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
    orders: tuple[tuple[int, ...], ...]  # aligned with labels; empty if all background
    task_order: tuple[tuple[tuple[int, ...], int], ...]
    # per video: frames whose smoothed label is not their unary argmin,
    # counted before the flagged frames are set to BACKGROUND
    relabelled: tuple[int, ...]
    # frames the trim flagged as background; None when the trim did not run
    flagged: int | None
    centers: np.ndarray


def _far_frames(nearest: np.ndarray) -> np.ndarray:
    """Mask of the frames whose squared distance to the nearest center, given
    in nearest, is an outlier.

    The cut is median + _TRIM * 1.4826 * MAD of those distances. It lies at
    or above the median, so at most half of the frames are flagged, also
    when the MAD is 0.
    """
    median = np.median(nearest)
    return nearest > median + _TRIM * 1.4826 * np.median(np.abs(nearest - median))


def segment_task(videos: list[FrameFeatures], enc: Encoder, k: int,
                 beta: float, hyper: Hyperparams, rng: np.random.Generator,
                 use_masks: bool = True) -> SegmentationResult:
    """Full segmentation of one task with a trained encoder.

    Every frame of the task is clustered at k. With use_masks and
    hyper.zeta > 0, the frames far from every center (_far_frames) are
    background: when there are any, the centers are taken again from the
    other frames, and after smoothing the far frames are labelled
    BACKGROUND; the result's flagged counts them, and is None without the
    trim. Either way no alignment is solved.

    The videos are encoded into one (total frames, embed_dim) float64
    buffer. k-means clusters that buffer itself, and a copy of its
    unflagged rows when a frame is flagged; these are the only N x embed_dim
    arrays made. Each clustering gives one (k, total frames) matrix of
    squared distances from one product (_clipped_sq_distances): the trim
    reads its column minima, and each video's Potts unary is its columns,
    transposed. When the trim flags nothing, the first clustering's matrix
    is the unary.
    """
    _check_potts_weight(beta)  # before the clustering, not after
    frames = np.empty((sum(v.n_frames for v in videos), enc.embed_dim))
    start = 0
    for v in videos:
        enc.forward(v.data, out=frames[start:start + v.n_frames])
        start += v.n_frames
    sq = _row_sq_norms(frames)
    centers = init_centers(frames, k, rng)
    dist = _clipped_sq_distances(frames, sq, centers)
    trim = use_masks and hyper.zeta > 0
    flagged = _far_frames(dist.min(axis=0)) if trim else np.zeros(len(frames), dtype=bool)
    if flagged.any():
        centers = init_centers(frames[~flagged], k, rng)
        dist = _clipped_sq_distances(frames, sq, centers)

    label_seqs = []
    orders = []
    relabelled = []
    start = 0
    for video in videos:
        rows = slice(start, start + video.n_frames)
        start = rows.stop
        unary = dist[:, rows].T
        labels, _ = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=beta))
        relabelled.append(int(np.count_nonzero(labels != np.argmin(unary, axis=1))))
        labels[flagged[rows]] = BACKGROUND
        label_seqs.append(LabelSequence(video_id=video.video_id, labels=labels))
        if np.any(labels != BACKGROUND):
            orders.append(tuple(keystep_order(labels)))
        else:
            orders.append(tuple())
    ranked = rank_orders([list(o) for o in orders if o])
    return SegmentationResult(
        labels=tuple(label_seqs),
        orders=tuple(orders),
        task_order=tuple(ranked),
        relabelled=tuple(relabelled),
        flagged=int(np.count_nonzero(flagged)) if trim else None,
        centers=centers,
    )
