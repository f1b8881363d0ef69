"""Clustering, chain Potts labeling, step ordering, and segment_task."""

import itertools
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from rgwot import segmentation
from rgwot.data_model import BACKGROUND, FrameFeatures, Hyperparams
from rgwot.encoder import Encoder
from rgwot.errors import ConfigError, DegenerateData, EmptyVideo
from rgwot.segmentation import (
    GraphCutProblem,
    alpha_expansion,
    init_centers,
    keystep_order,
    labeling_energy,
    rank_orders,
    segment_task,
)


def sse(points, centers):
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return float(d2.min(axis=1).sum())


def reference_init_centers(points, k, rng, lloyd_iters=100, restarts=5, revived=None,
                           arithmetic=None, seeding=None):
    """The sequential k-means restarts that init_centers runs in lockstep.

    arithmetic (PRODUCTS by default) gives the seeding distances, the
    cluster means and a run's SSE. seeding(pts, sq, k, rng), when given,
    replaces the greedy k-means++ seeding. revived, when given, collects
    (round, cluster) for every revived empty cluster; rounds count from 0.
    """
    arithmetic = arithmetic or PRODUCTS
    if seeding is None:
        def seeding(pts, sq, k, rng):
            return reference_greedy_seeding(pts, sq, k, rng, arithmetic.distances)
    pts = np.asarray(points, dtype=np.float64)
    if np.unique(pts, axis=0).shape[0] < k:
        raise DegenerateData(f"need at least {k} distinct points")
    sq = np.sum(pts * pts, axis=1)
    best_centers = None
    best_sse = np.inf
    for _ in range(max(1, restarts)):
        centers = reference_one_kmeans_run(pts, sq, k, rng, lloyd_iters, revived, arithmetic,
                                           seeding)
        sse = arithmetic.sse(pts, sq, centers)
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


def reference_one_kmeans_run(pts, sq, k, rng, lloyd_iters, revived, arithmetic, seeding):
    centers = seeding(pts, sq, k, rng)
    assign = reference_nearest(pts, sq, centers)[0]
    for t in range(lloyd_iters):
        new_centers = reference_lloyd_means(pts, centers, assign, arithmetic.means)
        if revived is not None:
            revived += [(t, c) for c in range(k) if not np.any(assign == c)]
        new_assign = reference_nearest(pts, sq, new_centers)[0]
        moved = not np.array_equal(new_assign, assign)
        centers, assign = new_centers, new_assign
        if not moved:
            break
    return centers


def reference_greedy_seeding(pts, sq, k, rng, distances):
    """Greedy k-means++, one candidate at a time: each center after the first
    draws 2 + floor(ln k) candidates from the D^2 weights in one rng.choice
    and keeps the first of those with the lowest potential."""
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    first = rng.integers(n)
    centers[0] = pts[first]
    d2 = distances(pts, sq, pts[first])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = pts[rng.integers(n)]
            continue
        best = None
        for i in rng.choice(n, size=2 + int(np.log(k)), p=d2 / total):
            dist = np.minimum(distances(pts, sq, pts[i]), d2)
            potential = dist.sum()
            if best is None or potential < best[0]:
                best = (potential, i, dist)
        _, i, d2 = best
        centers[c] = pts[i]
    return centers


def stock_seeding(pts, sq, k, rng):
    """Plain k-means++, the seeding before the greedy one: one D^2 draw per
    center, with the product distances. Same signature as _kmeans_pp."""
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = PRODUCTS.distances(pts, sq, centers[0])
    for c in range(1, k):
        centers[c] = pts[rng.choice(n, p=d2 / d2.sum())]
        d2 = np.minimum(d2, PRODUCTS.distances(pts, sq, centers[c]))
    return centers


def reference_lloyd_means(pts, centers, assign, means):
    """Every cluster's mean in cluster order; an empty one is revived at the
    point that fits worst, read against the centers updated so far."""
    k = centers.shape[0]
    cluster_means = means(pts, assign, k)
    new_centers = centers.copy()
    for c in range(k):
        if np.any(assign == c):
            new_centers[c] = cluster_means[c]
        else:
            worst = np.argmax(np.sum((pts - new_centers[assign]) ** 2, axis=1))
            new_centers[c] = pts[worst]
    return new_centers


def reference_nearest(pts, sq, centers):
    """Nearest-center index of every point and its squared distance, clipped at 0."""
    d2 = sq[:, None] - 2.0 * pts @ centers.T + np.sum(centers * centers, axis=1)[None, :]
    return np.argmin(d2, axis=1), np.maximum(d2.min(axis=1), 0.0)


def product_means(pts, assign, k):
    # one product of the one-hot assignment; rows of empty clusters are unread
    onehot = (assign == np.arange(k)[:, None]).astype(np.float64)
    with np.errstate(invalid="ignore"):
        return (onehot @ pts) / onehot.sum(axis=1)[:, None]


def mean_means(pts, assign, k):
    return [pts[assign == c].mean(axis=0) if np.any(assign == c) else None
            for c in range(k)]


Arithmetic = namedtuple("Arithmetic", "distances means sse")
# init_centers' arithmetic: |p|^2 - 2 p.c + |c|^2 clipped at 0 for the
# seeding and the SSE, and means from a one-hot product
PRODUCTS = Arithmetic(
    distances=lambda pts, sq, c: np.maximum(sq - 2.0 * (pts @ c) + c @ c, 0.0),
    means=product_means,
    sse=lambda pts, sq, centers: float(reference_nearest(pts, sq, centers)[1].sum()),
)
# differences and .mean: the second oracle, equal to PRODUCTS up to rounding
MEANS = Arithmetic(
    distances=lambda pts, sq, c: np.sum((pts - c) ** 2, axis=1),
    means=mean_means,
    sse=lambda pts, sq, centers: float(
        np.sum((pts - centers[reference_nearest(pts, sq, centers)[0]]) ** 2)),
)


def repeated_point_pools():
    """Pools drawn with replacement from a few distinct points, so they hold
    exact duplicates, plus one jittered pool at the feature width of segment
    and two of small integers, on which points are often equally far from
    two centers."""
    pools = []
    for seed, (n, m, d) in enumerate([(9, 6, 1), (14, 7, 2), (40, 10, 3), (60, 25, 5)]):
        g = np.random.default_rng(seed)
        base = np.round(g.normal(size=(m, d)), 1)
        pools.append(base[g.integers(m, size=n)])
    g = np.random.default_rng(99)
    blobs = 3.0 * g.normal(size=(6, 128))
    pool = blobs[g.integers(6, size=300)] + g.normal(size=(300, 128))
    pools.append(np.concatenate([pool, pool[:40]]))
    g = np.random.default_rng(7)
    pools += [g.integers(0, 6, size=(20, 1)).astype(np.float64),
              g.integers(0, 6, size=(30, 2)).astype(np.float64)]
    return pools


# 1-D pool on which the first k=4 run from default_rng(0) with the stock
# seeding empties a cluster; the greedy seeding spreads its centers too well
# to empty one on any small pool a search turned up
REVIVAL_POOL = np.array(
    [1.8, 8.6, 1.1, 1.8, 8.9, 8.6, 7.6, 5.5, 4.7, 5.5, 1.8, 8.6, 1.1]
)[:, None]


def paired_blobs_pool():
    """Five pairs of 2-D blobs of 5-24 points (sd 0.5), the blobs of a pair 2
    apart and the pairs about 20 apart. For k = 10, a seeding that puts two
    centers in one pair and none in another merges a pair: Lloyd cannot move
    a center across the gap."""
    g = np.random.default_rng(0)
    blobs = []
    for _ in range(5):
        c = g.normal(size=2) * 20
        blobs += [c, c + [2.0, 0.0]]
    return np.concatenate([b + 0.5 * g.normal(size=(int(g.integers(5, 25)), 2)) for b in blobs])


def brute_force_min_energy(problem: GraphCutProblem) -> float:
    """Exhaustive minimum over all K^N labelings, vectorized."""
    n, k = problem.n, problem.k
    labelings = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    unary_sum = problem.unary[np.arange(n)[None, :], labelings].sum(axis=1)
    switches = np.count_nonzero(labelings[:, :-1] != labelings[:, 1:], axis=1)
    return float((unary_sum + problem.pairwise_weight * switches).min())


def chain_dp_min(unary: np.ndarray, beta: float) -> float:
    """Exact chain minimum by dynamic programming (best/second-best trick)."""
    cost = unary[0].astype(np.float64).copy()
    k = cost.size
    for i in range(1, unary.shape[0]):
        order = np.argsort(cost)
        best_other = np.full(k, cost[order[0]])
        best_other[order[0]] = cost[order[1]]
        cost = unary[i] + np.minimum(cost, best_other + beta)
    return float(cost.min())


def numpy_loop_alpha_expansion(problem: GraphCutProblem):
    """The Potts DP as a numpy loop, one vector step per frame, with the same
    stay rule (cost <= switch) and first-index ties as alpha_expansion."""
    unary = problem.unary
    beta = problem.pairwise_weight
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
    return path, [labeling_energy(problem, path)]


def clustering_problem(rng, n, k, beta):
    """Unaries shaped like segment_task's: squared distances of step-structured
    noisy points to near-true centers."""
    centers = rng.normal(size=(k, 3)) * 2.0
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(k - 1, n - 1), replace=False))
    labels = np.zeros(n, dtype=np.int64)
    for c in cuts:
        labels[c:] += 1
    labels %= k
    pts = centers[labels] + 0.4 * rng.normal(size=(n, 3))
    noisy_centers = centers + 0.1 * rng.normal(size=centers.shape)
    unary = np.sum((pts[:, None, :] - noisy_centers[None, :, :]) ** 2, axis=2)
    return GraphCutProblem(unary=unary, pairwise_weight=beta)


def axis_encoder(dim: int, delta: float = 1e-4) -> Encoder:
    """Near-identity encoder: tanh(delta*x)/delta ~= x for small delta."""
    return Encoder(
        w1=delta * np.eye(dim),
        b1=np.zeros(dim),
        w2=np.eye(dim) / delta,
        b2=np.zeros(dim),
    )


class TestInitCenters:
    def test_recovers_separated_blobs(self, rng):
        self.check_recovers_separated_blobs(rng, offset=0.0)

    def test_recovers_separated_blobs_far_from_the_origin(self, rng):
        # |p|^2 - 2 p.c + |c|^2 cancels about 2e12 here and can round below 0
        # near a center; unclipped, the seeding weights would be negative
        self.check_recovers_separated_blobs(rng, offset=1e6)

    @staticmethod
    def check_recovers_separated_blobs(rng, offset):
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]) + offset
        pts = np.concatenate(
            [m + 0.05 * rng.normal(size=(40, 2)) for m in means], axis=0
        )
        centers = init_centers(pts, 3, rng)
        d = np.linalg.norm(means[:, None, :] - centers[None, :, :], axis=2)
        nearest = d.argmin(axis=1)
        assert sorted(nearest.tolist()) == [0, 1, 2]  # one center per blob
        assert d[np.arange(3), nearest].max() < 0.1

    def test_exact_on_repeated_distinct_points(self, rng):
        base = np.array([[1.0, 2.0], [5.0, -1.0], [-3.0, 4.0]])
        pts = np.repeat(base, 10, axis=0)
        centers = init_centers(pts, 3, rng)
        assert sse(pts, centers) == 0.0
        got = centers[np.lexsort(centers.T[::-1])]
        want = base[np.lexsort(base.T[::-1])]
        assert np.array_equal(got, want)

    def test_k_one_is_the_mean(self, rng):
        pts = rng.normal(size=(30, 4))
        centers = init_centers(pts, 1, rng)
        assert np.allclose(centers[0], pts.mean(axis=0))

    def test_fewer_distinct_points_than_k(self, rng):
        pts = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 5, axis=0)
        with pytest.raises(DegenerateData, match="need at least 3 distinct points, got 2"):
            init_centers(pts, 3, rng)

    def test_distinct_points_sharing_a_coordinate(self, rng):
        pts = np.repeat(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]), 4, axis=0)
        centers = init_centers(pts, 3, rng)
        assert sse(pts, centers) == 0.0

    def test_within_5_percent_of_best_of_fifty(self, rng, monkeypatch):
        means = rng.normal(size=(4, 2)) * 8.0
        pts = np.concatenate(
            [m + rng.normal(size=(50, 2)) for m in means], axis=0
        )
        with monkeypatch.context() as m:
            m.setattr(segmentation, "_RESTARTS", 1)
            best = min(
                sse(pts, init_centers(pts, 4, np.random.default_rng(100 + i)))
                for i in range(50)
            )
        got = sse(pts, init_centers(pts, 4, np.random.default_rng(0)))
        assert got <= 1.05 * best

    def test_restarts_never_hurt(self, rng, monkeypatch):
        pts = rng.normal(size=(80, 3))
        with monkeypatch.context() as m:
            m.setattr(segmentation, "_RESTARTS", 1)
            single = sse(pts, init_centers(pts, 5, np.random.default_rng(7)))
        multi = sse(pts, init_centers(pts, 5, np.random.default_rng(7)))
        assert multi <= single + 1e-9

    def test_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(60, 3))
        a = init_centers(pts, 4, np.random.default_rng(5))
        b = init_centers(pts, 4, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("restarts", [1, 3, 10])
    def test_same_centers_and_rng_state_as_sequential_runs(self, restarts, monkeypatch):
        monkeypatch.setattr(segmentation, "_RESTARTS", restarts)
        for i, pts in enumerate(repeated_point_pools()):
            for k in range(1, 7):
                if np.unique(pts, axis=0).shape[0] < k:
                    continue
                want_rng = np.random.default_rng(1000 + 10 * i + k)
                got_rng = np.random.default_rng(1000 + 10 * i + k)
                want = reference_init_centers(pts, k, want_rng, restarts=restarts)
                got = init_centers(pts, k, got_rng)
                assert np.array_equal(got, want), (i, k)
                assert got.tobytes() == want.tobytes(), (i, k)  # also tells -0.0 from 0.0
                assert got_rng.random() == want_rng.random(), (i, k)

    @pytest.mark.parametrize("restarts", [1, 3, 10])
    def test_same_centers_through_empty_cluster_revival(self, restarts, monkeypatch):
        monkeypatch.setattr(segmentation, "_RESTARTS", restarts)
        monkeypatch.setattr(segmentation, "_kmeans_pp", stock_seeding)
        revived = []
        want_rng = np.random.default_rng(0)
        want = reference_init_centers(REVIVAL_POOL, 4, want_rng, restarts=restarts,
                                      revived=revived, seeding=stock_seeding)
        # the pool reaches the revival branch after the first round
        assert any(t >= 1 for t, _ in revived)
        got_rng = np.random.default_rng(0)
        got = init_centers(REVIVAL_POOL, 4, got_rng)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_same_labels_as_the_mean_arithmetic(self):
        # the k-means of differences and .mean (MEANS) as a second oracle:
        # the same final assignment, and centers that differ by rounding
        for i, pts in enumerate(repeated_point_pools() + [REVIVAL_POOL]):
            sq = np.sum(pts * pts, axis=1)
            for k in range(1, 7):
                if np.unique(pts, axis=0).shape[0] < k:
                    continue
                got = init_centers(pts, k, np.random.default_rng(1000 + 10 * i + k))
                want = reference_init_centers(pts, k, np.random.default_rng(1000 + 10 * i + k),
                                              arithmetic=MEANS)
                assert np.array_equal(reference_nearest(pts, sq, got)[0],
                                      reference_nearest(pts, sq, want)[0]), (i, k)
                assert np.abs(got - want).max() <= 1e-12, (i, k)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 20, 21])
    def test_seeding_draws_two_plus_log_k_candidates_per_center(self, k):
        # one uniform draw for the first center, then one rng.choice of
        # 2 + floor(ln k) candidates, one double each, for every later center
        pts = np.random.default_rng(3).normal(size=(60, 3))
        got = np.random.default_rng(5)
        segmentation._kmeans_pp(pts, np.sum(pts * pts, axis=1), k, got)
        want = np.random.default_rng(5)
        want.integers(60)
        want.random((k - 1) * (2 + math.floor(math.log(k))))
        assert got.bit_generator.state == want.bit_generator.state

    def test_greedy_five_reaches_the_best_sse_that_stock_ten_misses(self, monkeypatch):
        pts = paired_blobs_pool()
        greedy = [sse(pts, init_centers(pts, 10, np.random.default_rng(s))) for s in range(20)]
        with monkeypatch.context() as m:
            m.setattr(segmentation, "_kmeans_pp", stock_seeding)
            m.setattr(segmentation, "_RESTARTS", 10)
            stock = [sse(pts, init_centers(pts, 10, np.random.default_rng(s)))
                     for s in range(20)]
        best = min(greedy + stock)
        # within 0.5% of the best SSE: the runs that reach it differ only in
        # a few points between the blobs of a pair; a miss merges a pair
        assert all(v <= 1.005 * best for v in greedy)
        assert sum(v > 1.005 * best for v in stock) >= 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_running_sums_match_a_fresh_product(self, seed):
        # a seeded assignment sequence whose rounds move no point, one point
        # and many points, and which empties a cluster and refills it
        g = np.random.default_rng(seed)
        n, k = 300, 6
        pts = g.normal(size=(n, 128))
        assign = g.integers(k, size=n)
        sums, counts = segmentation._cluster_sums(pts, assign, k)
        for moves in [0, 1, 150, 1, "empty", 7, 0, 299, "refill", 40, 1]:
            new = assign.copy()
            if moves == "empty":
                new[new == 2] = 3
            elif moves == "refill":
                new[g.choice(n, size=20, replace=False)] = 2
            else:
                moved = g.choice(n, size=moves, replace=False)
                new[moved] = (new[moved] + g.integers(1, k, size=moves)) % k
            before = sums
            sums, counts = segmentation._cluster_sums(pts, new, k, assign, sums)
            onehot = (new == np.arange(k)[:, None]).astype(np.float64)
            fresh = onehot @ pts
            assert np.abs(sums - fresh).max() <= 1e-12, moves
            assert counts.tolist() == onehot.sum(axis=1).astype(int).tolist(), moves
            if moves == 0:
                assert sums.tobytes() == before.tobytes()
            if moves == "empty":
                # a revival must read fresh sums, not running ones
                assert counts[2] == 0
                assert sums.tobytes() == fresh.tobytes()
            assign = new


def parent_seed_distances(pts, sq, cands):
    """_clipped_sq_distances as one expression, before it shared _sq_distances."""
    d2 = sq - 2.0 * (cands @ pts.T) + np.sum(cands * cands, axis=1)[:, None]
    return np.maximum(d2, 0.0, out=d2)


def parent_nearest(pts, sq, centers):
    """_nearest with its own copy of the distance expression."""
    k = centers[0].shape[0]
    stacked = np.stack(centers, axis=1).reshape(-1, pts.shape[1])
    d2 = stacked @ pts.T
    np.multiply(d2, 2.0, out=d2)
    np.subtract(sq[None, :], d2, out=d2)
    d2 += np.sum(stacked * stacked, axis=1)[:, None]
    d2 = d2.reshape(k, len(centers), pts.shape[0])
    best = np.zeros(d2.shape[1:], dtype=np.intp)
    low = d2[0].copy()
    closer = np.empty(low.shape, dtype=bool)
    for c in range(1, k):
        np.less(d2[c], low, out=closer)
        np.copyto(best, c, where=closer)
        np.minimum(low, d2[c], out=low)
    np.maximum(low, 0.0, out=low)
    return list(best), list(low)


def distance_pools():
    """repeated_point_pools plus continuous pools off the origin, where
    |p|^2 - 2 p.p + |p|^2 rounds away from 0 for a candidate in the pool."""
    g = np.random.default_rng(5)
    return repeated_point_pools() + [g.normal(size=(n, d)) * 10.0 + 3.0
                                     for n, d in [(30, 1), (50, 4), (80, 16), (120, 128)]]


class TestSquaredDistances:
    """The shared |p|^2 - 2 c.p + |c|^2 keeps every bit of both callers."""

    def test_seed_distances_match_the_parent_expression(self):
        clipped = 0
        for i, pts in enumerate(distance_pools()):
            g = np.random.default_rng(i)
            sq = np.sum(pts * pts, axis=1)
            n = pts.shape[0]
            # candidates drawn from the pool, as _kmeans_pp draws them, and off it
            for cands in (pts[:1], pts[g.integers(n, size=4)],
                          pts[g.integers(n, size=3)] + g.normal(size=(3, pts.shape[1]))):
                raw = segmentation._sq_distances(pts, sq, cands)
                clipped += int(np.count_nonzero(raw < 0.0))
                want = parent_seed_distances(pts, sq, cands)
                got = segmentation._clipped_sq_distances(pts, sq, cands)
                assert got.shape == (cands.shape[0], n)
                assert got.tobytes() == want.tobytes(), i
        assert clipped > 0  # the clip at 0 acted somewhere

    def test_sq_distances_are_unclipped(self):
        pts = np.random.default_rng(1).normal(size=(40, 6)) * 10.0 + 3.0
        sq = np.sum(pts * pts, axis=1)
        want = sq - 2.0 * (pts @ pts.T) + sq[:, None]
        assert segmentation._sq_distances(pts, sq, pts).tobytes() == want.tobytes()
        assert want.min() < 0.0

    @pytest.mark.parametrize("sets", [1, 2, 5])
    def test_nearest_matches_the_parent_expression(self, sets):
        for i, pts in enumerate(distance_pools()):
            g = np.random.default_rng(i)
            sq = np.sum(pts * pts, axis=1)
            n = pts.shape[0]
            k = min(4, n)
            # pool points as centers, a repeated center (a tie) and off-pool centers
            centers = [pts[g.integers(n, size=k)] for _ in range(sets)]
            centers[0][-1] = centers[0][0]
            centers[-1] = centers[-1] + g.normal(size=centers[-1].shape)
            want_best, want_low = parent_nearest(pts, sq, centers)
            got_best, got_low = segmentation._nearest(pts, sq, centers)
            assert len(got_best) == len(got_low) == sets
            for wb, wl, gb, gl in zip(want_best, want_low, got_best, got_low):
                assert np.array_equal(gb, wb), i
                assert gl.tobytes() == wl.tobytes(), i

    def test_nearest_clips_after_the_minimum(self):
        # centers at a pool point and at copies of it moved by 1e-9: the
        # point's distances to several of them can round below 0, and a clip
        # before the minimum would send it to the first of those
        g = np.random.default_rng(5)
        undercut = 0
        for n, d in [(30, 1), (50, 4), (80, 16)]:
            pts = g.normal(size=(n, d)) * 10.0 + 3.0
            sq = np.sum(pts * pts, axis=1)
            for j in range(n):
                near = pts[j] + 1e-9 * g.normal(size=(4, d))
                near[-1] = pts[j]
                raw = segmentation._sq_distances(pts, sq, near)[:, j]
                undercut += bool(np.argmin(raw) != np.argmax(raw < 0) and raw.min() < 0)
                (want_best,), (want_low,) = parent_nearest(pts, sq, [near])
                (got_best,), (got_low,) = segmentation._nearest(pts, sq, [near])
                assert np.array_equal(got_best, want_best), (n, j)
                assert got_low.tobytes() == want_low.tobytes(), (n, j)
        assert undercut > 0


def parent_lloyd_means(pts, centers, assign, sums, counts):
    """_lloyd_means with the revival's fit over the whole pool at once."""
    new_centers = centers.copy()
    for c in range(centers.shape[0]):
        if counts[c]:
            new_centers[c] = sums[c] / counts[c]
        else:
            worst = np.argmax(np.sum((pts - new_centers[assign]) ** 2, axis=1))
            new_centers[c] = pts[worst]
    return new_centers


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBlockedRowNorms:
    """Row-wise squared norms by blocks of rows keep the whole-array bits."""

    # pool sizes as (blocks, extra rows): a lone row past a block boundary,
    # in a column-major pool, is summed in another order than the whole pool
    @pytest.mark.parametrize("size", [(0, 2), (1, -1), (1, 0), (1, 1), (2, 300), (3, 1)])
    @pytest.mark.parametrize("d", [1, 7, 128])
    def test_same_bytes_as_the_whole_array(self, size, d):
        n = size[0] * segmentation._BLOCK + size[1]
        g = np.random.default_rng(n + d)
        pts = g.normal(size=(n, d)) * g.uniform(0.1, 1e3, size=(n, 1)) + 5.0
        centers = g.normal(size=(4, d)) * 100.0
        assign = g.integers(4, size=n)
        for layout in (pts, np.asfortranarray(pts), pts[:, ::-1]):
            got = segmentation._row_sq_norms(layout)
            assert got.tobytes() == np.sum(layout * layout, axis=1).tobytes()
            got = segmentation._row_sq_norms(layout, centers, assign)
            want = np.sum((layout - centers[assign]) ** 2, axis=1)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def revival_case(d=16):
        """A pool of 16 blocks in three blobs around 0, 8 and -8 with two
        outliers, one in the first block and one in the last, that fit their
        cluster equally badly; clusters 3 and 4 are empty. The sums make
        every cluster mean exactly its blob's center."""
        g = np.random.default_rng(2)
        n = 16 * segmentation._BLOCK
        centers = np.concatenate([np.array([[0.0], [8.0], [-8.0]]) * np.ones(d),
                                  np.full((2, d), 1e3)])
        assign = g.integers(3, size=n)
        pts = centers[assign] + g.normal(size=(n, d))
        assign[10] = assign[n - 10] = 0
        pts[10], pts[n - 10] = 0.0, 0.0
        pts[10, 0], pts[n - 10, 1] = 40.0, 40.0
        counts = np.bincount(assign, minlength=5)
        sums = centers * counts[:, None]
        return pts, centers, assign, sums, counts

    def test_revival_matches_the_unblocked_expression(self):
        pts, centers, assign, sums, counts = self.revival_case()
        got = segmentation._lloyd_means(pts, centers, assign, sums, counts)
        want = parent_lloyd_means(pts, centers, assign, sums, counts)
        assert got.tobytes() == want.tobytes()
        # the tie goes to the first outlier, for both empty clusters
        assert np.array_equal(got[3], pts[10]) and np.array_equal(got[4], pts[10])
        assert np.array_equal(got[:3], centers[:3])

    def test_revival_makes_no_pool_sized_temporary(self):
        # the unblocked fit makes three N x d temporaries: over 2x the pool
        pts, centers, assign, sums, counts = self.revival_case()
        _, peak = traced_peak(segmentation._lloyd_means, pts, centers, assign, sums, counts)
        assert peak <= 0.5 * pts.nbytes, peak / pts.nbytes


class TestLabelingEnergy:
    def test_hand_computed(self):
        problem = GraphCutProblem(
            unary=np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            pairwise_weight=0.4,
        )
        assert labeling_energy(problem, np.array([0, 1, 0])) == pytest.approx(0.8)
        assert labeling_energy(problem, np.array([0, 0, 0])) == pytest.approx(1.0)

    def test_constant_labels_pay_no_pairwise(self, rng):
        unary = rng.uniform(size=(6, 3))
        problem = GraphCutProblem(unary=unary, pairwise_weight=100.0)
        labels = np.full(6, 2)
        assert labeling_energy(problem, labels) == pytest.approx(unary[:, 2].sum())


class TestAlphaExpansion:
    def test_beta_zero_is_unary_argmin(self, rng):
        unary = rng.uniform(size=(20, 4))
        labels, _ = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=0.0))
        assert np.array_equal(labels, np.argmin(unary, axis=1))

    def test_constant_unary_keeps_single_label(self):
        unary = np.full((10, 3), 2.5)
        labels, trace = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=1.0))
        assert len(set(labels.tolist())) == 1
        assert trace[-1] == pytest.approx(25.0)

    @pytest.mark.parametrize("n,k", [(16, 2), (10, 3), (8, 4), (7, 5)])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_brute_force_on_clustering_instances(self, n, k, beta):
        for seed in range(3):
            problem = clustering_problem(np.random.default_rng(seed), n, k, beta)
            labels, trace = alpha_expansion(problem)
            want = brute_force_min_energy(problem)
            assert labeling_energy(problem, labels) == pytest.approx(want, abs=1e-9)
            assert trace[-1] == pytest.approx(want, abs=1e-9)

    def test_chain_dp_matches_brute_force(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.1, 2.0))
            problem = GraphCutProblem(
                unary=rng.uniform(size=(n, k)), pairwise_weight=beta
            )
            assert chain_dp_min(problem.unary, beta) == pytest.approx(
                brute_force_min_energy(problem), abs=1e-12
            )

    def test_bounded_above_by_twice_optimum_on_random_unaries(self):
        """On a chain the labeler is exact: even on unstructured unaries, where
        iterated expansion moves can stop above the optimum, the energy equals
        the independent DP minimum."""
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, 6))
            beta = float(rng.uniform(0.2, 2.0))
            problem = GraphCutProblem(
                unary=rng.uniform(size=(n, k)), pairwise_weight=beta
            )
            labels, _ = alpha_expansion(problem)
            got = labeling_energy(problem, labels)
            assert got == pytest.approx(chain_dp_min(problem.unary, beta), abs=1e-9)

    def test_same_labels_and_trace_as_the_numpy_loop(self):
        g = np.random.default_rng(21)
        for t in range(80):
            n = (1, 2, 300)[t] if t < 3 else int(g.integers(1, 301))
            k = t % 8 + 1
            # unaries on a 0.1 grid tie often; small integers tie exactly
            if t % 2:
                unary = np.round(g.uniform(0.0, 3.0, size=(n, k)), 1)
            else:
                unary = g.integers(0, 4, size=(n, k)).astype(np.float64)
            for beta in (0.0, 0.5, 1.0, 30.0):
                problem = GraphCutProblem(unary=unary, pairwise_weight=beta)
                labels, trace = alpha_expansion(problem)
                want, want_trace = numpy_loop_alpha_expansion(problem)
                assert labels.dtype == want.dtype
                assert labels.tobytes() == want.tobytes(), (t, beta)
                assert trace == want_trace, (t, beta)

    def test_single_frame_takes_the_unary_argmin(self):
        unary = np.array([[0.4, 0.1, 0.3]])
        labels, trace = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=1.0))
        assert labels.tolist() == [1]
        assert trace == [pytest.approx(0.1)]

    def test_trace_is_the_energy_of_the_labels(self, rng):
        problem = GraphCutProblem(unary=rng.uniform(size=(25, 4)), pairwise_weight=0.7)
        labels, trace = alpha_expansion(problem)
        assert trace == [labeling_energy(problem, labels)]

    def test_trace_never_increases(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem = GraphCutProblem(
                unary=rng.uniform(size=(25, 4)), pairwise_weight=0.7
            )
            labels, trace = alpha_expansion(problem)
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            assert trace[-1] == pytest.approx(labeling_energy(problem, labels))

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_potts_weight(self, beta):
        with pytest.raises(ConfigError):
            GraphCutProblem(unary=np.zeros((3, 2)), pairwise_weight=beta)

    def test_smooths_isolated_flips(self):
        unary = np.zeros((7, 2))
        unary[:, 1] = 0.3
        unary[3] = [0.3, 0.0]  # lone frame prefers the other label
        labels, _ = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=1.0))
        assert np.array_equal(labels, np.zeros(7, dtype=labels.dtype))


class TestKeystepOrder:
    def test_contiguous_blocks(self):
        assert keystep_order(np.array([0, 0, 1, 1, 2, 2])) == [0, 1, 2]

    def test_reversed_blocks(self):
        assert keystep_order(np.array([2, 2, 0, 0])) == [2, 0]

    def test_interleaved_means(self):
        assert keystep_order(np.array([0, 1, 0, 1])) == [0, 1]

    def test_tie_breaks_by_smaller_id(self):
        # both labels have mean position 2.5 of 4
        assert keystep_order(np.array([0, 1, 1, 0])) == [0, 1]

    def test_background_is_skipped(self):
        assert keystep_order(np.array([-1, 1, 1, -1, 0, -1])) == [1, 0]

    def test_all_background_raises(self):
        with pytest.raises(EmptyVideo):
            keystep_order(np.array([-1, -1, -1]))

    def test_single_label(self):
        assert keystep_order(np.array([3, 3, 3])) == [3]

    def test_subsampling_preserves_order(self, rng):
        labels = np.repeat(rng.permutation(4), 20)
        assert keystep_order(labels[::2]) == keystep_order(labels)


class TestRankOrders:
    def test_frequency_ranking(self):
        ranked = rank_orders([[0, 1], [1, 0], [0, 1]])
        assert ranked == [((0, 1), 2), ((1, 0), 1)]

    def test_ties_break_lexicographically(self):
        ranked = rank_orders([[2, 0], [0, 2]])
        assert ranked == [((0, 2), 1), ((2, 0), 1)]

    def test_empty_input(self):
        assert rank_orders([]) == []


def blob_videos(n_videos=3, frames_per_step=12, dim=8, noise=0.02, seed=0):
    """Videos of three contiguous steps with well-separated means."""
    rng = np.random.default_rng(seed)
    means = np.zeros((3, dim))
    means[0, 0] = 4.0
    means[1, 1] = 4.0
    means[2, 2] = 4.0
    videos = []
    for v in range(n_videos):
        rows = np.concatenate(
            [m + noise * rng.normal(size=(frames_per_step, dim)) for m in means]
        )
        videos.append(FrameFeatures(f"vid{v}", rows.astype(np.float32)))
    return videos


def parent_segment_task(videos, enc, k, beta, masks, rng):
    """segment_task's clustering and labeling as they were: a new array per
    video's embeddings, the pool their unmasked rows concatenated, and the
    unary costs from the N x k x d difference. When a frame is masked, a
    clustering of every frame draws from rng first, as the trim's does.
    Returns (labels, centers, relabelled)."""
    embeddings = [np.tanh(np.asarray(v.data, dtype=np.float64) @ enc.w1 + enc.b1) @ enc.w2
                  + enc.b2 for v in videos]
    if any(m.any() for m in masks):
        init_centers(np.concatenate(embeddings), k, rng)
    pool = np.concatenate([e[~m] for e, m in zip(embeddings, masks)], axis=0)
    centers = init_centers(pool, k, rng)
    labels, relabelled = [], []
    for e, mask in zip(embeddings, masks):
        unary = np.sum((e[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        lab, _ = alpha_expansion(GraphCutProblem(unary=unary, pairwise_weight=beta))
        relabelled.append(int(np.count_nonzero(lab != np.argmin(unary, axis=1))))
        lab[mask] = BACKGROUND
        labels.append(lab)
    return labels, centers, tuple(relabelled)


def step_videos(n_videos, frames, dim, k, seed):
    """Videos of k steps in sorted order around random means, float32 features."""
    g = np.random.default_rng(seed)
    means = g.normal(size=(k, dim)) * 3.0
    return [FrameFeatures(f"v{v}", (means[np.sort(g.integers(k, size=frames))]
                                    + g.normal(size=(frames, dim))).astype(np.float32))
            for v in range(n_videos)]


def with_far_frames(videos, count, seed):
    """videos with count frames of each replaced by scattered far outliers,
    and per video the mask of those frames."""
    g = np.random.default_rng(seed)
    out, masks = [], []
    for v in videos:
        data = np.array(v.data)
        mask = np.zeros(v.n_frames, dtype=bool)
        mask[g.choice(v.n_frames, size=count, replace=False)] = True
        data[mask] = 8.0 * g.normal(size=(count, data.shape[1]))
        out.append(FrameFeatures(v.video_id, data))
        masks.append(mask)
    return out, masks


class TestSegmentTask:
    @pytest.fixture
    def hyper(self):
        return Hyperparams(embed_dim=8, hidden_dim=8, zeta=0.0)

    @pytest.mark.parametrize("masking", ["none", "some", "one video whole"])
    def test_same_bytes_as_the_concatenated_pool(self, masking, monkeypatch):
        # 1,500 frames: the pool spans two blocks of the squared norms
        videos = step_videos(3, 500, 24, 5, seed=4)
        enc = Encoder.create(24, 16, 32, seed=4)
        g = np.random.default_rng(5)
        masks = [np.zeros(v.n_frames, dtype=bool) for v in videos]
        if masking != "none":
            masks = [g.random(v.n_frames) < 0.3 for v in videos]
        if masking == "one video whole":
            masks[1][:] = True
        monkeypatch.setattr(segmentation, "_far_frames",
                            lambda nearest: np.concatenate(masks))
        hyper = Hyperparams(embed_dim=16, hidden_dim=32, zeta=0.5)
        res = segment_task(videos, enc, k=5, beta=2.0, hyper=hyper,
                           rng=np.random.default_rng(6), use_masks=masking != "none")
        labels, centers, relabelled = parent_segment_task(videos, enc, 5, 2.0, masks,
                                                          np.random.default_rng(6))
        assert res.centers.tobytes() == centers.tobytes()
        assert res.relabelled == relabelled
        for seq, want in zip(res.labels, labels):
            assert seq.labels.tobytes() == want.tobytes()
        if masking == "one video whole":
            assert np.all(res.labels[1].labels == BACKGROUND) and res.orders[1] == ()

    def test_holds_one_copy_of_the_embeddings(self):
        # 8 videos of 2,000 frames; with a new array per video, the
        # concatenated pool and the pool-sized square of init_centers the
        # peak was 3.08x the pool, and init_centers' alone 1.01x
        videos = step_videos(8, 2000, 24, 7, seed=0)
        enc = Encoder.create(24, 128, 256)
        pool_bytes = 8 * 2000 * 128 * 8
        _, peak = traced_peak(segment_task, videos, enc, 7, 1.0, Hyperparams(),
                              np.random.default_rng(0), False)
        assert peak <= 1.6 * pool_bytes, peak / pool_bytes
        pool = np.concatenate([enc.forward(v.data)[0] for v in videos])
        _, peak = traced_peak(init_centers, pool, 7, np.random.default_rng(0))
        assert peak <= 0.5 * pool_bytes, peak / pool_bytes

    def test_trim_adds_only_the_unflagged_copy(self):
        # the frame buffer, the copy of its unflagged rows that k-means
        # clusters again, and at most init_centers' own 0.5x
        videos, _ = with_far_frames(step_videos(8, 2000, 24, 7, seed=0), 50, seed=1)
        enc = Encoder.create(24, 128, 256)
        pool_bytes = 8 * 2000 * 128 * 8
        res, peak = traced_peak(segment_task, videos, enc, 7, 1.0, Hyperparams(),
                                np.random.default_rng(0), True)
        assert any(np.any(s.labels == BACKGROUND) for s in res.labels)
        assert peak <= 2.6 * pool_bytes, peak / pool_bytes

    def test_recovers_contiguous_steps(self, hyper):
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=0.1, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=False)
        for seq in res.labels:
            blocks = [seq.labels[0:12], seq.labels[12:24], seq.labels[24:36]]
            # each true step maps to one predicted label, all three distinct
            assert all(len(set(b.tolist())) == 1 for b in blocks)
            assert len({int(b[0]) for b in blocks}) == 3

    def test_result_fields_align(self, hyper):
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=0.1, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=False)
        assert [s.video_id for s in res.labels] == [v.video_id for v in videos]
        assert len(res.orders) == len(videos)
        assert len(res.relabelled) == len(videos)
        assert res.centers.shape == (3, 8)
        for video, seq, relabelled in zip(videos, res.labels, res.relabelled):
            e = axis_encoder(8).forward(video.data)[0]
            unary = np.sum((e[:, None, :] - res.centers[None, :, :]) ** 2, axis=2)
            assert relabelled == np.count_nonzero(seq.labels != np.argmin(unary, axis=1))
        assert res.task_order == tuple(rank_orders([list(o) for o in res.orders]))

    def test_identical_structure_gives_unanimous_order(self, hyper):
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=0.1, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=False)
        assert len(res.task_order) == 1
        assert res.task_order[0][1] == len(videos)
        assert all(o == res.task_order[0][0] for o in res.orders)

    def test_huge_beta_flattens_each_video(self, hyper):
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=1e6, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=False)
        for seq in res.labels:
            assert len(set(seq.labels.tolist())) == 1

    def test_masks_off_keeps_every_frame(self):
        hyper = Hyperparams(embed_dim=8, hidden_dim=8, zeta=0.5)
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=0.1, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=False)
        assert all(np.all(s.labels >= 0) for s in res.labels)
        assert res.flagged is None

    def test_zeta_zero_never_masks(self, hyper):
        videos = blob_videos()
        res = segment_task(videos, axis_encoder(8), k=3, beta=0.1, hyper=hyper,
                           rng=np.random.default_rng(0), use_masks=True)
        assert all(np.all(s.labels >= 0) for s in res.labels)
        assert res.flagged is None

    def test_single_video_is_trimmed(self):
        # the trim needs no partner video
        videos, far = with_far_frames(step_videos(1, 300, 24, 5, seed=2), 12, seed=3)
        res = segment_task(videos, axis_encoder(24), k=5, beta=1.0, hyper=Hyperparams(),
                           rng=np.random.default_rng(0), use_masks=True)
        assert np.array_equal(res.labels[0].labels == BACKGROUND, far[0])

    def test_unmatched_frames_become_background(self):
        """Frames that belong to no key step lie far from every center of the
        first clustering; they come back labelled -1, and every other frame
        keeps a key-step label."""
        videos, far = with_far_frames(step_videos(3, 200, 24, 5, seed=1), 10, seed=2)
        res = segment_task(videos, axis_encoder(24), k=5, beta=1.0, hyper=Hyperparams(),
                           rng=np.random.default_rng(0), use_masks=True)
        for seq, mask in zip(res.labels, far):
            assert np.all(seq.labels[mask] == BACKGROUND)
            assert np.all(seq.labels[~mask] >= 0)
        assert res.flagged == sum(int(mask.sum()) for mask in far)

    @pytest.mark.parametrize("seed", range(5))
    def test_pool_without_background_flags_few(self, seed):
        videos = step_videos(4, 150, 24, 5, seed=seed)
        res = segment_task(videos, axis_encoder(24), k=5, beta=1.0, hyper=Hyperparams(),
                           rng=np.random.default_rng(seed), use_masks=True)
        flagged = sum(int(np.count_nonzero(s.labels == BACKGROUND)) for s in res.labels)
        assert res.flagged == flagged <= 0.05 * 600, flagged

    def test_trim_that_flags_nothing_changes_nothing(self):
        # with no frame flagged, the first clustering's distances are the
        # unaries: the same labels, centers and relabelled as without the trim
        videos = step_videos(4, 150, 24, 5, seed=0)
        on, off = (segment_task(videos, axis_encoder(24), k=7, beta=30.0, hyper=Hyperparams(),
                                rng=np.random.default_rng(3), use_masks=masks)
                   for masks in (True, False))
        assert on.flagged == 0 and off.flagged is None
        assert on.centers.tobytes() == off.centers.tobytes()
        assert on.relabelled == off.relabelled and sum(on.relabelled) > 0
        for a, b in zip(on.labels, off.labels):
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_flags_at_most_half_of_any_pool(self):
        g = np.random.default_rng(0)
        mad_zero = 0
        for trial in range(300):
            n, d = int(g.integers(1, 60)), int(g.integers(1, 5))
            pts = g.normal(size=(n, d)) * g.uniform(1e-3, 1e3)
            if trial % 2:
                # a few distinct points, many copies of the first
                pick = g.integers(0, min(4, n), size=(2, n))
                pts = pts[pick.min(axis=0)]
            k = int(g.integers(1, np.unique(pts, axis=0).shape[0] + 1))
            centers = init_centers(pts, k, g)
            sq = np.sum(pts * pts, axis=1)
            dist = segmentation._clipped_sq_distances(pts, sq, centers).min(axis=0)
            flagged = segmentation._far_frames(dist)
            assert flagged.dtype == bool and flagged.shape == (n,)
            assert 2 * np.count_nonzero(flagged) <= n, (trial, np.count_nonzero(flagged), n)
            mad_zero += np.median(np.abs(dist - np.median(dist))) == 0
        assert mad_zero > 20  # the duplicate pools reach the MAD-0 edge

    def test_virtual_frame_leaves_segment_unchanged(self):
        videos, _ = with_far_frames(step_videos(2, 100, 24, 5, seed=4), 5, seed=5)
        results = [segment_task(videos, axis_encoder(24), k=5, beta=1.0,
                                hyper=Hyperparams(use_virtual=virtual),
                                rng=np.random.default_rng(0), use_masks=True)
                   for virtual in (True, False)]
        for a, b in zip(*(r.labels for r in results)):
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_too_few_frames_without_masks_names_the_count(self, hyper):
        # 6 frames cannot seed 7 clusters; nothing was masked, so the error
        # must not blame the masks
        videos = blob_videos(n_videos=2, frames_per_step=1)
        with pytest.raises(DegenerateData, match="need at least 7 distinct points, got 6"):
            segment_task(videos, axis_encoder(8), k=7, beta=0.1, hyper=hyper,
                         rng=np.random.default_rng(0), use_masks=False)
