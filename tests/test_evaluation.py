import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgwot.data_model import LabelSequence
from rgwot.errors import ConfigError, LengthMismatch, NonFiniteValue, ShapeMismatch
from rgwot.evaluation import (
    MetricsReport,
    evaluate,
    hungarian,
    write_metrics_csv,
)


def seq(vid, labels):
    return LabelSequence(video_id=vid, labels=np.asarray(labels, dtype=np.int64))


def brute_force_min(cost):
    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestHungarian:
    def test_identity_on_diagonal_costs(self):
        cost = np.full((4, 4), 5.0)
        np.fill_diagonal(cost, 0.0)
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_recovers_permutation(self):
        perm = [2, 0, 3, 1]
        cost = np.ones((4, 4))
        for i, j in enumerate(perm):
            cost[i, j] = 0.0
        assert hungarian(cost) == sorted((i, j) for i, j in enumerate(perm))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n, rng):
        for _ in range(50):
            cost = rng.random((n, n))
            got = sum(cost[i, j] for i, j in hungarian(cost))
            assert got == pytest.approx(brute_force_min(cost), abs=1e-12)

    def test_rectangular_matches_every_row(self):
        # two predicted clusters, three gt steps: each cluster takes its best step
        overlap = np.array([[10.0, 0.0, 0.0], [0.0, 8.0, 1.0]])
        assert hungarian(-overlap) == [(0, 0), (1, 1)]

    def test_rectangular_tall_matches_every_column(self):
        overlap = np.array([[10.0, 0.0], [0.0, 1.0], [0.0, 8.0]])
        assert hungarian(-overlap) == [(0, 0), (2, 1)]

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeMismatch):
            hungarian(np.ones(3))
        with pytest.raises(ShapeMismatch):
            hungarian(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cost(self, bad):
        cost = np.zeros((3, 4))
        cost[1, 2] = bad
        with pytest.raises(NonFiniteValue):
            hungarian(cost)
        with pytest.raises(NonFiniteValue):
            hungarian(cost.T)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_cost_has_no_pairs(self, shape):
        assert hungarian(np.zeros(shape)) == []

    def test_constant_cost_gives_identity(self):
        assert hungarian(np.zeros((3, 5))) == [(0, 0), (1, 1), (2, 2)]
        assert hungarian(np.zeros((5, 3))) == [(0, 0), (1, 1), (2, 2)]


def _oracle_corpus(seed=11, per_kind=1000):
    """Seeded costs up to 9x9, wide and tall: uniform, small-integer (many
    ties), and negated sparse overlaps shaped as `evaluate` builds them."""
    rng = np.random.default_rng(seed)
    for _ in range(per_kind):
        rows, cols = (int(d) for d in rng.integers(1, 10, size=2))
        yield rng.random((rows, cols))
        yield rng.integers(0, 4, size=(rows, cols)).astype(np.float64)
        k = int(rng.integers(1, 8))
        steps = int(rng.integers(1, 10))
        overlap = np.zeros((k, max(k, steps)))
        hits = rng.random(overlap.shape) < 0.25
        overlap[hits] = rng.integers(1, 40, size=int(hits.sum()))
        yield -overlap


class TestHungarianAgainstScipy:
    def test_same_pairs_as_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        shapes = set()
        count = 0
        for cost in _oracle_corpus():
            rows, cols = optimize.linear_sum_assignment(cost)
            assert hungarian(cost) == sorted(zip(rows.tolist(), cols.tolist())), cost
            shapes.add(np.sign(cost.shape[0] - cost.shape[1]))
            count += 1
        assert count == 3000 and shapes == {-1, 0, 1}


def test_cli_import_loads_no_scipy():
    # scipy.optimize took most of the package's import time; only tests and
    # perfbench may load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import rgwot.cli, sys; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestEvaluate:
    def test_perfect_prediction_scores_one(self):
        gt = [seq("a", [0, 0, 1, 2]), seq("b", [2, 1, 1, 0])]
        report = evaluate(gt, gt, k=3)
        assert report.macro.f1 == 1.0
        assert report.macro.iou == 1.0
        assert report.macro.precision == 1.0
        assert all(m.f1 == 1.0 for m in report.per_step.values())

    def test_label_permutation_is_free(self):
        gt = [seq("a", [0, 0, 1, 1, 2, 2])]
        pred = [seq("a", [2, 2, 0, 0, 1, 1])]
        report = evaluate(pred, gt, k=3)
        assert report.macro.f1 == 1.0
        assert dict(report.matching) == {0: 1, 1: 2, 2: 0}

    def test_hand_computed_macro(self):
        # matched identity; step0: tp=1 fp=0 fn=1 -> f1=2/3
        # step1: tp=2 fp=1 fn=0 -> f1=4/5; macro = (2/3+4/5)/2 = 11/15
        gt = [seq("a", [0, 0, 1, 1])]
        pred = [seq("a", [0, 1, 1, 1])]
        report = evaluate(pred, gt, k=2)
        assert report.macro.f1 == pytest.approx(11.0 / 15.0, abs=1e-12)

    def test_background_frames_excluded_by_default(self):
        gt = [seq("a", [0, -1, -1, 1])]
        pred_junk_on_bg = [seq("a", [0, 1, 0, 1])]
        report = evaluate(pred_junk_on_bg, gt, k=2)
        assert report.macro.f1 == 1.0  # bg frames never counted

    def test_predicted_background_on_real_frame_is_a_miss(self):
        gt = [seq("a", [0, 0, 1, 1])]
        pred = [seq("a", [-1, 0, 1, 1])]
        report = evaluate(pred, gt, k=2)
        m = report.per_step[0]
        assert (m.tp, m.fp, m.fn) == (1, 0, 1)

    def test_absent_gt_step_not_averaged(self):
        gt = [seq("a", [0, 0, 1, 1])]
        pred = [seq("a", [0, 0, 1, 1])]
        report = evaluate(pred, gt, k=5)
        assert sorted(report.per_step) == [0, 1]
        assert report.macro.f1 == 1.0

    def test_fully_crossed_labels_are_repaired(self):
        gt = [seq("a", [0, 0, 0, 1])]
        pred = [seq("a", [1, 1, 1, 0])]  # a pure relabeling
        report = evaluate(pred, gt, k=2)
        assert report.macro.f1 == 1.0

    def test_zero_denominators_score_zero(self):
        # predictions never use two of the three cluster ids, so two gt
        # steps are matched to empty clusters: all counts zero there
        gt = [seq("a", [0, 0, 1, 2])]
        pred = [seq("a", [0, 0, 0, 0])]
        report = evaluate(pred, gt, k=3)
        starved = [m for s, m in report.per_step.items() if s != 0]
        assert len(starved) == 2
        for m in starved:
            assert (m.precision, m.recall, m.f1, m.iou) == (0.0, 0.0, 0.0, 0.0)
            assert m.tp == 0 and m.fp == 0 and m.fn > 0

    def test_fewer_clusters_than_steps_leaves_steps_unmatched(self):
        gt = [seq("a", [0, 0, 1, 1, 2, 2, 2, 3, 3, 4])]
        pred = [seq("a", [0, 0, 1, 1, 2, 2, 2, 2, 2, 2])]
        report = evaluate(pred, gt, k=3)
        assert report.matching == ((0, 0), (1, 1), (2, 2))
        assert sorted(report.per_step) == [0, 1, 2, 3, 4]
        assert report.per_step[2].f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.per_step[3].f1 == report.per_step[4].f1 == 0.0
        assert report.macro.f1 == pytest.approx(8.0 / 15.0, abs=1e-12)

    def test_k_below_one_is_a_config_error(self):
        gt = [seq("a", [0, 0, 1, 1])]
        with pytest.raises(ConfigError):
            evaluate(gt, gt, k=0)

    def test_unknown_video(self):
        with pytest.raises(LengthMismatch):
            evaluate([seq("ghost", [0])], [seq("a", [0])], k=1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([seq("a", [0, 1])], [seq("a", [0, 1, 1])], k=2)

    def test_iou_never_exceeds_f1(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(2, 6))
            gt = [seq("a", rng.integers(0, k, size=n))]
            pred = [seq("a", rng.integers(0, k, size=n))]
            report = evaluate(pred, gt, k=k)
            for m in report.per_step.values():
                assert m.iou <= m.f1 + 1e-12

    def test_matching_maximizes_total_overlap(self, rng):
        # the chosen matching should never be beaten by any permutation
        for _ in range(30):
            k = 4
            n = 60
            gt_arr = rng.integers(0, k, size=n)
            pred_arr = rng.integers(0, k, size=n)
            report = evaluate([seq("a", pred_arr)], [seq("a", gt_arr)], k=k)
            got = sum(
                np.count_nonzero((pred_arr == p) & (gt_arr == g))
                for p, g in report.matching
            )
            best = max(
                sum(np.count_nonzero((pred_arr == p) & (gt_arr == perm[p]))
                    for p in range(k))
                for perm in itertools.permutations(range(k))
            )
            assert got == best


class TestMetricsCsv:
    def _report(self) -> MetricsReport:
        gt = [seq("a", [0, 0, 1, 1])]
        pred = [seq("a", [0, 1, 1, 1])]
        return evaluate(pred, gt, k=2)

    def test_rows_and_macro(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self._report(), path, "toy", "run 5")
        lines = path.read_text().splitlines()
        assert lines[1] == "task,keystep,precision,recall,f1,iou"
        assert len(lines) == 5  # comment + header + step rows + macro
        assert lines[-1].startswith("toy,macro,")
        macro_f1 = float(lines[-1].split(",")[4])
        assert macro_f1 == pytest.approx(11.0 / 15.0, abs=1e-6)

    def test_header_comment(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self._report(), path, "toy", header_comment="run 5")
        assert path.read_text().startswith("# run 5\n")

    def test_step_rows_parse_back(self, tmp_path):
        path = tmp_path / "metrics.csv"
        report = self._report()
        write_metrics_csv(report, path, "toy", "run 5")
        for line in path.read_text().splitlines()[2:-1]:
            task, step, prec, rec, f1, iou = line.split(",")
            assert task == "toy"
            m = report.per_step[int(step)]
            assert float(f1) == pytest.approx(m.f1, abs=1e-6)
            assert float(iou) == pytest.approx(m.iou, abs=1e-6)
