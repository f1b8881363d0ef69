"""End-to-end command line tests, run in-process through main()."""

import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rgwot import cli, priors, segmentation, solver, training
from rgwot.cli import _HYPER_FLAGS, main
from rgwot.data_model import Hyperparams, load_labels, load_manifest, write_rgwf
from rgwot.encoder import load_encoder
from rgwot.errors import MalformedHeader
from rgwot.solver import solve_fgwot
from rgwot.synth import make_task, write_task

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    """A small task on disk: 4 videos, 3 steps, 40-48 frames each."""
    root = tmp_path_factory.mktemp("task")
    task = make_task("toy", k=3, feature_dim=6, videos=4,
                     frames_per_video=(40, 48), noise_sigma=0.05, seed=3)
    manifest_path = write_task(task, root)
    return manifest_path


TRAIN_FLAGS = ["--epochs", "2", "--sampled-frames", "12", "--sigma", "8",
               "--zeta", "0", "--seed", "0"]


@pytest.fixture(scope="module")
def trained_dir(task_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--manifest", str(task_dir), "--out", str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return out


class TestSynth:
    def test_writes_loadable_task(self, tmp_path, capsys):
        out = tmp_path / "easy"
        rc = main(["synth", "--profile", "easy", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        manifest = load_manifest(out / "manifest.json")
        assert manifest.k == 5
        assert len(manifest.videos) >= 2
        for entry in manifest.videos:
            assert entry.features_path.exists()
            assert entry.labels_path is not None and entry.labels_path.exists()

    def test_same_seed_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["synth", "--profile", "hard", "--out", str(tmp_path / name),
                       "--seed", "5"])
            assert rc == 0
        a = sorted((tmp_path / "a").iterdir())
        b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        main(["synth", "--profile", "easy", "--out", str(tmp_path / "s0"), "--seed", "0"])
        main(["synth", "--profile", "easy", "--out", str(tmp_path / "s1"), "--seed", "1"])
        m0 = load_manifest(tmp_path / "s0" / "manifest.json")
        m1 = load_manifest(tmp_path / "s1" / "manifest.json")
        assert m0.videos[0].features_path.read_bytes() \
            != m1.videos[0].features_path.read_bytes()

    def test_unknown_profile_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--profile", "nope", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 2


class TestTrain:
    def test_writes_checkpoint_and_curve(self, trained_dir, task_dir):
        assert (trained_dir / "encoder.rgwf").exists()
        assert (trained_dir / "encoder.rgwf.json").exists()
        curve = (trained_dir / "loss_curve.csv").read_text().splitlines()
        assert curve[0].startswith("# hyperparams:")
        assert curve[1] == "step,align,reg_x,reg_y,total"
        assert len(curve) == 2 + 4  # 2 epochs x 2 pairs = 4 steps
        enc = load_encoder(trained_dir / "encoder.rgwf")
        assert (enc.feature_dim, enc.embed_dim) == (6, Hyperparams().embed_dim)

    def test_deterministic_given_seed(self, task_dir, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            rc = main(["train", "--manifest", str(task_dir), "--out", str(out)]
                      + TRAIN_FLAGS)
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "encoder.rgwf").read_bytes() \
            == (outs[1] / "encoder.rgwf").read_bytes()
        assert (outs[0] / "loss_curve.csv").read_text() \
            == (outs[1] / "loss_curve.csv").read_text()

    @pytest.mark.parametrize("zeta", ["0", "0.5", "1"])
    def test_prints_no_masked_line_at_any_zeta(self, task_dir, tmp_path, capsys, zeta):
        # training scores every sampled frame; zeta is only recorded
        rc = main(["train", "--manifest", str(task_dir), "--out", str(tmp_path)]
                  + TRAIN_FLAGS + ["--zeta", zeta])
        assert rc == 0
        captured = capsys.readouterr()
        assert not any(ln.startswith("masked") for ln in captured.out.splitlines())
        assert captured.err == ""

    def test_reports_inner_solves_capped(self, task_dir, tmp_path, capsys, monkeypatch):
        couplings = []

        def recorded(bundle, hyper):
            couplings.append(solve_fgwot(bundle, hyper))
            return couplings[-1]

        monkeypatch.setattr(training, "solve_fgwot", recorded)
        # at eps 0.02 the inner solves of this task converge too slowly for the cap
        rc = main(["train", "--manifest", str(task_dir), "--out", str(tmp_path)]
                  + TRAIN_FLAGS + ["--epsilon", "0.02"])
        assert rc == 0
        assert len(couplings) == 4  # 2 epochs x 2 pairs
        capped = sum(c.inner_capped for c in couplings)
        solves = sum(c.outer_iterations for c in couplings)
        worst = max(c.inner_violation for c in couplings)
        assert capped > 0  # at least one inner solve stops at the cap here
        assert f"inner solves capped {capped} of {solves}, worst inner violation {worst:.2e}" \
            in capsys.readouterr().out.splitlines()

    def test_dump_couplings_writes_per_step_files(self, task_dir, tmp_path):
        out = tmp_path / "dumped"
        rc = main(["train", "--manifest", str(task_dir), "--out", str(out),
                   "--dump-couplings"] + TRAIN_FLAGS)
        assert rc == 0
        dumps = sorted((out / "couplings").iterdir())
        # 2 epochs x 2 pairs = 4 steps, each with a coupling and a trace
        names = [p.name for p in dumps]
        assert names == [
            "step_00000.csv", "step_00000_trace.csv",
            "step_00001.csv", "step_00001_trace.csv",
            "step_00002.csv", "step_00002_trace.csv",
            "step_00003.csv", "step_00003_trace.csv",
        ]
        coupling = np.loadtxt(dumps[0], delimiter=",")
        assert coupling.shape == (13, 13)  # 12 sampled frames + virtual
        assert coupling.sum() == pytest.approx(1.0, abs=1e-6)

    def test_missing_manifest_errors(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "out")] + TRAIN_FLAGS)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_hyperparameter_errors(self, task_dir, tmp_path, capsys):
        rc = main(["train", "--manifest", str(task_dir),
                   "--out", str(tmp_path / "out"), "--zeta", "1.5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_infinite_learning_rate_errors_without_a_warning(self, task_dir, tmp_path,
                                                             capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--manifest", str(task_dir),
                       "--out", str(tmp_path / "out"), "--lr", "inf"] + TRAIN_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "learning_rate" in err
        assert "Warning" not in err

    def test_negative_beta_errors(self, task_dir, trained_dir, tmp_path, capsys):
        rc = main(["segment", "--manifest", str(task_dir),
                   "--checkpoint", str(trained_dir / "encoder.rgwf"),
                   "--out", str(tmp_path / "seg"), "--beta", "-1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAlign:
    def test_writes_coupling_trace_and_svg(self, task_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "align"
        rc = main(["align", "--manifest", str(task_dir),
                   "--checkpoint", str(trained_dir / "encoder.rgwf"),
                   "--pair", "video_00", "video_01", "--out", str(out)])
        assert rc == 0
        status = capsys.readouterr().out
        assert "outer iterations" in status
        assert "inner solves capped, worst inner violation" in status
        coupling = np.loadtxt(out / "coupling_video_00_video_01.csv", delimiter=",")
        assert coupling.ndim == 2
        assert coupling.sum() == pytest.approx(1.0, abs=1e-6)
        trace = (out / "trace_video_00_video_01.csv").read_text().splitlines()
        assert trace[0] == "iteration,objective"
        assert len(trace) >= 2
        svg = (out / "alignment_video_00_video_01.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "<rect" in svg

    def test_unknown_video_errors(self, task_dir, trained_dir, tmp_path, capsys):
        rc = main(["align", "--manifest", str(task_dir),
                   "--checkpoint", str(trained_dir / "encoder.rgwf"),
                   "--pair", "video_00", "video_99", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown video" in capsys.readouterr().err


SEGMENT_FLAGS = ["--beta", "0.5", "--zeta", "0", "--no-masks", "--seed", "0"]


@pytest.fixture(scope="module")
def segmented(task_dir, trained_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("segmented")
    rc = main(["segment", "--manifest", str(task_dir),
               "--checkpoint", str(trained_dir / "encoder.rgwf"),
               "--out", str(out)] + SEGMENT_FLAGS)
    assert rc == 0
    return out


class TestSegmentAndEval:
    def test_writes_labels_for_every_video(self, segmented, task_dir):
        manifest = load_manifest(task_dir)
        for entry in manifest.videos:
            path = segmented / f"{entry.video_id}.labels.txt"
            assert path.exists()
            seq = load_labels(path, entry.video_id)
            n_frames = load_labels(entry.labels_path, entry.video_id).labels.size
            assert seq.labels.size == n_frames
            assert np.all(seq.labels >= -1)
            assert np.all(seq.labels < manifest.k)

    def test_writes_report_svg_and_metrics(self, segmented):
        report = (segmented / "order_report.txt").read_text()
        assert report.splitlines()[0].startswith("# task=toy")
        assert "ranked task orders" in report
        assert "per-video orders" in report
        svg = (segmented / "segmentation.svg").read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<!--") >= 8  # predicted + gt band per video
        metrics = (segmented / "metrics.csv").read_text().splitlines()
        assert metrics[1] == "task,keystep,precision,recall,f1,iou"
        assert any(row.startswith("toy,macro,") for row in metrics)

    def test_deterministic_given_seed(self, segmented, task_dir, trained_dir, tmp_path):
        out = tmp_path / "again"
        rc = main(["segment", "--manifest", str(task_dir),
                   "--checkpoint", str(trained_dir / "encoder.rgwf"),
                   "--out", str(out)] + SEGMENT_FLAGS)
        assert rc == 0
        assert (out / "metrics.csv").read_text() \
            == (segmented / "metrics.csv").read_text()
        manifest = load_manifest(task_dir)
        for entry in manifest.videos:
            name = f"{entry.video_id}.labels.txt"
            assert (out / name).read_text() == (segmented / name).read_text()

    def test_default_segment_makes_no_solve(self, task_dir, trained_dir, tmp_path,
                                            monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("segment solved an alignment")

        for module in (solver, training, cli):
            monkeypatch.setattr(module, "solve_fgwot", refused)
        for module in (priors, training, cli):
            monkeypatch.setattr(module, "build_cost_bundle", refused)
        assert main(["segment", "--manifest", str(task_dir),
                     "--checkpoint", str(trained_dir / "encoder.rgwf"),
                     "--out", str(tmp_path), "--seed", "0"]) == 0

    def test_reports_frames_flagged_as_background(self, task_dir, trained_dir, tmp_path,
                                                  capsys):
        argv = ["segment", "--manifest", str(task_dir),
                "--checkpoint", str(trained_dir / "encoder.rgwf"), "--seed", "0"]
        out = tmp_path / "trimmed"
        assert main(argv + ["--out", str(out)]) == 0
        # the flagged frames are the ones labelled background
        labels = [load_labels(out / f"{e.video_id}.labels.txt", e.video_id).labels
                  for e in load_manifest(task_dir).videos]
        flagged = sum(int(np.count_nonzero(seq == -1)) for seq in labels)
        frames = sum(seq.size for seq in labels)
        assert 0 < flagged < frames / 2
        assert f"flagged {flagged} of {frames} frames as background" \
            in capsys.readouterr().out.splitlines()
        for flags in (["--no-masks"], ["--zeta", "0"]):
            assert main(argv + ["--out", str(tmp_path / "plain")] + flags) == 0
            assert not any(ln.startswith("flagged")
                           for ln in capsys.readouterr().out.splitlines())

    def test_trim_reads_only_whether_zeta_is_positive(self, task_dir, trained_dir, tmp_path,
                                                      capsys):
        argv = ["segment", "--manifest", str(task_dir),
                "--checkpoint", str(trained_dir / "encoder.rgwf"), "--seed", "0"]
        outputs, lines = [], []
        for zeta in ("0.01", "1"):
            out = tmp_path / f"zeta-{zeta}"
            assert main(argv + ["--zeta", zeta, "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            lines.append([ln for ln in capsys.readouterr().out.splitlines()
                          if ln.startswith("flagged")])
        assert outputs[0] == outputs[1]
        assert {"segmentation.svg", "metrics.csv", "video_00.labels.txt"} <= set(outputs[0])
        assert lines[0] == lines[1] and len(lines[0]) == 1

    @pytest.mark.parametrize("flags, trim", [([], "on"), (["--zeta", "0"], "off"),
                                             (["--no-masks"], "off")])
    def test_header_names_only_what_segment_reads(self, flags, trim, task_dir, trained_dir,
                                                  tmp_path):
        out = tmp_path / "seg"
        assert main(["segment", "--manifest", str(task_dir),
                     "--checkpoint", str(trained_dir / "encoder.rgwf"),
                     "--out", str(out), "--beta", "0.5", "--seed", "4"] + flags) == 0
        report = (out / "order_report.txt").read_text().splitlines()[0]
        metrics = (out / "metrics.csv").read_text().splitlines()[0]
        assert report == metrics == f"# task=toy k=3 beta=0.5 seed=4 trim={trim}"

    def test_reports_frames_relabelled_by_smoothing(self, task_dir, trained_dir, tmp_path,
                                                     capsys, monkeypatch):
        frames = sum(load_labels(e.labels_path, e.video_id).labels.size
                     for e in load_manifest(task_dir).videos)
        argv = ["segment", "--manifest", str(task_dir),
                "--checkpoint", str(trained_dir / "encoder.rgwf"),
                "--zeta", "0", "--no-masks", "--seed", "0"]
        # at beta 0 every frame keeps its unary argmin
        assert main(argv + ["--beta", "0", "--out", str(tmp_path / "raw")]) == 0
        assert f"smoothing relabelled 0 of {frames} frames" \
            in capsys.readouterr().out.splitlines()
        solved = []
        solve = segmentation.alpha_expansion

        def recorded(problem):
            labels, trace = solve(problem)
            solved.append((problem.unary, labels.copy()))
            return labels, trace

        monkeypatch.setattr(segmentation, "alpha_expansion", recorded)
        # at this beta each video takes one label throughout
        assert main(argv + ["--beta", "1e6", "--out", str(tmp_path / "flat")]) == 0
        assert len(solved) == 4
        assert all(np.unique(labels).size == 1 for _, labels in solved)
        relabelled = sum(int(np.count_nonzero(labels != np.argmin(unary, axis=1)))
                         for unary, labels in solved)
        assert relabelled > 0
        assert f"smoothing relabelled {relabelled} of {frames} frames" \
            in capsys.readouterr().out.splitlines()

    def test_segment_without_checkpoint_errors(self, task_dir, tmp_path, capsys):
        rc = main(["segment", "--manifest", str(task_dir), "--out", str(tmp_path)])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_eval_with_predictions_directory(self, task_dir, tmp_path, capsys):
        # feed the ground truth back in: metrics must be perfect
        manifest = load_manifest(task_dir)
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in manifest.videos:
            (preds / f"{entry.video_id}.labels.txt").write_bytes(
                entry.labels_path.read_bytes()
            )
        out = tmp_path / "eval"
        rc = main(["eval", "--manifest", str(task_dir), "--pred-dir", str(preds),
                   "--out", str(out)])
        assert rc == 0
        assert "macro F1 1.0000" in capsys.readouterr().out
        rows = (out / "metrics.csv").read_text().splitlines()
        macro = [r for r in rows if r.startswith("toy,macro,")]
        assert macro == ["toy,macro,1.000000,1.000000,1.000000,1.000000"]

    def test_eval_metrics_header_names_task_and_k(self, segmented, task_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--manifest", str(task_dir), "--pred-dir", str(segmented),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.csv").read_text().startswith("# task=toy k=3\n")

    def test_eval_with_fewer_clusters_than_steps(self, task_dir, tmp_path, capsys):
        # one cluster for all frames: it overlaps step 2, which k=2 has no row for
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in load_manifest(task_dir).videos:
            n_frames = load_labels(entry.labels_path).labels.size
            (preds / f"{entry.video_id}.labels.txt").write_text("0\n" * n_frames)
        rc = main(["eval", "--manifest", str(task_dir), "--pred-dir", str(preds),
                   "--out", str(tmp_path / "eval"), "--k", "2"])
        assert rc == 0
        assert "macro F1" in capsys.readouterr().out

    def test_eval_stops_on_ids_the_k_does_not_cover(self, task_dir, tmp_path, capsys):
        # id 3 on the k-3 task: evaluate would score it as unmatched, silently
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in load_manifest(task_dir).videos:
            n_frames = load_labels(entry.labels_path).labels.size
            (preds / f"{entry.video_id}.labels.txt").write_text("3\n" + "0\n" * (n_frames - 1))
        argv = ["eval", "--manifest", str(task_dir), "--pred-dir", str(preds)]
        assert main(argv + ["--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "id 3" in err and "--k 4" in err
        assert not (tmp_path / "eval" / "metrics.csv").exists()
        assert main(argv + ["--out", str(tmp_path / "eval-k4"), "--k", "4"]) == 0
        assert "macro F1" in capsys.readouterr().out

    def test_eval_without_inputs_errors(self, task_dir, tmp_path, capsys):
        rc = main(["eval", "--manifest", str(task_dir), "--out", str(tmp_path)])
        assert rc == 2
        assert "--pred-dir" in capsys.readouterr().err


@pytest.mark.parametrize("removed", [
    "segment --epochs 5", "segment --sigma 1", "segment --alpha 0.5", "segment --epsilon 0.1",
    "segment --rho 1", "segment --r 0.1", "segment --no-virtual",
    "align --seed 0", "align --zeta 0",
    "align --k 3", "train --k 3", "eval --checkpoint CKPT", "eval --beta 1", "eval --seed 0",
])
def test_flag_the_command_does_not_read_is_a_usage_error(removed, task_dir, trained_dir,
                                                          segmented, tmp_path, capsys):
    ckpt = str(trained_dir / "encoder.rgwf")
    command, *flag = removed.replace("CKPT", ckpt).split()
    rest = {
        "train": TRAIN_FLAGS,
        "align": ["--checkpoint", ckpt, "--pair", "video_00", "video_01"],
        "segment": ["--checkpoint", ckpt] + SEGMENT_FLAGS,
        "eval": ["--pred-dir", str(segmented)],
    }[command]
    rc = main([command, "--manifest", str(task_dir), "--out", str(tmp_path / "out")]
              + rest + flag)
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _argv_reading_bad_file(case, task_dir, trained_dir, tmp_path):
    """A command line whose run reads one missing or malformed outside file."""
    manifest, ckpt = task_dir, trained_dir / "encoder.rgwf"
    out = ["--out", str(tmp_path / "out")]
    if case == "missing-checkpoint":
        ckpt = tmp_path / "missing.rgwf"
    elif case in ("sidecar-without-hidden-dim", "sidecar-not-json"):
        meta = json.loads((trained_dir / "encoder.rgwf.json").read_text())
        del meta["hidden_dim"]
        text = json.dumps(meta) if case == "sidecar-without-hidden-dim" else "{not json"
        ckpt = tmp_path / "encoder.rgwf"
        ckpt.write_bytes((trained_dir / "encoder.rgwf").read_bytes())
        (tmp_path / "encoder.rgwf.json").write_text(text)
    elif case in ("missing-pred-dir", "prediction-not-utf8"):
        preds = tmp_path / "preds"
        if case == "prediction-not-utf8":
            preds.mkdir()
            first = load_manifest(task_dir).videos[0].video_id
            (preds / f"{first}.labels.txt").write_bytes(b"\xff\xfe0\n")
        return ["eval", "--manifest", str(manifest), "--pred-dir", str(preds)] + out
    elif case in ("eval-manifest-without-labels", "labels-not-a-string"):
        labels = {"labels": 7} if case == "labels-not-a-string" else {}
        videos = [{"id": v.video_id, "features": str(v.features_path), **labels}
                  for v in load_manifest(task_dir).videos]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"task_name": "toy", "k": 3, "videos": videos}))
        if case == "eval-manifest-without-labels":
            # the task directory holds a <video_id>.labels.txt for every video
            return ["eval", "--manifest", str(manifest), "--pred-dir", str(task_dir.parent)] + out
    else:
        raw = {"manifest-not-utf8": b"\xff\xfe{",
               "manifest-not-an-object": b"5",
               "videos-not-a-list": b'{"task_name": "t", "k": 3, "videos": 5}',
               "video-entries-not-objects": b'{"task_name": "t", "k": 3, "videos": [5, 6]}',
               "features-not-a-string": b'{"task_name": "t", "k": 3, "videos": '
                                        b'[{"id": "a", "features": 5}, {"id": "b", "features": 5}]}'}
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(raw[case])
    return ["segment", "--manifest", str(manifest), "--checkpoint", str(ckpt)] + out


@pytest.mark.parametrize("case", [
    "missing-checkpoint", "sidecar-without-hidden-dim", "sidecar-not-json",
    "missing-pred-dir", "prediction-not-utf8", "manifest-not-utf8",
    "manifest-not-an-object", "videos-not-a-list", "video-entries-not-objects",
    "eval-manifest-without-labels", "features-not-a-string", "labels-not-a-string",
])
def test_bad_input_file_is_an_error_not_a_crash(case, task_dir, trained_dir, tmp_path,
                                                 capsys):
    rc = main(_argv_reading_bad_file(case, task_dir, trained_dir, tmp_path))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["negative-feature-dim", "zero-feature-dim"])
def test_sidecar_dimension_below_one_is_malformed(case, task_dir, trained_dir, tmp_path, capsys):
    # each sidecar promises as many parameters as its checkpoint holds
    ckpt = tmp_path / "encoder.rgwf"
    meta = json.loads((trained_dir / "encoder.rgwf.json").read_text())
    if case == "negative-feature-dim":
        ckpt.write_bytes((trained_dir / "encoder.rgwf").read_bytes())
        params = load_encoder(trained_dir / "encoder.rgwf").params().values()
        dims = (-1, sum(a.size for a in params) - 1, 1)
    else:
        write_rgwf(ckpt, np.ones((1, 43)))
        dims = (0, 10, 3)
    meta.update(zip(("feature_dim", "hidden_dim", "embed_dim"), dims))
    (tmp_path / "encoder.rgwf.json").write_text(json.dumps(meta))
    with pytest.raises(MalformedHeader, match="at least 1"):
        load_encoder(ckpt)
    rc = main(["segment", "--manifest", str(task_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "align", "segment", "eval"])
def test_out_naming_a_file_is_an_error_not_a_crash(command, task_dir, trained_dir, tmp_path,
                                                   capsys, monkeypatch):
    # align finds out before it solves
    monkeypatch.setattr(cli, "solve_fgwot", lambda *a: pytest.fail("solved before mkdir"))
    out = tmp_path / "taken"
    out.write_text("keep\n")
    ckpt = str(trained_dir / "encoder.rgwf")
    pair = [v.video_id for v in load_manifest(task_dir).videos[:2]]
    rest = {
        "synth": ["--profile", "easy"],
        "train": ["--manifest", str(task_dir)] + TRAIN_FLAGS,
        "align": ["--manifest", str(task_dir), "--checkpoint", ckpt, "--pair", *pair],
        "segment": ["--manifest", str(task_dir), "--checkpoint", ckpt],
        # the task directory holds a <video_id>.labels.txt for every video
        "eval": ["--manifest", str(task_dir), "--pred-dir", str(task_dir.parent)],
    }[command]
    rc = main([command, "--out", str(out)] + rest)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["synth", "train", "segment"])
def test_negative_seed_is_a_usage_error(command, task_dir, trained_dir, tmp_path, capsys):
    rest = {
        "synth": ["--profile", "easy"],
        "train": ["--manifest", str(task_dir)],
        "segment": ["--manifest", str(task_dir), "--checkpoint",
                    str(trained_dir / "encoder.rgwf")],
    }[command]
    rc = main([command, "--out", str(tmp_path / "out"), "--seed", "-1"] + rest)
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_command_is_usage_error(self, capsys):
        rc = main(["frobnicate"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        rc = main(["train", "--out", "/tmp/x"])
        capsys.readouterr()
        assert rc == 2


class TestHyperparamsSurface:
    def test_every_field_but_the_encoder_widths_has_a_flag(self):
        # criterion 4 sets embed_dim and hidden_dim through the API, to check
        # gradients on a small encoder; any other field that no flag sets is
        # a setting no command can turn, and belongs beside its one user
        names = {f.name for f in fields(Hyperparams)}
        dests = {spec["dest"] for spec in _HYPER_FLAGS.values()}
        assert names == dests | {"embed_dim", "hidden_dim"}

    def test_readme_table_lists_every_field_with_its_default(self):
        text = README.read_text()
        section = text.split("\n## Hyperparameters\n", 1)[1].split("\n## ", 1)[0]
        rows = dict(line.split("|")[1:3] for line in section.splitlines()
                    if line.startswith("| `"))
        table = {name.strip().strip("`"): default.strip() for name, default in rows.items()}
        assert set(table) == {f.name for f in fields(Hyperparams)}
        for f in fields(Hyperparams):
            default = table[f.name]
            if isinstance(f.default, bool):
                assert default == str(f.default), f.name
            else:
                assert float(default) == f.default, f.name
