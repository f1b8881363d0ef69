import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgwot.data_model import (
    BACKGROUND,
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
from rgwot.errors import (
    ConfigError,
    LengthMismatch,
    MalformedHeader,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)


class TestRgwfFormat:
    def test_round_trip_identity(self, tmp_path, rng):
        m = rng.normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "a.rgwf"
        write_rgwf(path, m)
        back = read_rgwf(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 20), d=st.integers(1, 16), seed=st.integers(0, 10**6))
    def test_round_trip_random(self, tmp_path_factory, n, d, seed):
        m = np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)
        path = tmp_path_factory.mktemp("rt") / "m.rgwf"
        write_rgwf(path, m)
        assert np.array_equal(read_rgwf(path), m)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.rgwf"
        write_rgwf(path, np.zeros((3, 2), dtype=np.float32))
        raw = path.read_bytes()
        magic, version, n, d = struct.unpack_from("<4sIII", raw)
        assert (magic, version, n, d) == (b"RGWF", 1, 3, 2)
        assert len(raw) == 16 + 3 * 2 * 4

    def test_truncated_payload_is_shape_mismatch(self, tmp_path):
        path = tmp_path / "t.rgwf"
        write_rgwf(path, np.ones((3, 2), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ShapeMismatch):
            read_rgwf(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.rgwf"
        path.write_bytes(b"RGW")
        with pytest.raises(MalformedHeader):
            read_rgwf(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.rgwf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(MalformedHeader):
            read_rgwf(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.rgwf"
        path.write_bytes(struct.pack("<4sIII", b"RGWF", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(MalformedHeader):
            read_rgwf(path)

    def test_rejects_non_finite_on_write(self, tmp_path):
        bad = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(NonFiniteValue):
            write_rgwf(tmp_path / "n.rgwf", bad)

    def test_rejects_non_finite_on_read(self, tmp_path):
        path = tmp_path / "n.rgwf"
        payload = np.array([np.inf, 0.0], dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"RGWF", 1, 1, 2) + payload)
        with pytest.raises(NonFiniteValue):
            read_rgwf(path)

    def test_rejects_1d(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_rgwf(tmp_path / "d.rgwf", np.zeros(4))


class TestFrameTypes:
    def test_features_validation(self):
        with pytest.raises(ShapeMismatch):
            FrameFeatures("v", np.zeros((1, 3)))
        with pytest.raises(NonFiniteValue):
            FrameFeatures("v", np.array([[np.nan, 1.0], [0.0, 1.0]]))
        f = FrameFeatures("v", np.zeros((4, 3), dtype=np.float32))
        assert f.n_frames == 4 and f.feature_dim == 3

    def test_label_below_background_rejected(self):
        with pytest.raises(ParseError):
            LabelSequence("v", np.array([0, -2]))

    def test_save_load_features(self, tmp_path, rng):
        feats = FrameFeatures("clip", rng.normal(size=(6, 2)).astype(np.float32))
        save_features(feats, tmp_path / "clip.rgwf")
        back = load_features(tmp_path / "clip.rgwf")
        assert back.video_id == "clip"
        assert np.array_equal(back.data, feats.data)


class TestLabelsFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "x.labels.txt"
        path.write_text("0\n0\n1\n-1\n")
        seq = load_labels(path, "x")
        assert seq.labels.tolist() == [0, 0, 1, -1]
        assert seq.labels[3] == BACKGROUND

    def test_round_trip(self, tmp_path):
        seq = LabelSequence("v", np.array([2, -1, 0, 1]))
        save_labels(seq, tmp_path / "v.txt")
        assert load_labels(tmp_path / "v.txt", "v").labels.tolist() == [2, -1, 0, 1]

    def test_bad_line_names_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\nouch\n")
        with pytest.raises(ParseError, match=r"bad.txt:2"):
            load_labels(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1\n\n2\n")
        assert load_labels(path).labels.tolist() == [1, 2]


def _write_toy_task(tmp_path, rng, with_labels=True, n=5, k=2):
    entries = []
    for vid in ("a", "b"):
        feats = FrameFeatures(vid, rng.normal(size=(n, 3)).astype(np.float32))
        save_features(feats, tmp_path / f"{vid}.rgwf")
        labels_path = None
        if with_labels:
            labels_path = tmp_path / f"{vid}.txt"
            save_labels(LabelSequence(vid, rng.integers(0, k, size=n)), labels_path)
        entries.append(VideoEntry(vid, tmp_path / f"{vid}.rgwf", labels_path))
    manifest = TaskManifest("toy", k, tuple(entries))
    save_manifest(manifest, tmp_path / "manifest.json")
    return tmp_path / "manifest.json"


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        path = _write_toy_task(tmp_path, rng)
        m = load_manifest(path)
        assert m.task_name == "toy" and m.k == 2
        assert [v.video_id for v in m.videos] == ["a", "b"]
        assert m.entry("a").features_path.is_file()

    def test_relative_paths_resolved(self, tmp_path, rng):
        path = _write_toy_task(tmp_path, rng)
        doc = json.loads(path.read_text())
        assert doc["videos"][0]["features"] == "a.rgwf"
        m = load_manifest(path)
        load_task(m)

    def test_duplicate_ids(self):
        with pytest.raises(ParseError):
            TaskManifest("t", 2, (VideoEntry("a", "x"), VideoEntry("a", "y")))

    def test_needs_two_videos(self):
        with pytest.raises(ParseError):
            TaskManifest("t", 2, (VideoEntry("a", "x"),))

    def test_unknown_id(self, tmp_path, rng):
        m = load_manifest(_write_toy_task(tmp_path, rng))
        with pytest.raises(ParseError):
            m.entry("zz")

    def test_missing_features_file_names_path(self, tmp_path):
        doc = {"task_name": "t", "k": 2,
               "videos": [{"id": "a", "features": "gone.rgwf"},
                          {"id": "b", "features": "gone.rgwf"}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="gone.rgwf"):
            load_manifest(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"task_name": "t", "videos": []}))
        with pytest.raises(ParseError, match="k"):
            load_manifest(path)

    def test_boolean_k_is_rejected(self, tmp_path, rng):
        # JSON true is a Python int subclass; it must not load as k = 1
        path = _write_toy_task(tmp_path, rng)
        doc = json.loads(path.read_text())
        doc["k"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="k must be an integer"):
            load_manifest(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(bad)


class TestLoadTask:
    def test_loads_features_and_labels(self, tmp_path, rng):
        m = load_manifest(_write_toy_task(tmp_path, rng))
        features, labels = load_task(m)
        assert set(features) == {"a", "b"} and set(labels) == {"a", "b"}

    def test_labels_optional(self, tmp_path, rng):
        m = load_manifest(_write_toy_task(tmp_path, rng, with_labels=False))
        features, labels = load_task(m)
        assert set(features) == {"a", "b"} and labels == {}

    def test_length_mismatch(self, tmp_path, rng):
        path = _write_toy_task(tmp_path, rng, n=5)
        (tmp_path / "a.txt").write_text("0\n1\n")
        with pytest.raises(LengthMismatch):
            load_task(load_manifest(path))

    def test_label_value_exceeds_k(self, tmp_path, rng):
        path = _write_toy_task(tmp_path, rng, n=5, k=2)
        (tmp_path / "a.txt").write_text("0\n1\n2\n0\n0\n")
        with pytest.raises(ParseError):
            load_task(load_manifest(path))


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert h.k == 7 and h.sampled_frames == 32
        assert h.learning_rate == 1e-4
        assert h.sigma == 300.0 and h.lam == 2.0
        assert h.embed_dim == 128 and h.hidden_dim == 256
        assert h.xi == 1.0 and h.epsilon == 0.07 and h.zeta == 0.5
        assert h.alpha == 0.3 and h.r == 0.02 and h.rho == 0.35 and h.tau == 0.1

    @pytest.mark.parametrize("bad", [
        {"alpha": 1.5}, {"alpha": -0.1}, {"r": 0.0}, {"r": 1.2}, {"epsilon": 0.0},
        {"zeta": -0.2}, {"zeta": 1.5}, {"rho": -1.0}, {"tau": 0.0}, {"epochs": -1},
        {"k": 0}, {"sampled_frames": 1}, {"learning_rate": 0.0}, {"xi": -1.0},
        {"hidden_dim": 0}, {"lam": -1.0}, {"sigma": -1.0},
    ])
    def test_invalid_values(self, bad):
        with pytest.raises(ConfigError):
            Hyperparams(**bad)

    def test_updated_returns_new_validated_copy(self):
        h = Hyperparams()
        h2 = replace(h, alpha=0.5)
        assert h2.alpha == 0.5 and h.alpha == 0.3
        with pytest.raises(ConfigError):
            replace(h, alpha=2.0)
