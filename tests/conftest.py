import numpy as np
import pytest

from rgwot.data_model import FrameFeatures, Hyperparams

_SCOREBOARD: list[str] = []


@pytest.fixture(scope="session")
def scoreboard():
    """Shared sink for the acceptance criteria pass/fail lines."""
    return _SCOREBOARD


def pytest_terminal_summary(terminalreporter):
    if _SCOREBOARD:
        terminalreporter.section("acceptance scoreboard")
        for line in sorted(_SCOREBOARD,
                           key=lambda s: int(s.split(":")[0].split()[-1])):
            terminalreporter.write_line(line)


def rel_err(got, want):
    """Relative error with a floor so zero targets do not blow up."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def desk_hyper():
    """Cheap dims for tests that run the training loop.

    zeta keeps its default: training scores every sampled frame whatever
    zeta is (zeta is segment's mask threshold).
    """
    return Hyperparams(
        sampled_frames=12,
        epochs=2,
        learning_rate=1e-3,
        sigma=8.0,
        embed_dim=6,
        hidden_dim=10,
    )


def toy_videos(rng, n_videos=4, frames=40, dim=7):
    """Step-structured feature videos small enough for fast training tests."""
    means = rng.normal(size=(3, dim)) * 3.0
    videos = []
    for v in range(n_videos):
        rows = []
        for step in range(3):
            rows.extend(means[step] + 0.1 * rng.normal(size=(frames // 3, dim)))
        while len(rows) < frames:
            rows.append(means[2] + 0.1 * rng.normal(size=dim))
        videos.append(FrameFeatures(f"v{v}", np.asarray(rows, dtype=np.float32)))
    return videos
