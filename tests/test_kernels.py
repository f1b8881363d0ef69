"""Backend parity: the numba kernels must agree with the numpy reference,
and the environment flag must pick the backend at import."""

import os
import subprocess
import sys

import numpy as np
import pytest

from rgwot import kernels
from rgwot.priors import structural_priors

pytestmark = pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not importable")


def _random_problem(seed, n=7, m=9):
    rng = np.random.default_rng(seed)
    g = rng.random((n, m)) * 2.0
    logp = np.log(np.full(n, 1.0 / n))
    logq = np.log(np.full(m, 1.0 / m))
    return g, logp, logq


class TestSinkhornParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_potentials_agree(self, seed):
        g, logp, logq = _random_problem(seed)
        args = (g, logp, logq, 0.1, 60, 1e-12, np.zeros(7), np.zeros(9))
        f_np, g_np, it_np, v_np = kernels.sinkhorn_log_numpy(*args)
        f_nb, g_nb, it_nb, v_nb = kernels.sinkhorn_log_numba(*args)
        assert np.allclose(f_np, f_nb, atol=1e-10)
        assert np.allclose(g_np, g_nb, atol=1e-10)
        assert abs(v_np - v_nb) < 1e-10

    def test_warm_start_agrees(self):
        g, logp, logq = _random_problem(3)
        f0 = np.linspace(-0.1, 0.1, 7)
        g0 = np.linspace(0.2, -0.2, 9)
        out_np = kernels.sinkhorn_log_numpy(g, logp, logq, 0.08, 5, 0.0, f0, g0)
        out_nb = kernels.sinkhorn_log_numba(g, logp, logq, 0.08, 5, 0.0, f0, g0)
        assert np.allclose(out_np[0], out_nb[0], atol=1e-10)
        assert np.allclose(out_np[1], out_nb[1], atol=1e-10)


class TestBandedProductParity:
    @pytest.mark.parametrize("seed,n,m,r", [
        (0, 12, 12, 0.25), (1, 6, 15, 0.4), (2, 20, 8, 0.1), (3, 9, 9, 1.0),
    ])
    def test_agrees_with_numpy_and_dense(self, seed, n, m, r):
        rng = np.random.default_rng(seed)
        t = rng.random((n, m))
        bx, by = structural_priors(n, m, r)
        a_np = kernels.banded_gw_product_numpy(t, bx.radius, by.radius, bx.value)
        a_nb = kernels.banded_gw_product_numba(t, bx.radius, by.radius, bx.value)
        dense = bx.dense() @ t @ by.dense()
        assert np.allclose(a_np, a_nb, atol=1e-10)
        assert np.allclose(a_np, dense, atol=1e-10)

    def test_empty_band_is_zero(self):
        t = np.random.default_rng(0).random((5, 5))
        for fn in (kernels.banded_gw_product_numpy, kernels.banded_gw_product_numba):
            assert np.array_equal(fn(t, 0, 1, 50.0), np.zeros((5, 5)))


class TestCidmParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_loss_and_grad_agree(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 11, 4
        x = rng.normal(size=(n, d))
        pos = np.sort(rng.choice(50, size=n, replace=False)).astype(np.float64)
        keep = rng.random(n) > 0.2
        if not keep.any():
            keep[0] = True
        out_np = kernels.cidm_parts_numpy(x, pos, keep, 5.0, 2.0)
        out_nb = kernels.cidm_parts_numba(x, pos, keep, 5.0, 2.0)
        assert out_np[0] == pytest.approx(out_nb[0], rel=1e-12, abs=1e-12)
        assert np.allclose(out_np[1], out_nb[1], atol=1e-10)

    def test_collapsed_rows_agree(self):
        x = np.ones((5, 3))
        pos = np.arange(5, dtype=np.float64)
        keep = np.ones(5, dtype=bool)
        out_np = kernels.cidm_parts_numpy(x, pos, keep, 1.0, 2.0)
        out_nb = kernels.cidm_parts_numba(x, pos, keep, 1.0, 2.0)
        assert out_np[0] == pytest.approx(out_nb[0])
        assert np.array_equal(out_np[1], out_nb[1])


class TestBackendSelection:
    def _backend_in_subprocess(self, value):
        env = dict(os.environ)
        if value is None:
            env.pop("RGWOT_NUMBA", None)
        else:
            env["RGWOT_NUMBA"] = value
        out = subprocess.run(
            [sys.executable, "-c", "from rgwot.kernels import active_backend; print(active_backend())"],
            capture_output=True, text=True, env=env, check=True,
        )
        return out.stdout.strip()

    def test_flag_off_selects_numpy(self):
        assert self._backend_in_subprocess("0") == "numpy"
        assert self._backend_in_subprocess("off") == "numpy"

    def test_default_selects_numba(self):
        assert self._backend_in_subprocess(None) == "numba"
        assert self._backend_in_subprocess("1") == "numba"

