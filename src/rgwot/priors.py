"""Cost construction: visual cost, temporal prior, banded structural priors
and the virtual frame, all assembled by `build_cost_bundle`; and the
background mask of a coupling's row video, which `segment` applies.

The structural costs are never materialized for large inputs; they are kept
as band parameters and consumed by the banded kernel. `BandSpec.dense()`
exists for small instances and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRadius, ShapeMismatch, ZeroNormRow

_BAND_EPS = 1e-9  # guards floor(n * r) against cases like 50 * 0.02 -> 0.9999...


def _as_matrix(x) -> np.ndarray:
    data = getattr(x, "data", x)
    return np.asarray(data, dtype=np.float64)


def visual_cost(X, Y) -> np.ndarray:
    """Cosine distance matrix: C_ij = 1 - cos(x_i, y_j), in [0, 2]."""
    xm = _as_matrix(X)
    ym = _as_matrix(Y)
    if xm.shape[1] != ym.shape[1]:
        raise ShapeMismatch(f"embedding widths differ: {xm.shape[1]} vs {ym.shape[1]}")
    xn = np.linalg.norm(xm, axis=1)
    yn = np.linalg.norm(ym, axis=1)
    for norms, side in ((xn, "x"), (yn, "y")):
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise ZeroNormRow(int(bad[0]), side)
    c = 1.0 - (xm / xn[:, None]) @ (ym / yn[:, None]).T
    return np.clip(c, 0.0, 2.0)


def temporal_prior(n: int, m: int) -> np.ndarray:
    """R_ij = |i/N - j/M| with 1-based frame indices."""
    i = np.arange(1, n + 1, dtype=np.float64) / n
    j = np.arange(1, m + 1, dtype=np.float64) / m
    return np.abs(i[:, None] - j[None, :])


@dataclass(frozen=True)
class BandSpec:
    """Band parameters of one structural cost matrix.

    For the x side the matrix is `value` (= 1/r) when 1 <= |i-k| <= radius
    and zero elsewhere. For the y side it is zero on that band and one
    elsewhere, diagonal included.
    """

    size: int
    radius: int
    value: float
    side: str  # "x" or "y"

    def dense(self) -> np.ndarray:
        delta = np.abs(np.subtract.outer(np.arange(self.size), np.arange(self.size)))
        in_band = (delta >= 1) & (delta <= self.radius)
        if self.side == "x":
            return np.where(in_band, self.value, 0.0)
        return np.where(in_band, 0.0, 1.0)


def structural_priors(n: int, m: int, r: float) -> tuple[BandSpec, BandSpec]:
    """Band parameters of C_x (attractive, scaled 1/r) and C_y (repulsive)."""
    if not 0.0 < r <= 1.0:
        raise InvalidRadius(f"r must lie in (0, 1], got {r}")
    wx = int(np.floor(n * r + _BAND_EPS))
    wy = int(np.floor(m * r + _BAND_EPS))
    return (
        BandSpec(size=n, radius=wx, value=1.0 / r, side="x"),
        BandSpec(size=m, radius=wy, value=1.0, side="y"),
    )


@dataclass(frozen=True)
class CostBundle:
    """Everything the solver needs for one video pair.

    C_tilde = C + rho * R is the fused cost (visual cost C, temporal prior
    R) over real frames plus, when `virtual`, one virtual row and column.
    Band specs cover real frames only; the virtual frame carries no
    structural cost.
    """

    C_tilde: np.ndarray
    band_x: BandSpec
    band_y: BandSpec
    p: np.ndarray
    q: np.ndarray
    virtual: bool

    @property
    def n_real(self) -> int:
        return self.band_x.size

    @property
    def m_real(self) -> int:
        return self.band_y.size


def build_cost_bundle(X, Y, hyper) -> CostBundle:
    """Assemble the fused cost for a pair of embedding matrices.

    With hyper.use_virtual, one virtual frame per side is a background sink:
    its row and column of C_tilde hold the mean of the real entries. The
    marginals are uniform over all frames, virtual ones included.
    """
    c = visual_cost(X, Y)
    n, m = c.shape
    band_x, band_y = structural_priors(n, m, hyper.r)
    c_tilde = c + hyper.rho * temporal_prior(n, m)
    if hyper.use_virtual:
        # the mean of the contiguous real block: over a strided view of the
        # augmented matrix it can round differently
        augmented = np.full((n + 1, m + 1), float(c_tilde.mean()))
        augmented[:n, :m] = c_tilde
        c_tilde = augmented
    rows, cols = c_tilde.shape
    return CostBundle(C_tilde=c_tilde, band_x=band_x, band_y=band_y,
                      p=np.full(rows, 1.0 / rows), q=np.full(cols, 1.0 / cols),
                      virtual=hyper.use_virtual)


def background_mask(coupling, zeta: float) -> np.ndarray:
    """Flag the row video's frames with no confident real match in the column video.

    A frame's score is its largest matching probability with any real frame
    on the other side: max over real columns of T_ij divided by the full row
    mass (virtual column included). The frame is background when that
    probability stays below zeta, i.e. not even the best candidate claims a
    zeta share of the row. zeta = 0 disables masking: a probability can
    never fall below zero. Returns one boolean per real row.
    """
    t, real = coupling.T, coupling.real
    n = real.shape[0]
    row_total = t[:n, :].sum(axis=1)
    row_score = real.max(axis=1) / np.where(row_total > 0, row_total, 1.0)
    return row_score < zeta
