"""Plain-text and SVG artifacts: coupling dumps, segmentation bands, reports.

SVGs are written by hand (rect primitives only) so outputs stay byte-stable
across runs and trivially parseable as XML.
"""

from __future__ import annotations

import colorsys
from pathlib import Path

import numpy as np

from .data_model import BACKGROUND


def step_palette(k: int) -> list[str]:
    """K well-spread hex colors; background uses a fixed grey."""
    colors = []
    for i in range(k):
        r, g, b = colorsys.hsv_to_rgb((i / max(k, 1)) * 0.85, 0.65, 0.9)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


BACKGROUND_COLOR = "#bbbbbb"
# pixel side of one coupling cell in alignment_svg
_CELL = 6
# pixel height of one band and width of every band in segmentation_svg
_ROW_HEIGHT = 22
_WIDTH = 720


def write_coupling_csv(T: np.ndarray, path) -> None:
    np.savetxt(path, T, delimiter=",", fmt="%.17g")


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,objective\n")
        for i, v in enumerate(trace, start=1):
            fh.write(f"{i},{v:.17g}\n")


def _write_svg(path, width, height, body: list[str]) -> None:
    """The XML prolog and one width x height <svg> element around the body lines."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             *body, "</svg>"]
    Path(path).write_text("\n".join(lines) + "\n")


def alignment_svg(T: np.ndarray, path) -> None:
    """Heat band of a coupling; darker cells carry more mass."""
    n, m = T.shape
    top = float(T.max()) if T.size else 1.0
    top = top if top > 0 else 1.0
    lines = [f'<rect width="{m * _CELL}" height="{n * _CELL}" fill="#ffffff"/>']
    for i in range(n):
        for j in range(m):
            shade = int(255 * (1.0 - T[i, j] / top))
            if shade >= 250:
                continue  # skip near-white cells, keeps files small
            color = f"#{shade:02x}{shade:02x}ff"
            lines.append(
                f'<rect x="{j * _CELL}" y="{i * _CELL}" width="{_CELL}" height="{_CELL}" '
                f'fill="{color}"/>'
            )
    _write_svg(path, m * _CELL, n * _CELL, lines)


def segmentation_svg(rows: list[tuple[str, np.ndarray]], k: int, path) -> None:
    """One colored band per (name, labels) row; BACKGROUND renders grey."""
    palette = step_palette(k)
    lines = []
    for r, (name, labels) in enumerate(rows):
        labels = labels.tolist()
        n = len(labels)
        y = r * _ROW_HEIGHT
        lines.append(f"<!-- {name} -->")
        start = 0
        for i in range(1, n + 1):
            if i < n and labels[i] == labels[start]:
                continue
            label = labels[start]
            color = BACKGROUND_COLOR if label == BACKGROUND else palette[label % k]
            x0 = start * _WIDTH / n
            x1 = i * _WIDTH / n
            lines.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{x1 - x0:.2f}" '
                f'height="{_ROW_HEIGHT - 2}" fill="{color}"/>'
            )
            start = i
    _write_svg(path, _WIDTH, _ROW_HEIGHT * len(rows), lines)


def write_order_report(result, path, header: str) -> None:
    """Ranked task orders plus the per-video orders."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        fh.write("ranked task orders (order : videos):\n")
        for order, freq in result.task_order:
            fh.write("  " + " -> ".join(str(s) for s in order) + f" : {freq}\n")
        fh.write("per-video orders:\n")
        for seq, order in zip(result.labels, result.orders):
            text = " -> ".join(str(s) for s in order) if order else "(all background)"
            fh.write(f"  {seq.video_id}: {text}\n")
