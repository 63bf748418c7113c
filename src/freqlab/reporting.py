"""CSV and static-SVG emitters for experiment runs, and the stopwatch behind
their wall-clock columns.

Floats are printed with 17 significant digits so a CSV re-read reproduces the
in-memory values exactly. The SVG writer is hand-rolled: a self-contained
line chart with no external assets and byte-deterministic output. Every file
is written through write_atomic, so an interrupted write never leaves a
partial file under the final name.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from typing import Callable, Sequence
from xml.sax.saxutils import escape

import numpy as np

__all__ = ["format_value", "stopwatch", "write_atomic", "write_csv", "write_svg_lines"]


def stopwatch(timing: bool) -> Callable[[], float]:
    """A clock reading milliseconds since this call, or always 0.0 when timing
    is off, so that untimed runs write byte-identical wall-clock columns."""
    if not timing:
        return lambda: 0.0
    t0 = time.perf_counter()
    return lambda: (time.perf_counter() - t0) * 1e3


def write_atomic(path: str | Path, text: str) -> Path:
    """Write text to a temp file next to path, then os.replace it into place:
    path ends up with all of text or keeps what it held before."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return write_atomic(path, "\n".join(lines) + "\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 55  # margins: left/right/top/bottom


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e, hi_e = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_e - lo_e) // 6)
        return [float(e) for e in range(lo_e, hi_e + 1, step)]
    if hi == lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        out.append(t)
        t += step
    return out


def write_svg_lines(
    path: str | Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = True,
) -> Path:
    """Write one polyline per (label, xs, ys) series.

    With log_y, nonpositive values are clipped to a tenth of the smallest
    positive value in the data (the scale is for ratios, not signs).
    """
    all_x = [float(x) for _, xs, _ in series for x in xs]
    if not all_x:
        raise ValueError("no data to plot")
    if log_y:
        positive = [y for _, _, ys in series for y in map(float, ys) if y > 0 and math.isfinite(y)]
        floor = (min(positive) / 10) if positive else 1e-16

    def scale(y) -> float | None:
        """Plotted y: clipped log10 with log_y, else y; None drops the point."""
        y = float(y)
        if log_y:
            return math.log10(max(y if math.isfinite(y) else floor, floor))
        return y if math.isfinite(y) else None

    all_y = [y for _, _, ys in series for y in map(scale, ys) if y is not None]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi, log=False):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi, log=log_y):
        y = py(t)
        label = f"1e{t:g}" if log_y else f"{t:g}"
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{label}</text>')
    if title:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 14}" text-anchor="middle" '
                   f'font-size="15">{escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{escape(ylabel)}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = []  # a loop: as a list comprehension, relax's 89k-point chart peaked 2.5 MB higher in RSS
        for x, y in zip(xs, map(scale, ys)):
            if y is not None:
                coords.append(f"{px(float(x)):.2f},{py(y):.2f}")
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(coords)}"/>')
        ly = _MT + 16 + 18 * i
        out.append(f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 34}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR + 40}" y="{ly}">{escape(str(label))}</text>')
    out.append("</svg>")
    return write_atomic(path, "\n".join(out) + "\n")
