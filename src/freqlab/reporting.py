"""CSV and static-SVG emitters for experiment runs, and the stopwatch behind
their wall-clock columns.

Floats are printed with 17 significant digits so a CSV re-read reproduces the
in-memory values exactly. The SVG writer is hand-rolled: a self-contained
line chart with no external assets and byte-deterministic output. Every file
is written through write_atomic, so an interrupted write never leaves a
partial file under the final name. The writers hand it their text in pieces of
_CHUNK rows or points, so no file's text is ever built whole and writing takes
memory that does not grow with the row count.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["format_value", "stopwatch", "write_atomic", "write_csv", "write_svg_lines"]

_CHUNK = 2048  # CSV rows, or polyline points, formatted per piece of an output file


def stopwatch(timing: bool) -> Callable[[], float]:
    """A clock reading milliseconds since this call, or always 0.0 when timing
    is off, so that untimed runs write byte-identical wall-clock columns."""
    if not timing:
        return lambda: 0.0
    t0 = time.perf_counter()
    return lambda: (time.perf_counter() - t0) * 1e3


def write_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write text, a str or an iterable of str pieces, to a temp file next to
    path, then os.replace it into place: path ends up with all of text or keeps
    what it held before, also when the pieces' iterator raises. The pieces are
    written as they come, so the whole text is never held at once."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return _spec(type(v)) % (v,)


def _spec(t: type) -> str:
    """The %-format of a CSV value of type t: %d for an integer, %.17g for a
    float, and "%s" for the rest (bool, np.bool_, None, str, ...), whose
    values write_csv turns into text with format_value first."""
    if issubclass(t, (int, np.integer)) and not issubclass(t, bool):
        return "%d"
    if issubclass(t, (float, np.floating)):
        return "%.17g"
    return "%s"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write header and rows as CSV, each value as format_value writes it, in
    pieces of _CHUNK rows.

    One %-format per row type signature does the formatting; rows can change
    types from one to the next (a None among ints), so the format is looked up
    per row."""

    def chunks() -> Iterator[str]:
        yield ",".join(header) + "\n"
        formats: dict[tuple[type, ...], tuple[str, tuple[bool, ...] | None]] = {}
        rest = iter(rows)
        while batch := list(itertools.islice(rest, _CHUNK)):
            lines = []
            for row in batch:
                row = tuple(row)
                signature = tuple(map(type, row))
                cached = formats.get(signature)
                if cached is None:
                    specs = tuple(map(_spec, signature))
                    via = tuple(spec == "%s" for spec in specs)
                    cached = formats[signature] = (",".join(specs) + "\n", via if any(via) else None)
                fmt, via = cached
                if via is not None:
                    row = tuple(format_value(v) if text else v for v, text in zip(row, via))
                lines.append(fmt % row)
            yield "".join(lines)

    return write_atomic(path, chunks())


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 55  # margins: left/right/top/bottom


def _escape(text: str) -> str:
    """&, > and < as XML entities, in xml.sax.saxutils.escape's order, without
    the urllib.request and ssl imports that module brings to start-up."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    """Axis ticks on [lo, hi]: whole exponents when log, else round steps;
    linear ticks need hi > lo, which write_svg_lines ensures by widening."""
    if log:
        lo_e, hi_e = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_e - lo_e) // 6)
        return [float(e) for e in range(lo_e, hi_e + 1, step)]
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
) -> Path:
    """Write one polyline per (label, xs, ys) series on a log10 y axis.

    Nonpositive and non-finite values are clipped to a tenth of the smallest
    positive value in the data (the scale is for ratios, not signs). Each
    polyline's points are written in pieces of _CHUNK points.
    """
    xs_ys = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for _, xs, ys in series]
    for (label, _, _), (xs, ys) in zip(series, xs_ys):
        if xs.size != ys.size:
            raise ValueError(f"series {label!r} has {xs.size} x values but {ys.size} y values")
    if not any(x.size for x, _ in xs_ys):
        raise ValueError("no data to plot")
    smallest = min(float(y[(y > 0) & np.isfinite(y)].min(initial=math.inf)) for _, y in xs_ys)
    floor = (smallest / 10) if smallest < math.inf else 1e-16

    def scale(y: np.ndarray) -> np.ndarray:
        """Plotted y: log10 of y clipped at floor, by math.log10 (numpy's may round differently)."""
        clipped = np.maximum(np.where(np.isfinite(y), y, floor), floor)
        return np.fromiter(map(math.log10, clipped), dtype=float, count=y.size)

    xs_ys = [(x, scale(y)) for x, y in xs_ys]
    x_lo = min(float(x.min()) for x, _ in xs_ys if x.size)
    x_hi = max(float(x.max()) for x, _ in xs_ys if x.size)
    y_lo = min(float(y.min()) for _, y in xs_ys if y.size)
    y_hi = max(float(y.max()) for _, y in xs_ys if y.size)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
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
    for t in _ticks(y_lo, y_hi, log=True):
        y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">1e{t:g}</text>')
    if title:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 14}" text-anchor="middle" '
                   f'font-size="15">{_escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{_escape(ylabel)}</text>')

    def chunks() -> Iterator[str]:
        """out's lines, then each polyline, its points _CHUNK at a time, with its
        legend entry, then the closing tag."""
        yield "\n".join(out) + "\n"
        for i, ((label, _, _), (xs, ys)) in enumerate(zip(series, xs_ys)):
            color = _PALETTE[i % len(_PALETTE)]
            yield f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
            for start in range(0, xs.size, _CHUNK):
                part = slice(start, start + _CHUNK)
                points = " ".join(map("%.2f,%.2f".__mod__, zip(px(xs[part]).tolist(), py(ys[part]).tolist())))
                yield points if start == 0 else " " + points
            ly = _MT + 16 + 18 * i
            yield (f'"/>\n<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 34}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>\n'
                   f'<text x="{_W - _MR + 40}" y="{ly}">{_escape(str(label))}</text>\n')
        yield "</svg>\n"

    return write_atomic(path, chunks())
