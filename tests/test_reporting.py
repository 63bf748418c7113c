import csv
import math
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqlab.reporting as reporting
from freqlab.reporting import format_value, write_csv, write_svg_lines


class TestFormat:
    def test_ints_plain(self):
        assert format_value(42) == "42"
        assert format_value(np.int64(7)) == "7"

    def test_none_empty(self):
        assert format_value(None) == ""

    def test_bools(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.True_) == "true"
        assert format_value(np.False_) == "false"

    def test_inf(self):
        assert float(format_value(math.inf)) == math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_seventeen_digits_roundtrip(self, x):
        assert float(format_value(x)) == x


class TestCsv:
    def test_roundtrip_to_seventeen_digits(self, tmp_path):
        rows = [[1, 0.1, -2.5e-17], [2, math.pi, 1e300]]
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        with open(path) as f:
            got = list(csv.reader(f))
        assert got[0] == ["a", "b", "c"]
        for row, orig in zip(got[1:], rows):
            assert int(row[0]) == orig[0]
            assert float(row[1]) == orig[1]
            assert float(row[2]) == orig[2]

    def test_empty_trace_writes_header_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["step", "epoch", "wall_ms", "loss", "df_0", "df_2"], [])
        assert path.read_text() == "step,epoch,wall_ms,loss,df_0,df_2\n"


def _reference_csv(header, rows):
    """write_csv's text, value by value through format_value."""
    return "\n".join([",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]) + "\n"


class TestCsvBytes:
    MIXED = [
        [1, 0.1, np.float64(-2.5e-17), np.int64(-7), True, np.bool_(False), None, "a b"],
        [2, math.pi, np.float64(1e300), np.int64(2**62), False, np.bool_(True), None, ""],
        [np.int32(-3), np.float32(0.1), math.nan, -math.inf, math.inf, -0.0, 10**30, np.float16(2.5)],
    ]

    def test_mixed_types_match_format_value(self, tmp_path):
        header = [f"c{i}" for i in range(8)]
        path = write_csv(tmp_path / "t.csv", header, self.MIXED)
        assert path.read_text() == _reference_csv(header, self.MIXED)

    def test_rows_that_change_types_match_format_value(self, tmp_path):
        # as first_passage.csv, whose step is None for a frequency that never converged
        rows = [(0, 12), (2, None), (4, 7), (6, np.int64(9)), (8, 1.5), (10, True), (12, "x"), (14, None)]
        rows += [tuple(r) for r in self.MIXED[::-1]] + [[]]
        path = write_csv(tmp_path / "t.csv", ["gamma", "first_step"], iter(rows))
        assert path.read_text() == _reference_csv(["gamma", "first_step"], rows)

    def test_returns_its_path(self, tmp_path):
        assert write_csv(tmp_path / "t.csv", ["a"], [[1]]) == tmp_path / "t.csv"

    @pytest.mark.parametrize("count", [0, 1, reporting._CHUNK - 1, reporting._CHUNK, reporting._CHUNK + 1,
                                       2 * reporting._CHUNK + 1])
    def test_chunk_boundaries_match_format_value(self, tmp_path, count):
        # a None cell in the last row of each chunk and the first row of the next,
        # so the row's type signature changes on both sides of every boundary
        edges = {0, reporting._CHUNK - 1}
        rows = [(i, i / 3, None if i % reporting._CHUNK in edges else np.int64(-i)) for i in range(count)]
        path = write_csv(tmp_path / "t.csv", ["i", "third", "maybe"], iter(rows))
        assert path.read_text() == _reference_csv(["i", "third", "maybe"], rows)


def _reference_svg(series, title="", xlabel="", ylabel=""):
    """write_svg_lines' text, point by point in Python floats."""
    W, H, ML, MR, MT, MB = reporting._W, reporting._H, reporting._ML, reporting._MR, reporting._MT, reporting._MB
    all_x = [float(x) for _, xs, _ in series for x in xs]
    positive = [y for _, _, ys in series for y in map(float, ys) if y > 0 and math.isfinite(y)]
    floor = (min(positive) / 10) if positive else 1e-16

    def scale(y):
        y = float(y)
        return math.log10(max(y if math.isfinite(y) else floor, floor))

    all_y = [y for _, _, ys in series for y in map(scale, ys)]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ML + (x - x_lo) / (x_hi - x_lo) * (W - ML - MR)

    def py(y):
        return H - MB - (y - y_lo) / (y_hi - y_lo) * (H - MT - MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
    ]
    for t in reporting._ticks(x_lo, x_hi, log=False):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{H - MB}" x2="{x:.2f}" y2="{H - MB + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{H - MB + 18}" text-anchor="middle">{t:g}</text>')
    for t in reporting._ticks(y_lo, y_hi, log=True):
        y = py(t)
        out.append(f'<line x1="{ML - 5}" y1="{y:.2f}" x2="{ML}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{ML - 8}" y="{y + 4:.2f}" text-anchor="end">1e{t:g}</text>')
    if title:
        out.append(f'<text x="{(ML + W - MR) / 2}" y="{MT - 14}" text-anchor="middle" '
                   f'font-size="15">{escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{(ML + W - MR) / 2}" y="{H - 12}" text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(MT + H - MB) / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(MT + H - MB) / 2})">{escape(ylabel)}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = reporting._PALETTE[i % len(reporting._PALETTE)]
        coords = [f"{px(float(x)):.2f},{py(y):.2f}" for x, y in zip(xs, map(scale, ys))]
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(coords)}"/>')
        ly = MT + 16 + 18 * i
        out.append(f'<line x1="{W - MR + 10}" y1="{ly - 4}" x2="{W - MR + 34}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{W - MR + 40}" y="{ly}">{escape(str(label))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


class TestSvgBytes:
    SERIES = {
        "zeros, negatives, nan and inf": [
            ("a", [0, 1, 2, 3, 4, 5, 6], [1.0, 0.0, -2.0, math.nan, math.inf, -math.inf, 3e-5]),
            ("b", [0.5, 2.5, 7.0], [2.0, -0.0, 1e3]),
        ],
        "all nonpositive": [("a", [0, 1, 2], [0.0, -1.0, -math.inf]), ("b", [1, 3], [-0.5, math.nan])],
        "single point": [("a", [3], [0.25])],
        # y values whose numpy log10 differs from math.log10 by an ulp that survives "%.2f"
        "log10 rounding": [("a", [0, 1, 2, 3, 4], [1e-10, 0.30154397074983635, 0.3011834951361687,
                                                   0.298136799098248, 1.0])],
        "equal x": [("a", [2.0, 2.0, 2.0], [1.0, 10.0, 100.0])],
        "range and arrays": [
            ("a", range(400), np.geomspace(1.0, 1e-12, 400)),
            ("b", np.arange(400), (np.abs(np.sin(np.arange(400.0))) * np.geomspace(1.0, 1e-9, 400)).tolist()),
            ("c", np.arange(0, 800, 2, dtype=np.int64), [abs(v) for v in np.cos(np.arange(400.0))]),
        ],
        "chunk boundaries": [
            ("longer than two chunks", range(2 * reporting._CHUNK + 7),
             np.geomspace(1.0, 1e-8, 2 * reporting._CHUNK + 7)),
            ("one chunk", np.arange(reporting._CHUNK) * 2.5, np.abs(np.sin(np.arange(reporting._CHUNK) + 1.0))),
        ],
    }

    @pytest.mark.parametrize("case", sorted(SERIES))
    def test_bytes_match_the_point_by_point_writer(self, tmp_path, case):
        series = self.SERIES[case]
        labels = dict(title="t < 1", xlabel="iteration", ylabel="sup error")
        path = write_svg_lines(tmp_path / "t.svg", series, **labels)
        assert path.read_text() == _reference_svg(series, **labels)


class TestSvg:
    def test_wellformed_xml_one_polyline_per_series(self, tmp_path):
        xs = list(range(10))
        series = [
            ("gamma=0", xs, [1.0 / (i + 1) for i in xs]),
            ("gamma=3", xs, [2.0 / (i + 1) for i in xs]),
            ("gamma=8", xs, [3.0 / (i + 1) for i in xs]),
        ]
        path = write_svg_lines(tmp_path / "t.svg", series, title="trace")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3
        for el in polylines:
            assert el.get("points")

    def test_nonpositive_values_survive_log_scale(self, tmp_path):
        series = [("a", [0, 1, 2], [1.0, 0.0, 0.5])]
        path = write_svg_lines(tmp_path / "t.svg", series)
        ET.parse(path)  # must stay well-formed

    def test_label_escaping(self, tmp_path):
        series = [("<&>", [0, 1], [1.0, 2.0])]
        path = write_svg_lines(tmp_path / "t.svg", series, title="a < b & c")
        ET.parse(path)

    def test_deterministic_bytes(self, tmp_path):
        series = [("s", [0, 1, 2], [3.0, 2.0, 1.0])]
        a = write_svg_lines(tmp_path / "a.svg", series).read_bytes()
        b = write_svg_lines(tmp_path / "b.svg", series).read_bytes()
        assert a == b

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg_lines(tmp_path / "t.svg", [("s", [], [])])

    @pytest.mark.parametrize("xs, ys", [([0, 1, 2], [1.0, 2.0]), ([0, 1], [1.0, 2.0, 3.0])])
    def test_series_of_unequal_lengths_rejected(self, tmp_path, xs, ys):
        series = [("fine", [0, 1], [1.0, 2.0]), ("ragged", xs, ys)]
        with pytest.raises(ValueError, match="ragged"):
            write_svg_lines(tmp_path / "t.svg", series)
        assert list(tmp_path.iterdir()) == []


def _traced_peak(call) -> int:
    """Bytes of traced allocation at call's peak, above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestEqualHugeX:
    """An x range of one value is widened to one unit; where x + 1.0 rounds back to
    x (2**53 and over) it is widened by an ulp, downward at the float maximum."""

    @pytest.mark.parametrize("x", [2.0**53, 1e300, -1e300, float(np.finfo(float).max)],
                             ids=["2**53", "1e300", "-1e300", "float max"])
    def test_equal_huge_x_values_plot_inside_the_axes(self, tmp_path, x):
        path = write_svg_lines(tmp_path / "t.svg", [("a", [x, x], [1.0, 2.0])])
        root = ET.parse(path).getroot()
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        points = [tuple(map(float, point.split(","))) for point in line.get("points").split()]
        assert len(points) == 2
        left, right = reporting._ML, reporting._W - reporting._MR
        assert all(left <= px <= right for px, _ in points)
        # with no title or xlabel, the x tick labels are the only centred text
        x_ticks = [float(el.get("x")) for el in root.iter()
                   if el.tag.endswith("text") and el.get("text-anchor") == "middle"]
        assert x_ticks and all(left <= t <= right for t in x_ticks)
        assert len(set(x_ticks)) == len(x_ticks)


class TestWriterMemory:
    """The writers stream their text in pieces, so their memory does not grow with the data."""

    N = 200_000

    def test_csv_peak_does_not_grow_with_rows(self, tmp_path):
        rows = ((i, 1.0 / (i + 1), math.sin(i)) for i in range(self.N))
        path = tmp_path / "t.csv"
        peak = _traced_peak(lambda: write_csv(path, ["iter", "sup_error", "alpha_2"], rows))
        assert path.stat().st_size > 8 * 2**20
        assert peak < 2 * 2**20

    def test_svg_peak_is_the_scaled_arrays_not_the_text(self, tmp_path):
        xs = np.arange(self.N, dtype=float)
        ys = np.geomspace(1.0, 1e-12, self.N)
        path = tmp_path / "t.svg"
        peak = _traced_peak(lambda: write_svg_lines(path, [("s", xs, ys)]))
        assert path.stat().st_size > 2 * 2**20
        assert peak < 12 * 2**20


def _disk_full(target: Path):
    assert target.with_name(f".{target.name}.tmp").stat().st_size > 0  # part of the text was written
    raise OSError("disk full")


def _csv_rows_fail_mid_chunk(target: Path, monkeypatch):
    def rows():
        yield from ([i, 0.5 * i] for i in range(3 * reporting._CHUNK // 2))
        _disk_full(target)

    write_csv(target, ["a", "b"], rows())


def _svg_fails_after_first_points(target: Path, monkeypatch):
    real = reporting.write_atomic

    def write_atomic(path, chunks):
        def pieces():
            previous = ""
            for chunk in chunks:
                yield chunk
                if previous.endswith('points="'):
                    _disk_full(target)
                previous = chunk

        return real(path, pieces())

    monkeypatch.setattr(reporting, "write_atomic", write_atomic)
    n = 3 * reporting._CHUNK // 2
    write_svg_lines(target, [("s", range(n), np.geomspace(1.0, 1e-6, n))])


INTERRUPTED_WRITES = {"csv": _csv_rows_fail_mid_chunk, "svg": _svg_fails_after_first_points}


class TestAtomicWrites:
    WRITERS = {
        "csv": lambda path: write_csv(path, ["a", "b"], [[i, 0.5 * i] for i in range(50)]),
        "svg": lambda path: write_svg_lines(path, [("s", [0, 1, 2], [1.0, 0.1, 0.01])]),
    }

    @pytest.fixture(params=sorted(WRITERS))
    def writer(self, request):
        return self.WRITERS[request.param]

    @pytest.mark.parametrize("interrupted_write", ["csv", "svg"])
    def test_interrupted_write_keeps_old_content_and_no_temp(self, tmp_path, monkeypatch, interrupted_write):
        target = tmp_path / "out.file"
        target.write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            INTERRUPTED_WRITES[interrupted_write](target, monkeypatch)
        assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
        assert target.read_text() == "old\n"

    def test_failed_replace_leaves_nothing(self, tmp_path, monkeypatch, writer):
        def refuse(src, dst):
            raise OSError("cannot replace")

        monkeypatch.setattr(reporting.os, "replace", refuse)
        with pytest.raises(OSError, match="cannot replace"):
            writer(tmp_path / "out.file")
        assert list(tmp_path.iterdir()) == []
