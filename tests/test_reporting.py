import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqlab.reporting as reporting
from freqlab.reporting import format_value, write_csv, write_svg_lines
from freqlab.spectral import FreqTrace


class TestFormat:
    def test_ints_plain(self):
        assert format_value(42) == "42"
        assert format_value(np.int64(7)) == "7"

    def test_none_empty(self):
        assert format_value(None) == ""

    def test_bools(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

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
        trace = FreqTrace(selected_peaks=(0, 2))
        path = write_csv(tmp_path / "t.csv", trace.header(), trace.table())
        assert path.read_text() == "step,epoch,wall_ms,loss,df_0,df_2\n"

    def test_trace_header_layout(self):
        trace = FreqTrace(selected_peaks=(1, 3, 8))
        assert trace.header() == ["step", "epoch", "wall_ms", "loss", "df_1", "df_3", "df_8"]


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


class TestAtomicWrites:
    WRITERS = {
        "csv": lambda path: write_csv(path, ["a", "b"], [[i, 0.5 * i] for i in range(50)]),
        "svg": lambda path: write_svg_lines(path, [("s", [0, 1, 2], [1.0, 0.1, 0.01])]),
    }

    @pytest.fixture(params=sorted(WRITERS))
    def writer(self, request):
        return self.WRITERS[request.param]

    def test_interrupted_write_keeps_old_content_and_no_temp(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "out.file"
        target.write_text("old\n")
        real = Path.write_text

        def half_then_fail(self, text, *args, **kwargs):
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            writer(target)
        assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
        assert target.read_text() == "old\n"

    def test_failed_replace_leaves_nothing(self, tmp_path, monkeypatch, writer):
        def refuse(src, dst):
            raise OSError("cannot replace")

        monkeypatch.setattr(reporting.os, "replace", refuse)
        with pytest.raises(OSError, match="cannot replace"):
            writer(tmp_path / "out.file")
        assert list(tmp_path.iterdir()) == []
