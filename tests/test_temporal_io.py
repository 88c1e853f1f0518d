"""Unit tests for :mod:`repro.temporal.io`."""

import io

import pytest

from repro.core.errors import GraphFormatError
from repro.temporal import io as tio
from repro.temporal.edge import TemporalEdge


class TestReadKonect:
    def test_full_rows(self):
        text = "% comment\n1 2 1.0 100\n2 3 1.0 200\n"
        g = tio.read_konect(io.StringIO(text), duration=1.0)
        assert g.num_edges == 2
        assert g.edges[0] == TemporalEdge(1, 2, 100.0, 101.0, 1.0)

    def test_missing_timestamp_uses_row_index(self):
        g = tio.read_konect(io.StringIO("1 2 5.0\n2 3 6.0\n"))
        assert [e.start for e in g.edges] == [0.0, 1.0]
        assert [e.weight for e in g.edges] == [5.0, 6.0]

    def test_missing_weight_uses_default(self):
        g = tio.read_konect(io.StringIO("1 2\n"), default_weight=3.0)
        assert g.edges[0].weight == 3.0

    def test_int_default_weight_stays_int(self):
        g = tio.read_konect(io.StringIO("1 2\n2 3 4.5\n3 1\n"), default_weight=1)
        assert [e.weight for e in g.edges] == [1, 4.5, 1]
        assert [type(e.weight) for e in g.edges] == [int, float, int]
        assert not g.columnar().weights_are_float

    def test_zero_duration_default(self):
        g = tio.read_konect(io.StringIO("1 2 1 50\n"))
        assert g.edges[0].duration == 0.0

    def test_string_vertices(self):
        g = tio.read_konect(io.StringIO("alice bob 1 10\n"))
        assert g.edges[0].source == "alice"

    def test_short_row_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            tio.read_konect(io.StringIO("1\n"))

    def test_comments_and_blank_lines_skipped(self):
        text = "%h\n\n# note\n1 2 1 7\n"
        assert tio.read_konect(io.StringIO(text)).num_edges == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1 2 1 5\n")
        assert tio.read_konect(path).num_edges == 1


class TestNativeRoundTrip:
    def test_round_trip(self, figure1, tmp_path):
        path = tmp_path / "fig1.txt"
        tio.write_native(figure1, path)
        loaded = tio.read_native(path)
        assert {tuple(e) for e in loaded.edges} == {tuple(e) for e in figure1.edges}

    def test_write_is_chronological(self, figure1):
        buffer = io.StringIO()
        tio.write_native(figure1, buffer)
        lines = [l for l in buffer.getvalue().splitlines() if not l.startswith("#")]
        starts = [float(l.split()[2]) for l in lines]
        assert starts == sorted(starts)

    def test_native_wrong_columns(self):
        with pytest.raises(GraphFormatError, match="5 columns"):
            tio.read_native(io.StringIO("1 2 3\n"))


class TestFromString:
    def test_native(self):
        g = tio.from_string("0 1 1 3 2\n")
        assert g.edges[0] == TemporalEdge(0, 1, 1.0, 3.0, 2.0)

    def test_konect(self):
        g = tio.from_string("0 1 2 9\n", fmt="konect", duration=1.0)
        assert g.edges[0].arrival == 10.0

    def test_unknown_format(self):
        with pytest.raises(GraphFormatError):
            tio.from_string("x", fmt="csv")
