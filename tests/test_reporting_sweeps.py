"""Tests for report formatting."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_series, format_table


class TestFormatTable:
    def test_alignment_and_header(self):
        table = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table

    def test_format_series(self):
        text = format_series("yield", [(10, 0.8), (20, 0.7)])
        assert text.splitlines()[0] == "yield"
        assert "10: 0.8" in text

