import json
import pathlib

import pytest

import golden_data as G
from palinradix.tables import (
    TABLE_IDS,
    render,
    render_csv,
    render_json,
    render_text,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


class TestGoldenTranscriptions:
    """Self-checks on the hand-transcribed literals themselves, so a typo in
    the golden data cannot silently satisfy a matching bug in the library."""

    def test_table2_rows_evaluate(self):
        for n, b, c, d in G.TABLE2_ROWS:
            assert 1 <= c < b and 0 <= d < b
            assert c * b * b + d * b + c == 1 << n

    def test_table3_rows_evaluate(self):
        for n, k, x, r, b, display in G.TABLE3_ROWS:
            assert n == k * x + r
            assert b == (1 << x) - 1
            assert G.display_value(display) == 1 << n
            _, base, digits = G.parse_display(display)
            assert base == b
            assert digits == digits[::-1]

    def test_table4_rows_evaluate(self):
        for p, n, b, display, _ in G.TABLE4_ROWS:
            assert G.display_value(display) == p**n
            _, base, digits = G.parse_display(display)
            assert base == b
            assert digits == digits[::-1]

    def test_table5_rows_evaluate(self):
        for n, display, palindromic in G.TABLE5_ROWS:
            assert G.display_value(display) == 1 << n
            _, base, digits = G.parse_display(display)
            assert base == 3
            assert (digits == digits[::-1]) == palindromic

    def test_red_sets(self):
        for n in G.TABLE1_RED:
            assert G.TABLE1_MIN_BASES[n - 1] == n - 1
        assert G.TABLE3_RED == {63}


class TestTableReproduction:
    def test_table1(self):
        rows = table1_rows()
        assert [r.b for r in rows] == G.TABLE1_MIN_BASES
        assert {r.n for r in rows if r.b == r.n - 1} == G.TABLE1_RED

    def test_table2(self):
        assert [tuple(r) for r in table2_rows()] == G.TABLE2_ROWS

    def test_table3(self):
        assert [tuple(r) for r in table3_rows()] == G.TABLE3_ROWS

    def test_table4(self):
        assert [tuple(r) for r in table4_rows()] == G.TABLE4_ROWS

    def test_table5(self):
        assert [tuple(r) for r in table5_rows()] == G.TABLE5_ROWS


class TestRenderers:
    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_csv_matches_frozen_fixture(self, table_id):
        fixture = (DATA_DIR / f"table{table_id}.csv").read_text(encoding="utf-8")
        assert render_csv(table_id) == fixture

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_json_structure(self, table_id):
        doc = json.loads(render_json(table_id))
        assert doc["table"] == table_id
        assert len(doc["rows"]) > 0
        fixture_lines = (
            (DATA_DIR / f"table{table_id}.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert len(doc["rows"]) == len(fixture_lines) - 1

    def test_grid_layout(self):
        lines = render_text(1).splitlines()
        assert len(lines) == 12  # header + rows 0, 10, ..., 100
        assert lines[0].split() == [str(j) for j in range(10)]
        # row "   10" starts at N = 10 whose entry sits in column j = 0
        assert lines[2].split() == ["10", "3", "10", "5", "3", "6", "2", "3",
                                    "2", "5", "18"]
        assert lines[-1].split() == ["100", "3"]

    def test_text_table_alignment(self):
        lines = render_text(2).splitlines()
        assert len(lines) == 1 + len(G.TABLE2_ROWS)
        assert lines[0].split() == ["n", "b", "c", "d"]
        assert lines[1].split() == ["12", "19", "11", "6"]

    def test_bool_cells_lowercase(self):
        text = render_csv(4)
        assert ",true" in text and ",false" in text
        assert ",True" not in text

    def test_render_dispatch_and_errors(self):
        assert render(5) == render_text(5)
        assert render(5, "csv") == render_csv(5)
        assert render(5, "json") == render_json(5)
        with pytest.raises(ValueError):
            render(0)
        with pytest.raises(ValueError):
            render(6, "csv")
        with pytest.raises(ValueError):
            render(5, "yaml")
