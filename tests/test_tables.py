import hashlib
import json
import pathlib

import pytest

import golden_data as G
from palinradix import tables
from palinradix.radix import Representation
from palinradix.tables import (
    TABLE_IDS,
    render,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

# SHA-256 of every rendering, (table id, format) -> hex digest.  Only the
# csv renderings have golden files; these pin text and json byte for byte
# as well.
RENDER_SHA256 = {
    (1, "text"): "ec1955284f816caacbbe48a7092942ca7f4a31470514317ec4df2ae7dc056043",
    (1, "csv"): "cb6493f2dc71b337051a17698d4c3a9473d64a5b2a89216aa51e9726a4a3e07b",
    (1, "json"): "ec505e0cb9c7e4a315aa455979817357cc3f0c367dfdeb069f4e59eac45ce30d",
    (2, "text"): "949d94fd6b9c485f8617720b8f1e775574fd5306bee5babf7361c1d6fb4b054f",
    (2, "csv"): "5e3e600d67716f5d0d901ee1afec89d2099772bbb79249efd8a79039bcedfa95",
    (2, "json"): "14bc2fbafd3083b161665113c6a293d8c4566292b9dc293d143fb71a0f16f047",
    (3, "text"): "9c5a54754231399e205c4b1f7e73e384c615ce7a3d03ec0ed06e77aeee952af3",
    (3, "csv"): "98ecf82d404e41856da7f3dab74d0882e68d069398e13f0d1f99639f97ab3f39",
    (3, "json"): "45d6f9dfbcbe09122a24d93d518bcbe8693afca7878ee4fdb3db52962851d77e",
    (4, "text"): "f6d487d83334cfa0ccc43834456effc12e57d3ed88abb181052b74dc489f7cd3",
    (4, "csv"): "d5934938a7a0f8b8dedb2760bd71a375f619b01b60d76e81d14c6251c9df5550",
    (4, "json"): "953309b2c23203b321803751fbf88b7e70656a9bfb68e1b9f2680967aa58c6ca",
    (5, "text"): "5a987b377ff0d03e07561eb789b673d4395ff2f31b4294ea74bfbbf924017336",
    (5, "csv"): "5ce617427715500b7b9b07a1e503995b1ed32475cd77bcd4e1c074e20ac324a5",
    (5, "json"): "0616e58420d93b19acc11e1db9a6586643f6eced30e368bd2505c34d26be1a92",
}


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

    @pytest.mark.parametrize("base, digits", [(19, (11, 6, 11)), (5, (2,))])
    def test_table3_stops_on_a_non_binomial_minimum(self, monkeypatch, base, digits):
        # (11,6,11)_19 = 2**12 is not binomial; (2)_5 is binomial of degree
        # 0, but 5 is not of the form 2**x - 1, so x and r are undefined
        rep = Representation(base, digits)
        monkeypatch.setattr(tables, "min_pal_base", lambda value: (base, rep))
        with pytest.raises(AssertionError, match="not binomial"):
            table3_rows()


class TestRenderers:
    @pytest.mark.parametrize("table_id, fmt", sorted(RENDER_SHA256))
    def test_rendering_is_pinned(self, table_id, fmt):
        digest = hashlib.sha256(render(table_id, fmt).encode()).hexdigest()
        assert digest == RENDER_SHA256[table_id, fmt]

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_csv_matches_frozen_fixture(self, table_id):
        fixture = (DATA_DIR / f"table{table_id}.csv").read_text(encoding="utf-8")
        assert render(table_id, "csv") == fixture

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_json_structure(self, table_id):
        doc = json.loads(render(table_id, "json"))
        assert doc["table"] == table_id
        assert len(doc["rows"]) > 0
        fixture_lines = (
            (DATA_DIR / f"table{table_id}.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert len(doc["rows"]) == len(fixture_lines) - 1

    def test_grid_layout(self):
        lines = render(1).splitlines()
        assert len(lines) == 12  # header + rows 0, 10, ..., 100
        assert lines[0].split() == [str(j) for j in range(10)]
        # row "   10" starts at N = 10 whose entry sits in column j = 0
        assert lines[2].split() == ["10", "3", "10", "5", "3", "6", "2", "3",
                                    "2", "5", "18"]
        assert lines[-1].split() == ["100", "3"]

    def test_text_table_alignment(self):
        lines = render(2).splitlines()
        assert len(lines) == 1 + len(G.TABLE2_ROWS)
        assert lines[0].split() == ["n", "b", "c", "d"]
        assert lines[1].split() == ["12", "19", "11", "6"]

    def test_bool_cells_lowercase(self):
        text = render(4, "csv")
        assert ",true" in text and ",false" in text
        assert ",True" not in text

    def test_render_dispatch_and_errors(self):
        with pytest.raises(ValueError):
            render(0)
        with pytest.raises(ValueError):
            render(6, "csv")
        with pytest.raises(ValueError):
            render(5, "yaml")
