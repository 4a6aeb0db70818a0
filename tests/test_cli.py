import csv
import io
import json
import pathlib

import pytest

from palinradix.cli import main

DATA_DIR = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinbase:
    def test_literal(self, capsys):
        code, out, _ = run(capsys, "minbase", "2023")
        assert code == 0
        assert out.splitlines() == ["b(2023) = 16", "2023 = 7*(1,2,1)_16"]

    def test_pow2(self, capsys):
        code, out, _ = run(capsys, "minbase", "--pow2", "63")
        assert code == 0
        assert out.splitlines() == [
            "b(2^63) = 127",
            "2^63 = (1,9,36,84,126,126,84,36,9,1)_127",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("minbase",),
            ("minbase", "12", "--pow2", "5"),
            ("minbase", "0"),
            ("minbase", "--pow2", "0"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err


class TestScan:
    def test_text_claim_line(self, capsys):
        code, out, _ = run(capsys, "scan", "--pow2", "12")
        assert code == 0
        assert "# claim holds" in out
        assert "2^12 = (11,6,11)_19  [digits=3, non-binomial]" in out
        assert "complete" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--pow2", "6", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["base"] for r in records] == ["7", "15", "31", "63"]
        first = records[0]
        assert first["schema_version"] == 1
        assert first["target"] == "64"
        assert first["digits"] == ["1", "2", "1"]
        assert first["palindromic"] is True
        assert first["digit_count"] == 3
        assert (first["binomial_alpha"], first["binomial_k"]) == ("1", 2)
        assert first["mersenne_x"] == 3

    def test_json_binomial_fields_joint(self, capsys):
        _, out, _ = run(capsys, "scan", "--pow2", "12", "--format", "json")
        for rec in json.loads(out):
            assert ("binomial_alpha" in rec) == ("binomial_k" in rec)
            if rec["base"] == "19":
                assert "binomial_alpha" not in rec
                assert "mersenne_x" not in rec

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "scan", "--pow2", "18", "--format", "json")
        _, second, _ = run(capsys, "scan", "--pow2", "18", "--format", "json")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "scan", "--pow2", "18", "--format", "csv")
        _, parallel, _ = run(
            capsys, "scan", "--pow2", "18", "--format", "csv", "--jobs", "4"
        )
        assert serial == parallel

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "scan", "--pow2", "12", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "target", "base", "digits", "palindromic", "digit_count",
            "binomial_alpha", "binomial_k", "mersenne_x",
        ]
        by_base = {r[1]: r for r in rows[1:]}
        assert by_base["19"] == ["4096", "19", "11 6 11", "true", "3", "", "", ""]
        assert by_base["7"] == ["4096", "7", "1 4 6 4 1", "true", "5", "1", "4", "3"]

    def test_explicit_range(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pow2", "3", "--min-base", "3", "--max-base", "5"
        )
        assert code == 0
        assert "2^3 = 2*(1,1)_3" in out
        assert "1 palindromic representation(s)" in out

    def test_min_digits(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pow2", "12", "--format", "csv", "--min-digits", "3"
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0
        assert len(rows) == 5
        assert all(int(r[4]) >= 3 for r in rows)

    def test_env_cap_reports_partial(self, capsys, monkeypatch):
        monkeypatch.setenv("PALINRADIX_MAX_BASE", "40")
        code, out, _ = run(capsys, "scan", "--pow2", "12")
        assert code == 0
        assert "partial (capped)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--pow2", "0"),
            ("scan", "--pow2", "5", "--min-base", "1"),
            ("scan", "--pow2", "5", "--min-base", "9", "--max-base", "4"),
            ("scan",),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


class TestTable:
    @pytest.mark.parametrize("table_id", ["1", "2", "3", "4", "5"])
    def test_golden_match(self, capsys, table_id):
        code, out, err = run(
            capsys,
            "table", table_id,
            "--format", "csv",
            "--golden", str(DATA_DIR / f"table{table_id}.csv"),
        )
        assert code == 0
        assert "golden match" in err
        assert out == (DATA_DIR / f"table{table_id}.csv").read_text("utf-8")

    def test_golden_mismatch(self, capsys, tmp_path):
        doctored = tmp_path / "table5.csv"
        fixture = (DATA_DIR / "table5.csv").read_text("utf-8")
        doctored.write_text(fixture.replace("true", "maybe"), "utf-8")
        code, _, err = run(
            capsys, "table", "5", "--format", "csv", "--golden", str(doctored)
        )
        assert code == 3
        assert "golden mismatch at line" in err

    def test_golden_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "table", "5", "--golden", str(tmp_path / "nope.csv")
        )
        assert code == 2
        assert "cannot read golden" in err

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "table", "9")
        assert code == 2
        assert "unknown table id" in err

    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "table", "5")
        assert code == 0
        assert out.splitlines()[0].split() == ["n", "representation", "palindromic"]


class TestConjectures:
    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "conjectures", "--max-n", "16")
        assert code == 0
        lines = out.splitlines()
        assert "(a) range n = 1..16: holds" in lines
        assert "(b) range n = 1..16: holds" in lines
        assert "(c) range a = 2..4: holds" in lines
        assert "(d) range bases 2..31 over n = 1..16: inconclusive" in lines
        assert "(e) range n = 1..16 in base 3: holds" in lines
        assert "    base 3: 4 exponent(s) [1,2,3,4]" in lines

    def test_too_small(self, capsys):
        code, _, _ = run(capsys, "conjectures", "--max-n", "3")
        assert code == 2


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and maps serially, so no worker process starts."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def map(self, fn, items):
        return [fn(item) for item in items]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestJobs:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        for module in ("palinradix.palindrome", "palinradix.theorems"):
            monkeypatch.setattr(
                f"{module}.Pool", lambda processes: RecordingPool(sizes, processes)
            )
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        return sizes

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--pow2", "12", "--jobs", "0"),
            ("scan", "--pow2", "12", "--jobs", "-2"),
            ("conjectures", "--max-n", "8", "--jobs", "0"),
        ],
    )
    def test_below_one_is_usage_error(self, capsys, pool_sizes, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--jobs must be >= 1" in err
        assert pool_sizes == []

    def test_scan_capped_at_cpu_count(self, capsys, pool_sizes):
        _, serial, _ = run(capsys, "scan", "--pow2", "16", "--format", "csv")
        code, capped, _ = run(
            capsys, "scan", "--pow2", "16", "--format", "csv", "--jobs", "1000000"
        )
        assert code == 0
        assert pool_sizes == [3]
        assert capped == serial

    def test_conjectures_capped_at_cpu_count(self, capsys, pool_sizes):
        _, serial, _ = run(capsys, "conjectures", "--max-n", "8")
        code, capped, _ = run(capsys, "conjectures", "--max-n", "8", "--jobs", "64")
        assert code == 0
        assert pool_sizes == [3]
        assert capped == serial

    def test_unknown_cpu_count_runs_serially(self, capsys, pool_sizes, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        code, _, _ = run(capsys, "scan", "--pow2", "16", "--jobs", "8")
        assert code == 0
        assert pool_sizes == []


class TestParser:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "scan", "--pow2", "5", "--format", "yaml")[0] == 2
