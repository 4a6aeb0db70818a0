import csv
import hashlib
import io
import json
import pathlib

import pytest

from palinradix import cli, palindrome
from palinradix.cli import main
from palinradix.palindrome import pow2_complete_scan

DATA_DIR = pathlib.Path(__file__).parent / "data"

SCAN_CSV_HEADER = (
    "target,base,digits,palindromic,digit_count,binomial_alpha,binomial_k,mersenne_x\n"
)

# `scan --pow2 12 --format csv`, byte for byte
POW2_12_CSV = SCAN_CSV_HEADER + """\
4096,7,1 4 6 4 1,true,5,1,4,3
4096,15,1 3 3 1,true,4,1,3,4
4096,19,11 6 11,true,3,,,
4096,31,4 8 4,true,3,4,2,5
4096,63,1 2 1,true,3,1,2,6
4096,127,32 32,true,2,32,1,7
4096,255,16 16,true,2,16,1,8
4096,511,8 8,true,2,8,1,9
4096,1023,4 4,true,2,4,1,10
4096,2047,2 2,true,2,2,1,11
4096,4095,1 1,true,2,1,1,12
"""

# SHA-256 of `scan --pow2 12 --format json`: key order, indent, newline
POW2_12_JSON_SHA256 = "c8460f00ba24278526e7b2d04c99d3d214c0798457170b7a8a476b33c57e8508"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    """main() reuses the parser of its first call; this clears it before
    and after the test, so that the test builds its own, for example after
    patching build_parser or a cmd_* function."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


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

    def test_output_bytes(self, capsys):
        code, out, _ = run(capsys, "scan", "--pow2", "12", "--format", "csv")
        assert (code, out) == (0, POW2_12_CSV)
        code, out, _ = run(capsys, "scan", "--pow2", "12", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == POW2_12_JSON_SHA256

    @pytest.mark.parametrize("fmt,want", [("csv", SCAN_CSV_HEADER), ("json", "[]\n")])
    def test_empty_scan(self, capsys, fmt, want):
        code, out, _ = run(
            capsys, "scan", "--pow2", "3", "--max-base", "2", "--min-digits", "3",
            "--format", fmt,
        )
        assert (code, out) == (0, want)

    def test_explicit_range(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pow2", "3", "--min-base", "3", "--max-base", "5"
        )
        assert code == 0
        assert "2^3 = 2*(1,1)_3" in out
        assert "1 palindromic representation(s)" in out

    def test_min_base_keeps_two_digit_family(self, capsys):
        # without --max-base, every representation from --min-base on is
        # listed, the 2-digit (c,c)_b past isqrt(2**n) included
        code, out, _ = run(capsys, "scan", "--pow2", "12", "--min-base", "3")
        assert code == 0
        _, full, _ = run(capsys, "scan", "--pow2", "12")
        assert out.splitlines()[:-2] == full.splitlines()[:-2]
        assert "2^12 = 32*(1,1)_127  [digits=2" in out
        assert "2^12 = (1,1)_4095  [digits=2" in out
        assert "# scanned bases 3..64 (complete), 11 palindromic" in out
        code, out, _ = run(
            capsys, "scan", "--pow2", "12", "--min-base", "20", "--format", "csv"
        )
        bases = [row[1] for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert code == 0
        assert bases == ["31", "63", "127", "255", "511", "1023", "2047", "4095"]

    def test_min_base_past_bound(self, capsys):
        code, _, err = run(capsys, "scan", "--pow2", "12", "--min-base", "65")
        assert code == 2
        assert "invalid base range [65, 64]" in err
        code, out, _ = run(capsys, "scan", "--pow2", "12", "--min-base", "64")
        assert code == 0
        assert "# scanned bases 64..64 (complete), 6 palindromic" in out

    def test_min_base_scans_from_it(self, capsys, monkeypatch):
        # --min-base reaches cli.pow2_complete_scan as lo: one kernel call
        # from B to N - 1, not a complete scan from base 2
        n_exp, lo = 50, 1 << 24
        want = [
            str(rec.rep.base) for rec in pow2_complete_scan(n_exp).records if rec.rep.base >= lo
        ]
        kernel, ranges, complete = palindrome._palindromic_bases, [], []
        monkeypatch.setattr(
            palindrome, "_palindromic_bases", lambda *args: ranges.append(args) or kernel(*args)
        )
        monkeypatch.setattr(
            cli,
            "pow2_complete_scan",
            lambda *args, **kw: complete.append((args, kw)) or pow2_complete_scan(*args, **kw),
        )
        code, out, _ = run(
            capsys, "scan", "--pow2", str(n_exp), "--min-base", str(lo), "--format", "csv"
        )
        assert code == 0
        assert complete == [((n_exp,), {"min_digits": 2, "lo": lo})]
        assert ranges == [(1 << n_exp, lo, (1 << n_exp) - 1, 2)]
        assert [row[1] for row in list(csv.reader(io.StringIO(out)))[1:]] == want

    def test_bases_past_2_pow_65(self, capsys, deadline):
        # a range past 2**64 is a well-formed question: (1,2,1)_{2**65 - 1}
        # and the 65 records (c,c)_b past isqrt(2**130)
        with deadline(30):
            code, out, _ = run(
                capsys, "scan", "--pow2", "130", "--min-base", "36893488147419102232"
            )
        assert code == 0
        assert out.splitlines()[-2].endswith(
            "(complete), 66 palindromic representation(s)"
        )
        n = 1 << 66
        with deadline(30):
            code, out, _ = run(
                capsys, "scan", "--pow2", "66", "--min-base", str(n - 2),
                "--max-base", str(n + 1), "--min-digits", "1", "--format", "csv",
            )
        assert code == 0
        assert [row[1:3] for row in list(csv.reader(io.StringIO(out)))[1:]] == [
            [str(n - 1), "1 1"],
            [str(n + 1), str(n)],
        ]

    def test_min_digits(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--pow2", "12", "--format", "csv", "--min-digits", "3"
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0
        assert len(rows) == 5
        assert all(int(r[4]) >= 3 for r in rows)

    def test_max_base_env_var_has_no_effect(self, capsys, monkeypatch):
        # a scan covers the range its caller passes: PALINRADIX_MAX_BASE,
        # which once capped every scan, changes no output
        monkeypatch.delenv("PALINRADIX_MAX_BASE", raising=False)
        argvs = [("scan", "--pow2", "12"), ("scan", "--pow2", "12", "--format", "csv")]
        want = [run(capsys, *argv) for argv in argvs]
        report = palindrome.enumerate_palindromes(1 << 12, 2, 64)
        monkeypatch.setenv("PALINRADIX_MAX_BASE", "40")
        assert [run(capsys, *argv) for argv in argvs] == want
        assert "(complete), 11 palindromic" in want[0][1]
        assert want[1][1] == POW2_12_CSV
        assert palindrome.enumerate_palindromes(1 << 12, 2, 64) == report
        assert report.exhaustive and report.records[-1].rep.base == 63

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--pow2", "0"),
            ("scan", "--pow2", "5", "--min-base", "1"),
            ("scan", "--pow2", "5", "--min-base", "9", "--max-base", "4"),
            ("scan", "--pow2", "1", "--min-digits", "0"),
            ("scan", "--pow2", "5", "--min-digits", "0"),
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

    @pytest.mark.parametrize(
        "doctor, detail",
        [
            (lambda text: text[:-1], "the final newline differs"),
            (lambda text: text.replace("\n", "\f", 1), "the line endings differ"),
        ],
        ids=["final-newline", "line-break"],
    )
    def test_golden_mismatch_between_lines(self, capsys, tmp_path, doctor, detail):
        # every line matches, so only the line breaks can name the difference
        doctored = tmp_path / "table5.csv"
        fixture = (DATA_DIR / "table5.csv").read_text("utf-8")
        doctored.write_text(doctor(fixture), "utf-8")
        code, _, err = run(
            capsys, "table", "5", "--format", "csv", "--golden", str(doctored)
        )
        assert code == 3
        assert err == f"golden mismatch: {detail}\n"

    def test_golden_crlf_copy_matches(self, capsys, tmp_path):
        # the golden is read as text, so its line endings are normalised
        crlf = tmp_path / "table5.csv"
        fixture = (DATA_DIR / "table5.csv").read_bytes()
        crlf.write_bytes(fixture.replace(b"\n", b"\r\n"))
        code, _, err = run(
            capsys, "table", "5", "--format", "csv", "--golden", str(crlf)
        )
        assert code == 0
        assert "golden match" in err

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


class TestJobs:
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

    def test_scan_starts_no_worker(self, capsys, pool_sizes):
        _, serial, _ = run(capsys, "scan", "--pow2", "16", "--format", "csv")
        code, out, _ = run(
            capsys, "scan", "--pow2", "16", "--format", "csv", "--jobs", "1000000"
        )
        assert code == 0
        assert pool_sizes == []
        assert out == serial

    def test_conjectures_capped_at_cpu_count(self, capsys, pool_sizes):
        _, serial, _ = run(capsys, "conjectures", "--max-n", "8")
        code, capped, _ = run(capsys, "conjectures", "--max-n", "8", "--jobs", "64")
        assert code == 0
        assert pool_sizes == [3]
        assert capped == serial

    def test_unknown_cpu_count_runs_serially(self, capsys, pool_sizes, monkeypatch):
        # an OS with no affinity call and no CPU count
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        code, _, _ = run(capsys, "conjectures", "--max-n", "8", "--jobs", "8")
        assert code == 0
        assert pool_sizes == []

    @pytest.mark.parametrize("command", ["scan --pow2 16", "conjectures --max-n 8"])
    def test_capped_at_affinity(self, capsys, pool_sizes, monkeypatch, command):
        # as under `taskset -c 0,1` on 3 CPUs: two conjectures workers, and
        # under `taskset -c 0` none, whatever os.cpu_count() says; scan
        # starts none under either
        argv = command.split()
        _, serial, _ = run(capsys, *argv)
        for cpus, started in (({0, 1}, [2]), ({0}, [])):
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
            pool_sizes.clear()
            code, capped, _ = run(capsys, *argv, "--jobs", "3")
            assert code == 0
            assert pool_sizes == (started if argv[0] == "conjectures" else [])
            assert capped == serial

    def test_cpu_count_without_affinity(self, capsys, pool_sizes, monkeypatch):
        # an OS with no affinity call falls back to the CPU count, 3
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        code, _, _ = run(capsys, "conjectures", "--max-n", "8", "--jobs", "8")
        assert code == 0
        assert pool_sizes == [3]


class TestParser:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "scan", "--pow2", "5", "--format", "yaml")[0] == 2

    def test_built_once_per_process(self, capsys, monkeypatch, fresh_parser):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        for argv in (("table", "5"), ("scan", "--pow2", "5"), ("nope",), ("minbase", "2023")):
            run(capsys, *argv)
        assert len(builds) == 1

    def test_reused_parser_answers_as_a_new_one(self, capsys, fresh_parser):
        # a success, usage errors from argparse and from the commands,
        # --help, then the success again: each call on the one parser
        # answers as on a parser built for it alone
        sequence = (
            ("scan", "--pow2", "12", "--format", "csv"),
            ("scan", "--pow2", "5", "--min-base", "1"),
            ("nope",),
            ("table", "9"),
            ("--help",),
            ("scan", "--pow2", "12", "--format", "csv"),
        )
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._parser.cache_clear()
        reused = [run(capsys, *argv) for argv in sequence]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 2, 2, 0, 0]
        assert reused[0] == reused[-1] == (0, POW2_12_CSV, "")
        assert "usage: palinradix" in reused[4][1]
