"""The command-line scripts under scripts/, run in-process."""

import ast
import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scan_claim():
    return load("scan_claim")


class TestScanClaim:
    def test_claim_holds(self, capsys, scan_claim):
        assert scan_claim.main(["--min-n", "11", "--max-n", "12"]) == 0
        out, err = capsys.readouterr()
        # one line an exponent; only the timing column varies
        assert [line.split("[")[0] for line in out.splitlines()] == [
            "n= 11  bases 2..45           records=7    complete ok  ",
            "n= 12  bases 2..64           records=11   complete ok  ",
        ]
        assert err == "claim holds over the full range\n"


@pytest.fixture(scope="module")
def sweep():
    return load("pow2_minbase_sweep")


class TestPow2MinbaseSweep:
    def test_resumes_from_a_partial_checkpoint(self, tmp_path, capsys, sweep):
        # rows 1..6 of the frozen list and a seventh cut short mid-line, as an
        # interrupted run leaves them; the sweep drops the cut line and
        # continues to n = 12 with the rows of the frozen list
        frozen = (DATA / "pow2_minbase.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "ckpt.csv"
        path.write_text("".join(frozen[:7]) + frozen[7][:5])
        assert sweep.main([str(path), "--max-n", "12"]) == 0
        assert path.read_text() == "".join(frozen[:13])
        out = capsys.readouterr().out
        assert "n=   6" not in out and "n=   7" in out and "n=  12" in out
        assert "(a) n = 1..12: holds" in out
        assert "(c) a = 2..3: holds" in out

    def test_writes_the_extension(self, tmp_path, capsys, sweep):
        # a new checkpoint from n = 201, then resumed: the committed rows
        frozen = (DATA / "pow2_minbase_ext.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "ext.csv"
        assert sweep.main([str(path), "--min-n", "201", "--max-n", "203"]) == 0
        assert path.read_text() == "".join(frozen[:5])
        assert sweep.main([str(path), "--min-n", "1", "--max-n", "205"]) == 0
        assert path.read_text() == "".join(frozen[:7])
        assert "(a) n = 201..205: holds" in capsys.readouterr().out

    def test_counterexample_exits_3(self, tmp_path, capsys, sweep):
        # 2**2 = (4)_5 is a palindrome in a base not of the form 2**x - 1
        path = tmp_path / "ckpt.csv"
        path.write_text("n,b,digits\n1,3,2\n2,5,4\n")
        assert sweep.main([str(path), "--max-n", "2"]) == 3
        out = capsys.readouterr().out
        assert "(a) n = 1..2: counterexample" in out
        assert "'base': 5" in out

    def test_no_square_exponent_is_inconclusive(self, tmp_path, capsys, sweep):
        # n = 1..2 holds no a*a with a >= 2: (c) tested no case, which is no
        # counterexample either, so the run exits 0
        path = tmp_path / "ckpt.csv"
        path.write_text("n,b,digits\n1,3,2\n2,3,1 1\n")
        assert sweep.main([str(path), "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "(a) n = 1..2: holds" in out
        assert "(c) a = 2..1: inconclusive" in out

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("n,b,digits\n1,3,2\n3,3,2 2\n", id="exponent-missing"),
            pytest.param("n,base,digits\n1,3,2\n", id="bad-header"),
            # every row a palindrome of its 2**n, but an exponent repeated
            pytest.param("n,b,digits\n1,3,2\n1,3,2\n2,3,1 1\n", id="repeated"),
            pytest.param("n,b,digits\n1,3,2\n2,3,1 1\n1,3,2\n", id="repeated-later"),
        ],
    )
    def test_bad_checkpoint_is_usage_error(self, tmp_path, capsys, sweep, text):
        path = tmp_path / "ckpt.csv"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            sweep.main([str(path), "--max-n", "4"])
        assert exc.value.code == 2
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "row", ["5,7,1 1\n", "5,5,1 1 2\n"], ids=["wrong-value", "not-palindrome"]
    )
    def test_row_not_a_palindrome_of_2_to_the_n(self, tmp_path, capsys, sweep, row):
        # (1,1)_7 is 8, and (1,1,2)_5 is 32 but not a palindrome: the run
        # stops before the reports, and the file stays as it was, its last
        # line cut short included
        frozen = (DATA / "pow2_minbase.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "ckpt.csv"
        path.write_text("".join(frozen[:5]) + row + "6,7,1 2")
        text = path.read_text()
        with pytest.raises(SystemExit) as exc:
            sweep.main([str(path), "--max-n", "6"])
        assert exc.value.code == 2
        assert "is not a palindrome of 2**5" in capsys.readouterr().err
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "name, first", [("pow2_minbase.csv", 1), ("pow2_minbase_ext.csv", 201)]
    )
    def test_frozen_checkpoints_load(self, tmp_path, sweep, name, first):
        path = tmp_path / name
        path.write_bytes((DATA / name).read_bytes())
        assert list(sweep.read_checkpoint(path)) == list(range(first, first + 200))


def test_reproduce_tables_match(capsys):
    # all five tables render and match their frozen snapshots
    assert load("reproduce_tables").main(["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("=== table") == 5
    assert captured.err.count("matches frozen snapshot") == 5


@pytest.mark.parametrize(
    "fmt, renders",
    [("csv", ["csv"]), ("text", ["text", "csv"]), ("json", ["json", "csv"])],
    ids=["csv", "text", "json"],
)
def test_reproduce_tables_renders_csv_once(capsys, fmt, renders):
    # the csv printed to stdout is the text compared with the snapshot
    script = load("reproduce_tables")
    calls, render = [], script.render
    script.render = lambda table_id, f: calls.append((table_id, f)) or render(table_id, f)
    assert script.main(["--format", fmt]) == 0
    assert calls == [(k, f) for k in range(1, 6) for f in renders]
    assert capsys.readouterr().err.count("matches frozen snapshot") == 5


def test_scripts_import_no_private_name():
    # the scripts use the package through its modules' public names
    for path in SCRIPTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "palinradix"
            ):
                assert not [a.name for a in node.names if a.name.startswith("_")], path


def test_freeze_goldens_tables_match(tmp_path):
    # the five table writers, run without the oracle parts, reproduce the
    # committed goldens byte for byte
    load("freeze_goldens").write_tables(tmp_path)
    for k in range(1, 6):
        name = f"table{k}.csv"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_code_lines(capsys, tmp_path):
    # blank lines, comments and the module, class and function docstrings
    # do not count; a statement or string over two lines counts both
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "# a comment line\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, x):\n"
        '        """Function docstring."""\n'
        "        return (x +\n"
        "                1)\n"
        "\n"
        'TEXT = """a string that is data,\n'
        'not a docstring"""\n',
        encoding="utf-8",
    )
    code_lines = load("code_lines")
    assert code_lines.main([str(fixture), str(fixture)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7  {fixture}",
        f"     7  {fixture}",
        "    14  total",
    ]
