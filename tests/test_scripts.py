"""The command-line scripts under scripts/, run in-process."""

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


class TestScanClaimJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_is_usage_error(self, capsys, scan_claim, pool_sizes, jobs):
        with pytest.raises(SystemExit) as exc:
            scan_claim.main(["--max-n", "16", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert pool_sizes == []

    def test_capped_at_cpu_count(self, capsys, scan_claim, pool_sizes):
        argv = ["--min-n", "16", "--max-n", "16"]
        assert scan_claim.main(argv) == 0
        serial = capsys.readouterr().out
        assert scan_claim.main(argv + ["--jobs", "1000000"]) == 0
        capped = capsys.readouterr().out
        assert pool_sizes == [3]
        # the same records; only the timing column may differ
        assert capped.split("[")[0] == serial.split("[")[0]


def test_reproduce_tables_match(capsys):
    # all five tables render and match their frozen snapshots
    assert load("reproduce_tables").main(["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("=== table") == 5
    assert captured.err.count("matches frozen snapshot") == 5


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
