#!/usr/bin/env python3
"""Write tests/data/table{1..5}.csv from the hand-transcribed literals, and
tests/data/pow2_minbase.csv and tests/data/pow2_scan_sha256.csv from the
per-base oracles.

The table fixtures are built straight from tests/golden_data.py, not through
the table generators, so `palinradix table N --format csv --golden <file>`
and the snapshot tests genuinely cross two independent data paths.  The
b(2**n) list for n <= 200 comes from tests/oracles.py, which tests every
base in turn, not from min_pal_base; it takes about 20 s.  So does the
SHA-256 of the hits of 2**n in [2, isqrt(2**n)] for n = 35..48, not the
scan kernel; it takes about 3 minutes.  Rerun only if the transcriptions
change.  write_tables(directory) writes the five tables alone, in well
under a second.
"""

import csv
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import golden_data as G
from oracles import naive_min_pal_base, palindromic_bases, scan_digest

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
POW2_MINBASE_MAX_N = 200
POW2_SCAN_N = range(35, 49)


def write(path: pathlib.Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["true" if v is True else "false" if v is False else v for v in row]
            )
    print(f"wrote {path}")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    write_tables(DATA_DIR)
    write(DATA_DIR / "pow2_minbase.csv", ("n", "b", "digits"), pow2_minbase_rows())
    write(
        DATA_DIR / "pow2_scan_sha256.csv", ("n", "hits", "sha256"), pow2_scan_rows()
    )


def write_tables(directory: pathlib.Path) -> None:
    """table1.csv .. table5.csv in directory, from tests/golden_data.py."""
    write(
        directory / "table1.csv",
        ("N", "b"),
        [(n, b) for n, b in enumerate(G.TABLE1_MIN_BASES, start=1)],
    )
    write(directory / "table2.csv", ("n", "b", "c", "d"), G.TABLE2_ROWS)
    write(
        directory / "table3.csv",
        ("n", "k", "x", "r", "b", "representation"),
        G.TABLE3_ROWS,
    )
    write(
        directory / "table4.csv",
        ("p", "n", "b", "representation", "binomial"),
        G.TABLE4_ROWS,
    )
    write(directory / "table5.csv", ("n", "representation", "palindromic"), G.TABLE5_ROWS)


def pow2_minbase_rows():
    for n in range(1, POW2_MINBASE_MAX_N + 1):
        b, rep = naive_min_pal_base(1 << n)
        yield n, b, " ".join(map(str, rep.digits))


def pow2_scan_rows():
    for n in POW2_SCAN_N:
        hits = palindromic_bases(1 << n, 2, math.isqrt(1 << n), 2)
        yield n, len(hits), scan_digest(hits)


if __name__ == "__main__":
    main()
