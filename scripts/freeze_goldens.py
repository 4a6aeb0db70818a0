#!/usr/bin/env python3
"""Write tests/data/table{1..5}.csv from the hand-transcribed literals, and
tests/data/pow2_minbase.csv from the per-base oracle.

The table fixtures are built straight from tests/golden_data.py, not through
the table generators, so `palinradix table N --format csv --golden <file>`
and the snapshot tests genuinely cross two independent data paths.  The
b(2**n) list for n <= 200 comes from tests/oracles.py, which tests every
base in turn, not from min_pal_base; it takes about 20 s.  Rerun only if
the transcriptions change.
"""

import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import golden_data as G
from oracles import naive_min_pal_base

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
POW2_MINBASE_MAX_N = 200


def write(name: str, header: tuple[str, ...], rows) -> None:
    path = DATA_DIR / name
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
    write(
        "table1.csv",
        ("N", "b"),
        [(n, b) for n, b in enumerate(G.TABLE1_MIN_BASES, start=1)],
    )
    write("table2.csv", ("n", "b", "c", "d"), G.TABLE2_ROWS)
    write("table3.csv", ("n", "k", "x", "r", "b", "representation"), G.TABLE3_ROWS)
    write("table4.csv", ("p", "n", "b", "representation", "binomial"), G.TABLE4_ROWS)
    write("table5.csv", ("n", "representation", "palindromic"), G.TABLE5_ROWS)
    write("pow2_minbase.csv", ("n", "b", "digits"), pow2_minbase_rows())


def pow2_minbase_rows():
    for n in range(1, POW2_MINBASE_MAX_N + 1):
        b, rep = naive_min_pal_base(1 << n)
        yield n, b, " ".join(map(str, rep.digits))


if __name__ == "__main__":
    main()
