#!/usr/bin/env python3
"""Extend a checkpoint CSV of b(2**n), the least base in which 2**n reads
as a palindrome, and re-derive conjectures (a)-(c) on every row it holds.

    python3 scripts/pow2_minbase_sweep.py tests/data/pow2_minbase_ext.csv \\
        --min-n 201 --max-n 400

The checkpoint has the columns n,b,digits of tests/data/pow2_minbase.csv,
the digits most significant first and space-separated, one row per n in
ascending order; lines that start with # are comments.  A row whose
digits do not write 2**n as a palindrome in base b, or whose n is not one
more than the previous row's, is a usage error.  A missing file is
created, starting at --min-n (default 1), with a first line that labels
its rows as kernel output: they come from palindrome.min_pal_base, not
from a per-base oracle.  An existing file resumes after its last row; a
last line cut short by an interrupted run is dropped and computed again.
Each row is flushed as soon as it is computed.

The conjectures, as in `palinradix conjectures`: (a) b(2**n) = 2**x - 1,
(b) the representation has binomial form, (c) b(2**(a*a)) = 2**a - 1 for
every a >= 2 with a*a among the rows; (c) is inconclusive when there is
no such a.  Exit status 3 on a counterexample, 2 on a usage error, else 0:
an inconclusive (c) is no counterexample.  On one core (CPython 3.11,
x86-64), n = 201..300 takes 3-5 s in all, up to a quarter of a second an
n, and n = 301..400 takes 32-40 s, up to about 2 s an n.
"""

import argparse
import pathlib
import sys
import time

from palinradix.palindrome import min_pal_base
from palinradix.radix import Representation, from_digits, is_palindrome
from palinradix.theorems import ConjectureVerdict, minbase_reports

HEADER = "n,b,digits\n"
LABEL = (
    "# b(2**n) from palinradix.palindrome.min_pal_base (kernel output), "
    "written by scripts/pow2_minbase_sweep.py\n"
)


def read_checkpoint(path: pathlib.Path) -> dict[int, tuple[int, Representation]]:
    """The rows of the checkpoint, n -> (b, representation).

    Each row must write 2**n as a palindrome in base b, and its n must be
    one more than the previous row's; a row that breaks either is bad
    input, while one whose base or digits break a conjecture is a
    counterexample for the reports.  A last line without its newline, cut
    short by an interrupted run, is dropped from the file once the rest has
    been read.
    """
    text = path.read_text(encoding="ascii")
    kept = text[: text.rfind("\n") + 1]
    lines = [line for line in kept.splitlines() if not line.startswith("#")]
    if lines[:1] != [HEADER.strip()]:
        raise ValueError(f"{path}: the header is not {HEADER.strip()}")
    rows = {}
    for line in lines[1:]:
        n, b, digits = line.split(",")
        n, rep = int(n), Representation(int(b), tuple(map(int, digits.split())))
        if from_digits(rep) != 1 << n or not is_palindrome(rep):
            raise ValueError(f"{path}: row {line} is not a palindrome of 2**{n}")
        rows[n] = (rep.base, rep)
    # the dict keeps one row per n, so a repeated exponent leaves it
    # shorter than the rows and out of step with this range
    if rows and list(rows) != list(range(min(rows), min(rows) + len(lines) - 1)):
        raise ValueError(f"{path}: the rows are not consecutive exponents")
    if kept != text:
        path.write_text(kept, encoding="ascii")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkpoint", type=pathlib.Path)
    parser.add_argument("--min-n", type=int, default=1,
                        help="the first exponent of a new checkpoint")
    parser.add_argument("--max-n", type=int, required=True)
    args = parser.parse_args(argv)
    if args.min_n < 1:
        parser.error("--min-n must be >= 1")

    if args.checkpoint.exists():
        try:
            rows = read_checkpoint(args.checkpoint)
        except ValueError as exc:
            parser.error(str(exc))
        start = max(rows) + 1 if rows else args.min_n
    else:
        args.checkpoint.write_text(LABEL + HEADER, encoding="ascii")
        rows, start = {}, args.min_n

    with open(args.checkpoint, "a", encoding="ascii") as fh:
        for n in range(start, args.max_n + 1):
            began = time.perf_counter()
            b, rep = min_pal_base(1 << n)
            fh.write(f"{n},{b},{' '.join(map(str, rep.digits))}\n")
            fh.flush()
            rows[n] = (b, rep)
            print(f"n={n:>4}  b={b:<12} digits={len(rep.digits):<3} "
                  f"[{time.perf_counter() - began:.2f}s]")
    if not rows:
        parser.error("the checkpoint holds no rows; raise --max-n")

    reports = minbase_reports(rows)
    for r in reports:
        print(f"({r.conjecture_id}) {r.range_tested}: {r.verdict.value}")
        for witness in r.witnesses:
            print(f"      counterexample: {witness}")
    failed = any(r.verdict is ConjectureVerdict.COUNTEREXAMPLE for r in reports)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
