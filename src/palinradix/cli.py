"""Command-line interface.

Subcommands: minbase (single-value query), scan (palindrome search over a
base range for 2**n), table (regenerate a reference table), conjectures
(evidence sweep).  Exit codes: 0 success, 2 usage error, 3 verified claim
violation or golden mismatch.  All output is deterministic for fixed
arguments, whatever --jobs is; --jobs must be >= 1 and is capped at the
CPU count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import tables
from .palindrome import (
    PalindromeRecord,
    complete_scan_bound,
    enumerate_palindromes,
    min_pal_base,
    pow2_complete_scan,
)
from .radix import MAX_BASE, split_common_factor
from .theorems import ConjectureVerdict, check_conjectures

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OutputRecord:
    """Serialization form of one palindromic representation.

    All numeric values that can exceed 2**53 travel as decimal strings so
    JSON consumers never lose precision.  The binomial fields are present
    together or absent together.
    """

    schema_version: int
    target: str
    base: str
    digits: list[str]
    palindromic: bool
    digit_count: int
    binomial_alpha: str | None
    binomial_k: int | None
    mersenne_x: int | None

    @classmethod
    def from_record(cls, rec: PalindromeRecord) -> "OutputRecord":
        return cls(
            schema_version=SCHEMA_VERSION,
            target=str(rec.n_value),
            base=str(rec.rep.base),
            digits=[str(d) for d in rec.rep.digits],
            palindromic=True,
            digit_count=rec.digit_count,
            binomial_alpha=str(rec.binomial.alpha) if rec.binomial else None,
            binomial_k=rec.binomial.degree if rec.binomial else None,
            mersenne_x=rec.mersenne_exponent,
        )

    def to_json_obj(self) -> dict:
        obj = {
            "schema_version": self.schema_version,
            "target": self.target,
            "base": self.base,
            "digits": self.digits,
            "palindromic": self.palindromic,
            "digit_count": self.digit_count,
        }
        if self.binomial_alpha is not None:
            obj["binomial_alpha"] = self.binomial_alpha
            obj["binomial_k"] = self.binomial_k
        if self.mersenne_x is not None:
            obj["mersenne_x"] = self.mersenne_x
        return obj


_SCAN_CSV_HEADER = (
    "target",
    "base",
    "digits",
    "palindromic",
    "digit_count",
    "binomial_alpha",
    "binomial_k",
    "mersenne_x",
)


def _records_csv(records: list[OutputRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SCAN_CSV_HEADER)
    for rec in records:
        writer.writerow(
            (
                rec.target,
                rec.base,
                " ".join(rec.digits),
                "true" if rec.palindromic else "false",
                rec.digit_count,
                rec.binomial_alpha or "",
                "" if rec.binomial_k is None else rec.binomial_k,
                "" if rec.mersenne_x is None else rec.mersenne_x,
            )
        )
    return buf.getvalue()


def _records_json(records: list[OutputRecord]) -> str:
    return json.dumps([r.to_json_obj() for r in records], indent=2) + "\n"


def _capped_jobs(jobs: int) -> int:
    """--jobs capped at the CPU count: more workers than CPUs only add start-up."""
    return min(jobs, os.cpu_count() or 1)


def cmd_minbase(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.pow2 is None):
        print("minbase: give exactly one of N or --pow2 n", file=sys.stderr)
        return 2
    if args.pow2 is not None:
        if args.pow2 < 1:
            print("minbase: --pow2 exponent must be >= 1", file=sys.stderr)
            return 2
        value, label = 1 << args.pow2, f"2^{args.pow2}"
    else:
        if args.n < 1:
            print("minbase: N must be >= 1", file=sys.stderr)
            return 2
        value, label = args.n, str(args.n)
    b, rep = min_pal_base(value)
    print(f"b({label}) = {b}")
    print(f"{label} = {split_common_factor(rep)}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    n_exp = args.pow2
    if n_exp < 1:
        print("scan: --pow2 exponent must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("scan: --jobs must be >= 1", file=sys.stderr)
        return 2
    jobs = _capped_jobs(args.jobs)
    if args.max_base is not None and args.max_base > MAX_BASE:
        print(f"scan: --max-base exceeds {MAX_BASE}", file=sys.stderr)
        return 2
    if args.max_base is None and args.min_base == 2:
        report = pow2_complete_scan(n_exp, min_digits=args.min_digits, jobs=jobs)
    else:
        hi = args.max_base if args.max_base is not None else complete_scan_bound(n_exp)
        if args.min_base < 2 or hi < args.min_base:
            print(f"scan: invalid base range [{args.min_base}, {hi}]", file=sys.stderr)
            return 2
        report = enumerate_palindromes(
            1 << n_exp, args.min_base, hi, min_digits=args.min_digits, jobs=jobs
        )

    records = [OutputRecord.from_record(rec) for rec in report.records]
    violations = [
        rec for rec in report.records if rec.binomial is None and rec.digit_count != 3
    ]

    if args.format == "json":
        sys.stdout.write(_records_json(records))
    elif args.format == "csv":
        sys.stdout.write(_records_csv(records))
    else:
        for rec in report.records:
            flags = [f"digits={rec.digit_count}"]
            flags.append(
                f"binomial alpha={rec.binomial.alpha} k={rec.binomial.degree}"
                if rec.binomial
                else "non-binomial"
            )
            if rec.mersenne_exponent is not None:
                flags.append(f"mersenne_x={rec.mersenne_exponent}")
            print(f"2^{n_exp} = {split_common_factor(rec.rep)}  [{', '.join(flags)}]")
        scope = "complete" if report.exhaustive else "partial (capped)"
        print(
            f"# scanned bases {report.base_range[0]}..{report.base_range[1]} "
            f"({scope}), {len(report.records)} palindromic representation(s)"
        )
        if violations:
            print("# claim VIOLATED: record(s) neither binomial nor 3-digit:")
            for rec in violations:
                print(f"#   {rec.rep}")
        else:
            print("# claim holds: every record is binomial or has three digits")
    if violations:
        if args.format != "text":
            print(
                f"claim violated by {len(violations)} record(s)", file=sys.stderr
            )
        return 3
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.table_id not in tables.TABLE_IDS:
        print(f"table: unknown table id {args.table_id}", file=sys.stderr)
        return 2
    rendered = tables.render(args.table_id, args.format)
    sys.stdout.write(rendered)
    if args.golden is not None:
        try:
            with open(args.golden, "r", encoding="utf-8") as fh:
                expected = fh.read()
        except OSError as exc:
            print(f"table: cannot read golden file: {exc}", file=sys.stderr)
            return 2
        if rendered != expected:
            got = rendered.splitlines()
            want = expected.splitlines()
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    print(
                        f"golden mismatch at line {i + 1}: got {g!r}, want {w!r}",
                        file=sys.stderr,
                    )
                    break
            else:
                print(
                    f"golden mismatch: {len(got)} lines computed, "
                    f"{len(want)} expected",
                    file=sys.stderr,
                )
            return 3
        print(f"golden match: {args.golden}", file=sys.stderr)
    return 0


def cmd_conjectures(args: argparse.Namespace) -> int:
    if args.max_n < 4:
        print("conjectures: --max-n must be >= 4", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("conjectures: --jobs must be >= 1", file=sys.stderr)
        return 2
    reports = check_conjectures(args.max_n, jobs=_capped_jobs(args.jobs))
    failed = False
    for report in reports:
        print(f"({report.conjecture_id}) range {report.range_tested}: "
              f"{report.verdict.value}")
        if report.verdict is ConjectureVerdict.COUNTEREXAMPLE:
            failed = True
            for witness in report.witnesses:
                print(f"    counterexample: {witness}")
        elif report.conjecture_id == "d":
            for witness in report.witnesses:
                exps = ",".join(map(str, witness["exponents"]))
                print(
                    f"    base {witness['base']}: {witness['count']} "
                    f"exponent(s) [{exps}]"
                )
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palinradix",
        description="Palindromic radix representations: minimal bases, scans, "
        "reference tables, and conjecture sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minbase", help="smallest base in which N is palindromic")
    p.add_argument("n", nargs="?", type=int, default=None, metavar="N")
    p.add_argument("--pow2", type=int, default=None, metavar="n",
                   help="query N = 2**n instead of a literal N")
    p.set_defaults(func=cmd_minbase)

    p = sub.add_parser("scan", help="all palindromic representations of 2**n")
    p.add_argument("--pow2", type=int, required=True, metavar="n")
    p.add_argument("--min-base", type=int, default=2)
    p.add_argument("--max-base", type=int, default=None,
                   help="default: isqrt(2**n), with the 2-digit family "
                   "appended analytically")
    p.add_argument("--min-digits", type=int, default=2)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (>= 1, capped at the CPU count)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="regenerate a reference table")
    p.add_argument("table_id", type=int, metavar="ID", help="1..5")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--golden", default=None, metavar="PATH",
                   help="diff the output against a stored snapshot")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("conjectures", help="evidence sweep for the open questions")
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (>= 1, capped at the CPU count)")
    p.set_defaults(func=cmd_conjectures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
