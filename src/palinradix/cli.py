"""Command-line interface.

Subcommands: minbase (single-value query), scan (palindrome search over a
base range for 2**n), table (regenerate a reference table), conjectures
(evidence sweep).  Exit codes: 0 success, 2 usage error, 3 verified claim
violation or golden mismatch.  All output is deterministic for fixed
arguments, whatever --jobs is; --jobs must be >= 1.  conjectures runs that
many worker processes, which check_conjectures caps at the number of CPUs
this process may run on (its CPU affinity set where the OS has one, else
the CPU count); scan accepts --jobs and runs in one process.  scan
--min-base B scans only the bases from B on, so it costs only the range it
asks for.  The argument parser is built once per process, on the first
main() call, and reused by every later call; the palinradix command calls
main() once, so only callers that run main() in-process more than once
gain from it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import tables
from .palindrome import (
    PalindromeRecord,
    complete_scan_bound,
    enumerate_palindromes,
    min_pal_base,
    pow2_complete_scan,
)
from .radix import MAX_BASE, split_common_factor
from .theorems import ConjectureVerdict, check_conjectures, claim_violations

SCHEMA_VERSION = 1


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


def _record_fields(rec: PalindromeRecord) -> dict:
    """The output fields of one record, keyed by _SCAN_CSV_HEADER in its
    order; None for an absent field.

    Values that can exceed 2**53 are decimal strings, so JSON consumers
    never lose precision.  The binomial fields are present together or
    absent together.
    """
    binom = rec.binomial
    values = (
        str(rec.n_value),
        str(rec.rep.base),
        [str(d) for d in rec.rep.digits],
        True,
        rec.digit_count,
        str(binom.alpha) if binom else None,
        binom.degree if binom else None,
        rec.mersenne_exponent,
    )
    return dict(zip(_SCAN_CSV_HEADER, values))


def _records_csv(records: tuple[PalindromeRecord, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SCAN_CSV_HEADER)
    for rec in records:
        fields = _record_fields(rec)
        fields["digits"] = " ".join(fields["digits"])
        fields["palindromic"] = "true"
        writer.writerow("" if v is None else v for v in fields.values())
    return buf.getvalue()


def _records_json(records: tuple[PalindromeRecord, ...]) -> str:
    objs = [
        {"schema_version": SCHEMA_VERSION}
        | {k: v for k, v in _record_fields(rec).items() if v is not None}
        for rec in records
    ]
    return json.dumps(objs, indent=2) + "\n"


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
    if args.max_base is not None and args.max_base > MAX_BASE:
        print(f"scan: --max-base exceeds {MAX_BASE}", file=sys.stderr)
        return 2
    hi = args.max_base
    if hi is None:
        hi = max(complete_scan_bound(n_exp), 2)
    if args.min_base < 2 or hi < args.min_base:
        print(f"scan: invalid base range [{args.min_base}, {hi}]", file=sys.stderr)
        return 2
    if args.max_base is None:
        report = pow2_complete_scan(n_exp, min_digits=args.min_digits, lo=args.min_base)
    else:
        report = enumerate_palindromes(
            1 << n_exp, args.min_base, hi, min_digits=args.min_digits
        )

    violations = claim_violations(report.records)

    if args.format == "json":
        sys.stdout.write(_records_json(report.records))
    elif args.format == "csv":
        sys.stdout.write(_records_csv(report.records))
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
                if len(got) != len(want):
                    detail = f"{len(got)} lines computed, {len(want)} expected"
                elif rendered.endswith("\n") != expected.endswith("\n"):
                    detail = "the final newline differs"
                else:
                    detail = "the line endings differ"
                print(f"golden mismatch: {detail}", file=sys.stderr)
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
    reports = check_conjectures(args.max_n, jobs=args.jobs)
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
    """A new parser for the four subcommands.

    main() builds one on its first call and reuses it for every later call
    in the process (_parser), so each subcommand's set_defaults(func=cmd_*)
    binds the cmd_* function the module held at that first build; a test
    that patches a cmd_* function clears the cache with
    _parser.cache_clear().
    """
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
                   help="default: isqrt(2**n), plus every larger base in which "
                   "2**n is a 2-digit palindrome (c,c)_b, from the divisors "
                   "of 2**n")
    p.add_argument("--min-digits", type=int, default=2)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted (>= 1) for compatibility; a scan runs in "
                   "one process")
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
                   help="worker processes (>= 1, capped at the CPUs this "
                   "process may run on)")
    p.set_defaults(func=cmd_conjectures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main(): built on its first call, then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
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
