#!/usr/bin/env python3
"""Sweep complete palindrome scans of 2**n over a range of exponents and
check that every record is binomial-form or 3-digit.

Prints one summary line per exponent plus any violating representations.
Exit status 0 if the claim holds across the range, 3 otherwise, 2 on a
usage error.
Runtime grows with isqrt(2**n), about sqrt(2)x per step of n: n = 50 takes
about 0.2 seconds, n = 56 about 1 second (CPython 3.11, x86-64).
"""

import argparse
import sys
import time

from palinradix.palindrome import pow2_complete_scan
from palinradix.theorems import claim_violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=24)
    args = parser.parse_args(argv)
    if not 1 <= args.min_n <= args.max_n:
        parser.error("need 1 <= --min-n <= --max-n")

    violations = 0
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        report = pow2_complete_scan(n)
        bad = [rec.rep for rec in claim_violations(report.records)]
        elapsed = time.perf_counter() - start
        status = "ok" if not bad else f"{len(bad)} violation(s)"
        print(
            f"n={n:>3}  bases 2..{report.base_range[1]:<12} "
            f"records={len(report.records):<4} complete {status}  "
            f"[{elapsed:.2f}s]"
        )
        for rep in bad:
            print(f"      violates: {rep}")
        violations += len(bad)

    if violations:
        print(f"claim FAILED: {violations} violating record(s)", file=sys.stderr)
        return 3
    print("claim holds over the full range", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
