"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Every comparison is exact (integer equality, byte-identical displays); the
only tolerances are the wall-clock budgets pinned per criterion, which sit
far above measured times so they only trip on a real algorithmic regression.
Run with -rA (the default here) to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager

import golden_data as G
from palinradix.binomial import (
    central_binomial,
    classify_binomial,
    construct_binomial,
    small_binomial_base,
)
from palinradix.numtheory import is_prime
from palinradix.palindrome import (
    enumerate_palindromes,
    min_pal_base,
    pow2_complete_scan,
    three_digit_reps,
)
from palinradix.radix import is_palindrome, split_common_factor, to_digits
from palinradix.tables import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from palinradix.theorems import composite_palindrome_witness, repunit_palindromes


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num}] {label}: FAIL {elapsed:.2f}s ({exc})")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"[criterion {num}] {label}: FAIL {elapsed:.2f}s "
            f"(budget {budget:g}s exceeded)"
        )
        raise AssertionError(
            f"criterion {num} exceeded its {budget:g}s budget: {elapsed:.2f}s"
        )
    window = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget is not None else "")
    print(f"[criterion {num}] {label}: PASS {window}")


def test_criterion_1_minimal_bases():
    with criterion(1, "minimal bases b(1..100) incl. red set", budget=1.0):
        rows = table1_rows()
        assert [r.b for r in rows] == G.TABLE1_MIN_BASES
        red = {r.n for r in rows if r.b == r.n - 1}
        assert red == G.TABLE1_RED


def test_criterion_2_pow2_minimal_representations():
    with criterion(2, "b(2^n) and full representations, n = 1..64", budget=10.0):
        rows = table3_rows()
        assert [tuple(r) for r in rows] == G.TABLE3_ROWS
        # re-derive each digit tuple independently of the display strings
        for n, k, x, r, b, display in G.TABLE3_ROWS:
            base, rep = min_pal_base(1 << n)
            assert base == b == (1 << x) - 1
            mult, pbase, pdigits = G.parse_display(display)  # digits expanded
            assert pbase == b and mult == 1 << r
            assert rep.digits == tuple(pdigits)
            assert rep.digits == tuple(
                (1 << r) * math.comb(k, i) for i in range(k, -1, -1)
            )


def test_criterion_3_nonbinomial_three_digit_rows():
    with criterion(3, "non-binomial 3-digit rows for n <= 20", budget=30.0):
        assert [tuple(r) for r in table2_rows()] == G.TABLE2_ROWS


def test_criterion_4_prime_power_table():
    with criterion(4, "prime-power representations p^n < 2^30", budget=60.0):
        rows = table4_rows()
        assert [tuple(r) for r in rows] == G.TABLE4_ROWS
        flagged = {(p, n) for p, n, _, _, binom in G.TABLE4_ROWS if not binom}
        assert (3, 7) in flagged and (7, 6) in flagged


def test_criterion_5_base3_column():
    with criterion(5, "base-3 digits of 2^n, n <= 30", budget=1.0):
        rows = table5_rows()
        assert [tuple(r) for r in rows] == G.TABLE5_ROWS
        assert {r.n for r in rows if r.palindromic} == {1, 2, 3, 4}


def test_criterion_6_exhaustive_claim():
    with criterion(6, "complete scans n <= 24: binomial or 3 digits", budget=300.0):
        for n in range(1, 25):
            report = pow2_complete_scan(n)
            assert report.exhaustive, n
            for rec in report.records:
                assert rec.binomial is not None or rec.digit_count == 3, (
                    n,
                    rec.rep,
                )
        # independent completeness check: the scan-plus-analytic merge finds
        # exactly what a walk over every base finds
        for n in range(1, 19):
            value = 1 << n
            naive = set()
            for b in range(2, max(value, 3)):
                rep = to_digits(value, b)
                if len(rep.digits) >= 2 and is_palindrome(rep):
                    naive.add((b, rep.digits))
            got = {
                (rec.rep.base, rec.rep.digits)
                for rec in pow2_complete_scan(n).records
            }
            assert got == naive, n


def test_criterion_7_theorem_oracles():
    with criterion(7, "theorem oracles (4 families, zero failures)"):
        rng = random.Random(20230816)

        # (i) closed-form 3-digit solutions == brute force over (c, d)
        for trial in range(10**4):
            base = rng.randrange(2, 31) if trial % 20 else rng.randrange(31, 101)
            n = rng.randrange(1, base**3 + base * base)
            brute = [
                (c, d)
                for c in range(1, base)
                for d in range(base)
                if (c * base + d) * base + c == n
            ]
            assert three_digit_reps(n, base) == brute, (n, base)

        # (ii) every even-digit record in a scan obeys (b+1) | N
        for n_exp in range(1, 25):
            for rec in pow2_complete_scan(n_exp).records:
                if rec.digit_count % 2 == 0:
                    assert (1 << n_exp) % (rec.rep.base + 1) == 0
        for n in (5040, 3**9, 10**6, 2**20 + 1):
            for rec in enumerate_palindromes(n, 2, 700).records:
                if rec.digit_count % 2 == 0:
                    assert n % (rec.rep.base + 1) == 0

        # (iii) classify . construct is the identity on valid triples
        done = 0
        while done < 10**4:
            alpha = rng.randrange(1, 1 << 10)
            k = rng.randrange(0, 21)
            base = rng.randrange(2, 1 << 20)
            rep = construct_binomial(alpha, k, base)
            if rep is None:
                continue
            cls = classify_binomial(rep)
            assert cls is not None and (cls.alpha, cls.degree) == (alpha, k)
            done += 1

        # (iv) the constructive base passes the central-digit gate everywhere
        for n in range(2, 10**4 + 1):
            y, k, r = small_binomial_base(n)
            assert n == k * y + r
            assert (1 << r) * central_binomial(k) < (1 << y) - 1


def test_criterion_8_repunit_census():
    with criterion(8, "repunit perfect powers, x <= 100, n <= 30", budget=30.0):
        entries = repunit_palindromes(100, 30)
        assert len(entries) == 99 * 28
        powers = {(e.base, e.length): e.power for e in entries if e.power}
        assert powers == G.REPUNIT_POWERS


def test_criterion_9_minimal_base_dichotomy():
    with criterion(9, "b(N) = N-1 dichotomy and witnesses, N <= 10^4", budget=120.0):
        for n in range(1, 10**4 + 1):
            if min_pal_base(n)[0] == n - 1:
                assert n in (3, 4, 6) or is_prime(n), n
            wit = composite_palindrome_witness(n)
            if n > 6 and not is_prime(n):
                assert wit is not None, n
                assert wit.base < n - 1
                assert is_palindrome(wit)
                assert sum(
                    d * wit.base**i for i, d in enumerate(reversed(wit.digits))
                ) == n
            else:
                assert wit is None
