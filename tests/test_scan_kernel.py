"""Differential tests of the band-split scan kernel behind
enumerate_palindromes and pow2_complete_scan.

The oracle converts n to base b for every base of the range and tests the
digit tuple: no bands, no leading-digit runs, no divisibility filter.
"""

import math

import pytest

from palinradix.numtheory import iroot
from palinradix.palindrome import (
    _palindromic_bases,
    enumerate_palindromes,
    pow2_complete_scan,
)
from palinradix.radix import is_palindrome, to_digits


def oracle(n, lo, hi, min_digits):
    out = []
    for b in range(lo, hi + 1):
        rep = to_digits(n, b)
        if len(rep.digits) >= min_digits and is_palindrome(rep):
            out.append((b, rep.digits))
    return out


def scan(n, lo, hi, min_digits, jobs=1):
    report = enumerate_palindromes(n, lo, hi, min_digits=min_digits, jobs=jobs)
    return [(r.rep.base, r.rep.digits) for r in report.records]


def edges(n):
    """Bases where the kernel changes what it does for n: the 3- and 4-digit
    band edges and the ends of some leading-digit runs in both bands."""
    cube, root = iroot(n, 3), math.isqrt(n)
    out = {cube, root}
    for c in (1, 2, 3, 7, 100, max(1, root // 64), max(1, root // 8)):
        out.add(math.isqrt(n // c))  # last base with leading digit >= c, 3 digits
        out.add(iroot(n // c, 3))  # the same with 4 digits
    return sorted(b for b in out if b >= 2)


@pytest.mark.parametrize("n_exp", range(1, 35))
def test_pow2_complete_range(n_exp):
    n = 1 << n_exp
    bound = math.isqrt(n)
    got = [(b, tuple(reversed(d))) for b, d in _palindromic_bases(n, 2, bound, 2)]
    assert got == oracle(n, 2, bound, 2)


def test_pow2_complete_scan_records():
    # the scan part of the report is the kernel's output, as records
    report = pow2_complete_scan(30)
    scanned = [(r.rep.base, r.rep.digits) for r in report.records if r.digit_count >= 3]
    assert scanned == oracle(1 << 30, 2, 1 << 15, 3)


def test_random_windows(rng):
    for _ in range(150):
        n = rng.randint(1, 10 ** rng.randint(1, 9))
        lo = rng.randint(2, 2 * math.isqrt(n) + 2)
        hi = lo + rng.randint(0, 1500)
        min_digits = rng.randint(1, 4)
        assert scan(n, lo, hi, min_digits) == oracle(n, lo, hi, min_digits), (n, lo, hi)


@pytest.mark.parametrize("min_digits", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "n",
    [
        10**9,  # a perfect cube: the band edge iroot(n, 3) is exact
        123457**2,  # a perfect square
        999999999,
        1 << 29,
        3**18,
        743008369,
    ],
)
def test_windows_at_edges(n, min_digits):
    for e in edges(n):
        for lo, hi in ((e - 40, e), (e, e + 40), (e - 3, e + 3), (e + 1, e + 1)):
            lo = max(lo, 2)
            want = oracle(n, lo, hi, min_digits)
            assert scan(n, lo, hi, min_digits) == want, (lo, hi)


def test_planted_palindromes(rng):
    # (c, b-1, ..., b-1, c)_b puts a palindrome on the first base of the
    # run of leading digit c, (c, 0, ..., 0, c)_b on the last one; small c
    # lands in the long-run part of a band, c near b in the per-base part
    for _ in range(300):
        b = rng.randint(3, 10**5)
        k = rng.randint(3, 5)
        c = rng.choice((1, 2, rng.randint(1, b - 1), b - 1))
        inner = rng.choice((0, b - 1, rng.randint(0, b - 1)))
        digits = (c,) + (inner,) * (k - 2) + (c,)
        n = sum(d * b**i for i, d in enumerate(digits))
        got = scan(n, max(2, b - 3), b + 3, 3)
        assert (b, digits) in got
        assert got == oracle(n, max(2, b - 3), b + 3, 3), (n, b)


def test_single_digit_band():
    # bases above n read it as one digit: hits only when min_digits is 1
    assert scan(10, 9, 14, 1) == [(9, (1, 1))] + [(b, (10,)) for b in range(11, 15)]
    assert scan(10, 9, 14, 2) == [(9, (1, 1))]


def test_jobs_two_equals_one():
    n = 1 << 33
    lo, hi = iroot(n, 3) - 500, math.isqrt(n) // 4
    assert scan(n, lo, hi, 2, jobs=2) == scan(n, lo, hi, 2, jobs=1)
