"""Palindrome search: minimal base, bounded scans, and the closed-form
families (3-digit, (1,c,1), and 2-digit) that cover bases beyond any scan.

Base-range scans walk the range by digit-count band and test most bases
with one modulo each (see _palindromic_bases).  They are embarrassingly
parallel: a range is split into contiguous chunks, each chunk is scanned
independently, and the chunk results are concatenated in order, so the
merged report is identical for any job count.  The environment variable
PALINRADIX_MAX_BASE, when set, caps the ranges of enumerate_palindromes
and pow2_complete_scan; a capped scan is reported as non-exhaustive.
min_pal_base and the closed-form families ignore it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator, NamedTuple

from .binomial import BinomialClassification, classify_binomial
from .numtheory import divisors, iroot
from .radix import MAX_BASE, Representation, from_digits, is_palindrome, to_digits


@dataclass(frozen=True)
class PalindromeRecord:
    """One palindromic representation, annotated for downstream checks.

    Construction enforces the even-length divisibility law: a palindrome
    with an even number of digits in base b forces (b+1) | value.  That law
    is a theorem, so a violation here means a bug, not bad input.
    """

    n_value: int
    rep: Representation
    digit_count: int
    mersenne_exponent: int | None
    binomial: BinomialClassification | None

    def __post_init__(self) -> None:
        if from_digits(self.rep) != self.n_value:
            raise ValueError(f"{self.rep} does not represent {self.n_value}")
        if not is_palindrome(self.rep):
            raise ValueError(f"{self.rep} is not palindromic")
        if self.digit_count != len(self.rep.digits):
            raise ValueError("digit_count mismatch")
        b = self.rep.base
        if self.mersenne_exponent is not None:
            if b != (1 << self.mersenne_exponent) - 1:
                raise ValueError(f"base {b} is not 2**{self.mersenne_exponent} - 1")
        elif (b + 1) & b == 0:
            raise ValueError(f"base {b} is 2**x - 1 but exponent not recorded")
        if self.digit_count % 2 == 0 and self.n_value % (b + 1) != 0:
            raise AssertionError(
                f"even-digit palindrome {self.rep} of {self.n_value} "
                f"violates (b+1) | N"
            )


def make_record(n: int, rep: Representation) -> PalindromeRecord:
    """Annotate a palindromic representation of n with structure flags."""
    b = rep.base
    x = (b + 1).bit_length() - 1 if (b + 1) & b == 0 else None
    return PalindromeRecord(n, rep, len(rep.digits), x, classify_binomial(rep))


@dataclass(frozen=True)
class ScanReport:
    target: int
    base_range: tuple[int, int]
    records: tuple[PalindromeRecord, ...]
    min_base: int | None
    exhaustive: bool


def _scan_cap() -> int | None:
    raw = os.environ.get("PALINRADIX_MAX_BASE")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"PALINRADIX_MAX_BASE is not an integer: {raw!r}")
    if cap < 2:
        raise ValueError(f"PALINRADIX_MAX_BASE must be >= 2, got {cap}")
    return cap


def _palindromic_lsf(n: int, base: int) -> list[int] | None:
    """Least-significant-first digits of n if palindromic in base, else None."""
    digs = []
    while n:
        n, r = divmod(n, base)
        digs.append(r)
    return digs if digs == digs[::-1] else None


# Leading-digit runs at least this long are filtered by one modulo per base,
# b | (n - c); on shorter runs, finding where the run ends (an integer root)
# costs more than that filter saves over computing each base's leading digit.
_RUN_MIN = 16


def _palindromic_bases(
    n: int, lo: int, hi: int, min_digits: int
) -> Iterator[tuple[int, list[int]]]:
    """Each base b in [lo, hi] in which n >= 1 is a palindrome of at least
    min_digits digits, ascending, with its least-significant-first digits.

    Bases are walked by digit-count band: b gives n exactly k digits iff
    iroot(n, k) < b <= iroot(n, k - 1).  A palindrome's last digit n % b
    equals its leading digit c = n // b**(k-1), and c is constant over runs
    of consecutive bases: on a long run a base is a candidate only if b
    divides n - c; elsewhere n % b is compared with each base's leading
    digit.  Both tests only filter: every candidate is confirmed by full
    digit extraction before it is yielded.

    >>> [b for b, _ in _palindromic_bases(2**12, 2, 64, 3)]
    [7, 15, 19, 31, 63]
    """
    k, power = 1, lo  # k: digit count of n in base lo
    while power <= n:
        k, power = k + 1, power * lo
    b = lo
    while b <= hi and k >= min_digits:
        if k == 1:  # b > n: every base reads n as one digit
            for x in range(b, hi + 1):
                yield x, [n]
            return
        p = k - 1
        top = min(hi, iroot(n, p))
        # below `switch`, runs are shorter than _RUN_MIN bases
        switch = min(top, iroot(p * _RUN_MIN * n, k))
        candidates = [x for x in range(b, switch + 1) if n % x == n // x**p]
        b = max(b, switch + 1)
        while b <= top:
            c = n // b**p
            end = min(top, iroot(n // c, p))
            m = n - c
            candidates += [x for x in range(b, end + 1) if not m % x]
            b = end + 1
        for x in candidates:
            digs = _palindromic_lsf(n, x)
            if digs is not None:
                yield x, digs
        k -= 1


def _scan_chunk(args: tuple[int, int, int, int]) -> list[PalindromeRecord]:
    n, lo, hi, min_digits = args
    return [
        make_record(n, Representation(b, tuple(reversed(digs))))
        for b, digs in _palindromic_bases(n, lo, hi, min_digits)
    ]


def enumerate_palindromes(
    n: int,
    b_lo: int,
    b_hi: int,
    min_digits: int = 2,
    jobs: int = 1,
) -> ScanReport:
    """Every base in [b_lo, b_hi] in which n is palindromic, in base order.

    min_digits defaults to 2, which excludes the trivial single-digit case
    n < b; pass 1 to include it.  The report is exhaustive unless the
    PALINRADIX_MAX_BASE cap truncated the range.
    """
    if n < 1:
        raise ValueError(f"target must be >= 1, got {n}")
    if b_lo < 2 or b_hi < b_lo:
        raise ValueError(f"invalid base range [{b_lo}, {b_hi}]")
    if b_hi > MAX_BASE:
        raise ValueError(f"base bound {b_hi} exceeds the 2**63 - 1 cap")
    if min_digits < 1:
        raise ValueError(f"min_digits must be >= 1, got {min_digits}")
    cap = _scan_cap()
    hi = b_hi if cap is None else min(b_hi, cap)
    exhaustive = hi == b_hi

    width = hi - b_lo + 1
    if jobs <= 1 or width < 4 * jobs:
        records = _scan_chunk((n, b_lo, hi, min_digits))
    else:
        step = -(-width // jobs)
        chunks = [
            (n, lo, min(lo + step - 1, hi), min_digits)
            for lo in range(b_lo, hi + 1, step)
        ]
        with Pool(jobs) as pool:
            records = [rec for part in pool.map(_scan_chunk, chunks) for rec in part]

    return ScanReport(
        target=n,
        base_range=(b_lo, b_hi),
        records=tuple(records),
        min_base=records[0].rep.base if records else None,
        exhaustive=exhaustive,
    )


def min_pal_base(n: int) -> tuple[int, Representation]:
    """The least base b > 1 in which n reads palindromically, with the digits.

    Any representation with three or more digits needs b <= isqrt(n), so
    those bases are scanned directly.  Beyond isqrt(n) only 1- and 2-digit
    representations remain: the 2-digit palindromes are (c,c)_b with
    n = c*(b+1), found through the divisors of n.  (1,1)_{n-1} always
    qualifies for n >= 3, so the search terminates.

    >>> min_pal_base(13)
    (3, Representation(base=3, digits=(1, 1, 1)))
    """
    if n < 1:
        raise ValueError(f"undefined for n = {n}; need n >= 1")
    if n == 1:
        return 2, Representation(2, (1,))
    if n == 2:
        return 3, Representation(3, (2,))
    for b in range(2, math.isqrt(n) + 1):
        digs = _palindromic_lsf(n, b)
        if digs is not None:
            return b, Representation(b, tuple(reversed(digs)))
    for d in divisors(n):
        c = n // d
        if 1 <= c < d - 1:
            return d - 1, Representation(d - 1, (c, c))
    raise AssertionError(f"no palindromic base found for {n}")


def naive_min_pal_base(n: int) -> tuple[int, Representation]:
    """Reference implementation: walk b = 2, 3, ... until a palindrome.

    Kept as an independent oracle for min_pal_base; do not use it for large
    prime n, where it walks all the way to n - 1.
    """
    if n < 1:
        raise ValueError(f"undefined for n = {n}; need n >= 1")
    b = 2
    while True:
        rep = to_digits(n, b)
        if is_palindrome(rep):
            return b, rep
        b += 1


def complete_scan_bound(n_exp: int) -> int:
    """Largest base allowing a >= 3-digit representation of 2**n_exp.

    A 3-digit representation needs b**2 + 1 <= N, so b <= isqrt(N); every
    base above hosts at most 2 digits, and the 2-digit palindromes are
    enumerated analytically by two_digit_reps.
    """
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    return math.isqrt(1 << n_exp)


def three_digit_reps(n: int, base: int) -> list[tuple[int, int]]:
    """The (c, d) with n = (c,d,c)_base, by closed form; length 0 or 1.

    A 3-digit palindrome in the base exists iff base**2 + 1 <= n <=
    base**3 - 1, c = n mod base is nonzero, and d = floor(n/base) - c*base
    lands in [0, base); c and d are forced, so there is at most one.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if not base * base + 1 <= n <= base**3 - 1:
        return []
    c = n % base
    if c == 0:
        return []
    d = n // base - c * base
    if 0 <= d <= base - 1:
        return [(c, d)]
    return []


class OneCOneRep(NamedTuple):
    base: int
    c: int
    binomial: bool


def one_c_one_reps(n_exp: int) -> list[OneCOneRep]:
    """All (1,c,1)_b representations of 2**n_exp.

    Each corresponds to a factorization 2**n - 1 = k*b with b <= k <= 2b-1,
    giving c = k - b.  The binomial member (c = 2, b = 2**(n/2) - 1, n even)
    is flagged; the rest are the non-binomial (1,c,1) rows.

    >>> one_c_one_reps(15)
    [OneCOneRep(base=151, c=66, binomial=False)]
    """
    if n_exp < 2:
        raise ValueError(f"exponent must be >= 2, got {n_exp}")
    m = (1 << n_exp) - 1
    out = []
    for b in divisors(m):
        if b < 2 or b > MAX_BASE:
            continue
        k = m // b
        if b <= k <= 2 * b - 1:
            binom = n_exp % 2 == 0 and b == (1 << (n_exp // 2)) - 1
            out.append(OneCOneRep(b, k - b, binom))
    return sorted(out)


def two_digit_reps(n: int) -> list[tuple[int, int]]:
    """All (b, c) with n = (c,c)_b, i.e. c*(b+1) = n and 1 <= c < b.

    For n = 2**m this forces b = 2**x - 1 and c = 2**(m-x).  Bases beyond
    the 2**63 - 1 cap (possible only for n >= 2**64) are omitted.

    >>> two_digit_reps(2023)
    [(118, 17), (288, 7), (2022, 1)]
    """
    if n < 1:
        raise ValueError(f"target must be >= 1, got {n}")
    out = []
    for d in divisors(n):
        b = d - 1
        c = n // d
        if 1 <= c < b <= MAX_BASE:
            out.append((b, c))
    return sorted(out)


def pow2_complete_scan(n_exp: int, min_digits: int = 2, jobs: int = 1) -> ScanReport:
    """Every palindromic representation of 2**n_exp with >= min_digits digits.

    Bases up to complete_scan_bound are scanned; the remaining bases can
    host only 2-digit palindromes, which two_digit_reps supplies in closed
    form (when min_digits <= 2).  The two parts never overlap: a 2-digit
    palindrome needs c*(b+1) = N with c < b, hence b > isqrt(N).
    """
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    n = 1 << n_exp
    bound = complete_scan_bound(n_exp)
    if bound >= 2:
        report = enumerate_palindromes(n, 2, bound, min_digits=min_digits, jobs=jobs)
        records = list(report.records)
        exhaustive = report.exhaustive
    else:
        records = []
        exhaustive = True
    if min_digits <= 2:
        for b, c in two_digit_reps(n):
            if b > bound:
                records.append(make_record(n, Representation(b, (c, c))))
        # the c = 1 row (1,1)_{2**n - 1} exceeds the base cap from n >= 64 on
        if n - 1 > MAX_BASE:
            exhaustive = False
    records.sort(key=lambda r: (r.rep.base, r.digit_count))
    return ScanReport(
        target=n,
        base_range=(2, max(bound, 2)),
        records=tuple(records),
        min_base=records[0].rep.base if records else None,
        exhaustive=exhaustive,
    )
