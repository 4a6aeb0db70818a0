"""Palindrome search: minimal base, bounded scans, and the closed-form
families (3-digit, (1,c,1), and 2-digit), kept as oracles for the scans.

Base-range scans, pow2_complete_scan and min_pal_base outside its 3-digit
bases all run on one kernel, _palindromic_bases.  It walks the bases by
digit count and leading digit and tests most of them with one modulo
each; two divisor laws take whole runs and bands at once, through one
step, whenever divisors() splits the number within a budget of half the
scan it replaces.  In the 3-digit band a run of one leading digit c takes
its candidates from divisors(n - c), and the runs long enough to gain
share one sieve that splits every n - c they need at once.  Where n has
an even number of digits, a palindrome forces (b + 1) | n, so from base
1024 on such a band's candidates come from divisors(n); for 2**n they are
the bases 2**x - 1 alone, and in the 2-digit band, past isqrt(n), they
are the (c,c)_b with c * (b + 1) = n.  From base 256 on, every base that
no divisor law takes is tested in blocks through one integer window
(_windowed): within a digit-count band the leading digit n // b**p does
not increase with b, so a block's palindromic bases have n % b between
the leading digits of its last and first base, one modulo and one
comparison a base, and only the few bases inside that window take the
exact leading-digit test.  Every candidate ends in one confirm step,
_confirmed, which extracts its digits once and builds the hit's
Representation; min_pal_base passes the 3-digit bases to it one by one.
A scan is one kernel call over its whole range, in one process: the
divisor steps take the long runs near isqrt(n) whole, so the cost of a
complete scan lies almost all in its lowest bases (of 2**50's bases up
to isqrt, the first eighth took 92% of the time), and a split of the
range gains nothing from more processes.  A scan covers exactly the base
range its caller passes, with no bound on the size of a base.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
# No scan starts workers; perfbench/spans.py swaps this name until ROADMAP item 6.
from multiprocessing import Pool  # noqa: F401
from typing import Iterator, NamedTuple

from .binomial import BinomialClassification, classify_binomial
from .numtheory import _trial_divide, divisors, iroot, shifted_splits
from .radix import Representation, _digits_lsf, from_digits, is_palindrome


@dataclass(frozen=True)
class PalindromeRecord:
    """One palindromic representation, annotated for downstream checks.

    Construction enforces the even-length divisibility law: a palindrome
    with an even number of digits in base b forces (b+1) | value.  That law
    is a theorem, so a violation here means a bug, not bad input.
    """

    n_value: int
    rep: Representation
    binomial: BinomialClassification | None

    def __post_init__(self) -> None:
        if from_digits(self.rep) != self.n_value:
            raise ValueError(f"{self.rep} does not represent {self.n_value}")
        if not is_palindrome(self.rep):
            raise ValueError(f"{self.rep} is not palindromic")
        if self.digit_count % 2 == 0 and self.n_value % (self.rep.base + 1) != 0:
            raise AssertionError(
                f"even-digit palindrome {self.rep} of {self.n_value} "
                f"violates (b+1) | N"
            )

    @property
    def digit_count(self) -> int:
        return len(self.rep.digits)

    @property
    def mersenne_exponent(self) -> int | None:
        """x when the base is 2**x - 1, else None."""
        b = self.rep.base
        return (b + 1).bit_length() - 1 if (b + 1) & b == 0 else None


def make_record(n: int, rep: Representation) -> PalindromeRecord:
    """Annotate a palindromic representation of n with structure flags."""
    return PalindromeRecord(n, rep, classify_binomial(rep))


@dataclass(frozen=True)
class ScanReport:
    target: int
    base_range: tuple[int, int]
    records: tuple[PalindromeRecord, ...]
    min_base: int | None
    # Always True, as every scan covers its whole range; perfbench's
    # contract pins the five fields.
    exhaustive: bool


# No window block is longer than this, so a search that stops at its first
# hit tests fewer than this many bases past it.
_SLICE = 1024
# Costs count in bases of the window inside one run, one modulo and one
# comparison a base: 55-85 ns each on n of 16-60 bits and about 180 ns at
# 64 bits (CPython 3.11, x86-64), measured on the modulo filter b | n - c
# that the window replaced, which timed within 5% of it.  A run or band
# of L = end - b bases tries divisors() within half of what its scan would
# cost, and is scanned when the try fails: Brent rho may take L / 2 bases'
# worth of steps (each one y -> y*y + c mod m), and the number may have at
# most L / _DIV_EACH divisors.  Tries that ran out took 430-500 ns a step
# on m of 36-60 bits, 5.7-6.3 bases of the filter there, and 520-590 ns,
# about 3 bases, at 70-80 bits: each step counts as _RHO_STEP bases, so
# that a failed try costs at most about half the scan, plus a primality
# test or two.  divisors() builds its list in 0.1-0.2 us a divisor on n
# with hundreds of divisors or more: each divisor counts as _DIV_EACH
# bases.  For a number that trial division splits fully, as it does 2**n,
# rho is never called and the rule is L >= _DIV_EACH * (divisor count).
_DIV_EACH = 16
_RHO_STEP = 8
# A 3-digit run of at least _SIEVE_RUN_MIN bases takes n - c's split from a
# sieve shared by the runs that follow it (numtheory.shifted_splits), not
# from trial division of its own, which cost about 12 us a run.  Run floors
# of 128 to 512 timed within the noise over 2**38..2**43; few runs shorter
# than 256 bases pay for n - c's divisors at _DIV_EACH bases each.
_SIEVE_RUN_MIN = 256
# The sieve runs over at most _SIEVE_SPAN leading digits at a time, so its
# memory does not grow with n: a complete scan of 2**43 sieves about 320
# digits, one of 2**56 about 6500.  It costs about 60 ns, one base, a prime
# below its bound, and about 1 us a digit.  Its bound is the number of
# bases the segment's runs hold from b on over _SIEVE_EACH, at most
# _SIEVE_MAX, so its primes cost at most 1.5% of the bases they serve; a
# segment whose bound would fall below _SIEVE_MIN, the wheel's reach in
# numtheory, is scanned, which keeps small scans (2**n, n <= 20, with at
# most about 300 bases in such runs) from sieving.  Near 2**43 a bound of
# 2**16 splits 58% of the n - c with no primality test, 2**14 36%.
_SIEVE_SPAN = 1024
_SIEVE_EACH = 16
_SIEVE_MIN = 200
_SIEVE_MAX = 1 << 16
# A split that leaves a cofactor m >= bound**2 needs a primality test of m,
# 50 us at 40 bits, and perhaps rho: runs of 256-1023 bases that made such
# tries paid 49-51 us each against 15-60 us of scan over 2**38..2**43, so a
# run with a cofactor tries only from _COFACTOR_RUN_MIN bases on.  Gates
# of 512 to 2048 timed alike over 2**38..2**43, and 1024 to 4096 at 2**50
# and 2**56.
_COFACTOR_RUN_MIN = 1024
# Even-digit bands are taken from divisors(n) only from this base on: below
# it bands hold a few bases, which cost less to scan than an integer root
# and a divisor filter.
_EVEN_BAND_MIN = 1024
# From _WINDOW_MIN on, every base that no divisor law takes is tested in
# blocks through one integer window (_windowed).  A block b..e lies inside
# one digit-count band, e <= iroot(n, p), where the leading digit
# c(x) = n // x**p does not increase as x grows; a palindrome needs
# n % x = c(x), so every palindromic base of the block has
# c(e) <= n % x <= c(b).  Only the bases inside that window take the
# exact test n % x == n // x**p, whose bigint power costs more the more
# digits n has.  The window holds about p * c * w / b + 1 of the b values
# n % x may take on a block of w bases, so a block of w = b*b / (64 p c)
# bases keeps about 1/64 + 1/b of them.  A block is at least 64 bases, and
# at most _SLICE, so that a search that stops at its first hit tests few
# bases past it.
# Per base, min of 25 rounds over 4000 bases of 2**k on one pinned core
# (CPython 3.11, x86-64, whose speed moved by up to 1.6x between rounds):
# 69-112 ns at p = 2 on 2**43, where the exact test alone took 119-184 in
# the same rounds; 130-163 at p = 10 on 2**186, where a float filter took
# 150-249; and 362-366 at p = 44 on 2**1100, where the exact test took
# 1450-1550.  Over b(2**n), n = 1..200, in 12 alternating rounds, floors of
# 64 and 1024 took 4% and 12% longer than one of 256; a minimum block of
# 1 base instead of 64 took 30% longer (0.300-0.411 against 0.226-0.287 s
# a round, 8 rounds), and a further cap of b / 16 bases timed the same
# there (0.340-0.397 against 0.325-0.443 s, 12 rounds) and on the
# complete scans of 2**38..2**43 (0.071-0.122 s both).  As one modulo and
# one comparison, the window took 44-58 ns a base against 50-86 ns for the
# two comparisons c(e) <= n % x <= c(b) at p = 2 on 2**43, 62-96 against
# 75-109 at p = 10 on 2**186, and 103-107 against 116-127 at p = 16 on
# 2**386 (min of 15 rounds over 4000 bases, three rounds, one pinned core).
# Below _WINDOW_MIN every base takes the exact test alone, which costs less
# per call on the small n whose searches end there.
_WINDOW_MIN = 256


def _divisors_within(
    n: int, length: int, split: tuple[dict[int, int], int] | None = None
) -> list[int] | None:
    """divisors(n), from the split when given, when the run or band
    b..b + length pays for it, else None: rho may take length / 2 bases'
    worth of steps, and n may have at most length / _DIV_EACH divisors."""
    return divisors(
        n,
        budget=length // (2 * _RHO_STEP),
        max_count=length // _DIV_EACH,
        split=split,
    )


def _sieved(n: int, b: int, hi: int, c: int) -> tuple[int, list | None]:
    """(c_lo, splits) for the next segment of leading digits, c_lo..c: at
    most _SIEVE_SPAN of them, none below the digit of the window's last
    3-digit base, and splits[x - c_lo] is the split of n - x.  The sieve's
    bound is the bases those digits' runs hold from b on over _SIEVE_EACH,
    at most _SIEVE_MAX; where it would fall below _SIEVE_MIN no sieve is
    made, and splits is None."""
    last = min(hi, math.isqrt(n))  # the window's last 3-digit base
    c_lo = max(c - _SIEVE_SPAN + 1, n // last**2)
    bound = min(_SIEVE_MAX, (min(last, math.isqrt(n // c_lo)) - b) // _SIEVE_EACH)
    return c_lo, shifted_splits(n, c_lo, c, bound) if bound >= _SIEVE_MIN else None


def _windowed(n: int, b: int, e: int, p: int, c: int) -> list[int]:
    """The bases x in b..e, all giving n p + 1 digits, where n % x equals
    the leading digit n // x**p, for c = n // b**p: only those with
    n // e**p <= n % x <= c, the window, take the exact test.  The window
    is one modulo and one comparison, (n - n // e**p) % x <= c - n // e**p,
    exact because every leading digit is below its base, c < b <= x.

    >>> _windowed(2**30, 448, 511, 3, 11)  # (2**30 - 8) % x <= 3
    [511]
    """
    ce = n // e**p
    m, span = n - ce, c - ce
    return [x for x in range(b, e + 1) if m % x <= span and n % x == n // x**p]


def _confirmed(n: int, bases) -> Iterator[Representation]:
    """The representation of n >= 1 in each candidate base where it is a
    palindrome, in the order of bases: every filter's candidates end here.

    Each base costs one digit extraction (radix._digits_lsf).  Digits that
    read the same both ways need no reversal, so the least-significant-first
    list is the most-significant-first tuple.
    """
    for b in bases:
        digs = _digits_lsf(n, b)
        if digs == digs[::-1]:
            yield Representation(b, tuple(digs))


def _divisor_bases(divs: list[int], lo: int, hi: int, shift: int) -> list[int]:
    """d - shift for the d in the sorted divs with lo <= d - shift <= hi."""
    return [
        d - shift
        for d in divs[bisect_left(divs, lo + shift) : bisect_right(divs, hi + shift)]
    ]


def _palindromic_bases(
    n: int, lo: int, hi: int, min_digits: int
) -> Iterator[Representation]:
    """The representation of n >= 1 in each base b in [lo, hi] where it is a
    palindrome of at least min_digits digits, in ascending base order.

    Bases are walked upward while tracking the digit count p + 1 of n in
    base b (b**p <= n < b**(p+1)).  A palindrome's last digit n % b equals
    its leading digit c = n // b**p, and c is constant over runs of
    consecutive bases.  Below _WINDOW_MIN, n % b is compared with each
    base's leading digit.  From there on every base that no divisor law
    takes is tested in blocks b..e that stay inside the band,
    e <= iroot(n, p), computed once a band: there c does not grow, so a
    palindromic base x has c(e) <= n % x <= c(b), and only the bases
    inside that window take the exact test n % x == n // x**p
    (_windowed).  Two divisor laws take whole runs and bands at once,
    through one step: where n has 3 digits, the candidates of a run are
    the divisors of n - c in it; where n has an even number p + 1 of
    digits, a palindrome forces (b + 1) | n, so from _EVEN_BAND_MIN on the
    band b..end = iroot(n, p) takes its candidates d - 1 from the divisors
    d of n in [b + 1, end + 1], and the walk resumes one digit lower.  At
    p = 1 this is the 2-digit law (c,c)_b iff c * (b + 1) = n.  A run or
    band of L = end - b bases tries that step within a budget
    (_divisors_within): it is scanned when Brent rho would take more than
    L / 2 bases' worth of steps, when n has more than L / _DIV_EACH
    divisors, or when the split leaves a cofactor past the Miller-Rabin
    bound.  A 3-digit run needs _SIEVE_RUN_MIN bases and tries once, on
    the first base the walk reaches in it; its blocks end on its last
    base, isqrt(n // c), so the next run's try starts on its first base.
    Its split of n - c comes from a sieve over the leading digits of the
    runs ahead (_sieved), made only where those runs hold enough bases to
    pay for it; a split that leaves a cofactor to test needs
    _COFACTOR_RUN_MIN bases.  n itself is trial-divided once a call, and
    divisors(n) is computed at most once, when an even band first pays for
    it.  All these tests only filter: every candidate is confirmed by full
    digit extraction (_confirmed), which builds its Representation.  Past
    n every base reads n as the one digit (n), yielded without a test.
    Hits are yielded as they are found, in ascending order, so a search
    may stop at its first one.

    >>> [str(r) for r in _palindromic_bases(2**12, 2, 64, 3)]
    ['(1,4,6,4,1)_7', '(1,3,3,1)_15', '(11,6,11)_19', '(4,8,4)_31', '(1,2,1)_63']

    From base 256 on, 2**30 has four digits, and the block 448..511 keeps
    the bases x with 8 <= 2**30 % x <= 11, the leading digits of 511 and
    448: of its 64 bases only 511, which passes the exact test and the
    confirm step:

    >>> [str(r) for r in _palindromic_bases(2**30, 256, 1023, 4)]
    ['(8,24,24,8)_511', '(1,3,3,1)_1023']
    """
    # n has p + 1 digits in base lo; a float estimate, made exact below
    p = n.bit_length() - 1 if lo == 2 else int(math.log(n, lo))
    while lo ** (p + 1) <= n:
        p += 1
    while lo**p > n:
        p -= 1
    if p < min_digits - 1:
        return
    b, top = lo, 0  # top: iroot(n, p), the band's last base, once needed
    divs = None  # divisors(n), once an even band has paid for it
    n_split = None  # n's small factors and cofactor, for every try of divisors(n)
    sieved_from, splits = n, None  # splits of n - c for c >= sieved_from
    scanned = 0  # an odd p whose band is scanned: its try of divisors(n) failed
    tried = 0  # the leading digit of the last 3-digit run that tried divisors(n - c)
    while p and b <= hi:
        c = n // b**p
        if not c:  # b**p > n: from b on, n has one digit fewer
            p, top = p - 1, 0
            if p < min_digits - 1:
                return
            continue
        if b >= _EVEN_BAND_MIN and p & 1 and p != scanned:
            # n has p + 1 digits, an even number: (b + 1) | n
            top = top or iroot(n, p)
            end = min(hi, top)
            if divs is None:
                n_split = n_split or _trial_divide(n)
                divs = _divisors_within(n, end - b, n_split)
            if divs is not None:
                yield from _confirmed(n, _divisor_bases(divs, b, end, 1))
                b = end + 1
                continue
            scanned = p
        if b < _WINDOW_MIN:
            if n % b == c:
                yield from _confirmed(n, (b,))
            b += 1
            continue
        top = top or iroot(n, p)
        e = min(hi, top, b + max(64, min(_SLICE, b * b // (64 * p * c))) - 1)
        if p == 2 and b >= _SIEVE_RUN_MIN * 2 * c:  # a long 3-digit run
            end = min(hi, math.isqrt(n // c))  # the run's last base
            if c != tried and end - b >= _SIEVE_RUN_MIN:
                # n = (c, d, c)_x forces x | n - c: one try a run
                tried = c
                if c < sieved_from:
                    sieved_from, splits = _sieved(n, b, hi, c)
                split = splits and splits[c - sieved_from]
                if (
                    split
                    and (split[1] == 1 or end - b >= _COFACTOR_RUN_MIN)
                    and (divs_m := _divisors_within(n - c, end - b, split)) is not None
                ):
                    yield from _confirmed(n, _divisor_bases(divs_m, b, end, 0))
                    b = end + 1
                    continue
            e = min(e, end)  # so that the next run's try starts at its first base
        yield from _confirmed(n, _windowed(n, b, e, p, c))
        b = e + 1
    for x in range(b, hi + 1):  # b > n: every base reads n as one digit
        yield Representation(x, (n,))


def enumerate_palindromes(
    n: int, b_lo: int, b_hi: int, min_digits: int = 2
) -> ScanReport:
    """Every base in [b_lo, b_hi] in which n is palindromic, in base order,
    from one kernel call.

    min_digits defaults to 2, which excludes the trivial single-digit case
    n < b; pass 1 to include it.  The report covers exactly [b_lo, b_hi],
    so it is always exhaustive.
    """
    if n < 1:
        raise ValueError(f"target must be >= 1, got {n}")
    if b_lo < 2 or b_hi < b_lo:
        raise ValueError(f"invalid base range [{b_lo}, {b_hi}]")
    if min_digits < 1:
        raise ValueError(f"min_digits must be >= 1, got {min_digits}")
    records = tuple(
        make_record(n, rep) for rep in _palindromic_bases(n, b_lo, b_hi, min_digits)
    )
    return ScanReport(
        target=n,
        base_range=(b_lo, b_hi),
        records=records,
        min_base=records[0].rep.base if records else None,
        exhaustive=True,
    )


def min_pal_base(n: int) -> tuple[int, Representation]:
    """The least base b > 1 in which n reads palindromically, with the digits.

    Three searches in ascending base order, each stopping at its first hit.
    Any representation with three or more digits needs b <= isqrt(n).  The
    bases up to iroot(n, 3), which give n four or more digits, are searched
    by the band kernel _palindromic_bases: from base 1024 on, a band where
    n has an even number of digits takes its candidates from divisors(n)
    when n splits within the band's budget (_divisors_within), as 2**n
    does, whose candidates there are the bases 2**x - 1.  The 3-digit
    bases after them are confirmed one by one.  Beyond isqrt(n) only 1- and
    2-digit representations remain, and the kernel takes the 2-digit band
    (isqrt(n), n] as its even band at p = 1: (c,c)_b with n = c*(b+1),
    from the divisors of n.  (1,1)_{n-1} qualifies for every n >= 3; the
    last search runs to base n + 1, where every n reads as the single digit
    (n), so it also finds b(1) = 2 as (1)_2 and b(2) = 3 as (2)_3, and it
    always ends on a hit.

    >>> min_pal_base(13)
    (3, Representation(base=3, digits=(1, 1, 1)))
    """
    if n < 1:
        raise ValueError(f"undefined for n = {n}; need n >= 1")
    cube, root = iroot(n, 3), math.isqrt(n)
    for rep in _palindromic_bases(n, 2, cube, 4):
        return rep.base, rep
    # The 3-digit bases stay on the per-base loop for now (ROADMAP item 6):
    # the minbase-random benchmark computes its references untimed, so a
    # faster search there runs more passes and makes each run longer.  The
    # kernel above never reaches its 3-digit divisor path either: up to
    # iroot(n, 3), n has four or more digits.
    for rep in _confirmed(n, range(cube + 1, root + 1)):
        return rep.base, rep
    for rep in _palindromic_bases(n, root + 1, n + 1, 1):
        return rep.base, rep


def complete_scan_bound(n_exp: int) -> int:
    """Largest base allowing a >= 3-digit representation of 2**n_exp.

    A 3-digit representation needs b**2 + 1 <= N, so b <= isqrt(N); every
    base above hosts at most 2 digits, and the scan kernel takes those
    bases' palindromes (c,c)_b from the divisors of N.
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
    for b in divisors(m):  # b = 1 fails b <= k <= 2b - 1, as m >= 3
        k = m // b
        if b <= k <= 2 * b - 1:
            binom = n_exp % 2 == 0 and b == (1 << (n_exp // 2)) - 1
            out.append(OneCOneRep(b, k - b, binom))
    return sorted(out)


def two_digit_reps(n: int) -> list[tuple[int, int]]:
    """All (b, c) with n = (c,c)_b, i.e. c*(b+1) = n and 1 <= c < b.

    For n = 2**m this forces b = 2**x - 1 and c = 2**(m-x).  A closed
    form, independent of the scan kernel, which finds the same palindromes
    in its 2-digit band.

    >>> two_digit_reps(2023)
    [(118, 17), (288, 7), (2022, 1)]
    """
    if n < 1:
        raise ValueError(f"target must be >= 1, got {n}")
    out = []
    for d in divisors(n):
        b = d - 1
        c = n // d
        if 1 <= c < b:
            out.append((b, c))
    return sorted(out)


def pow2_complete_scan(n_exp: int, min_digits: int = 2, lo: int = 2) -> ScanReport:
    """Every palindromic representation of 2**n_exp with >= min_digits
    digits, in the bases from lo on.

    One enumerate_palindromes call scans the bases from lo to the last one
    that can give N = 2**n_exp min_digits digits: N - 1, or
    complete_scan_bound for three or more digits.  Past that bound the
    kernel takes the 2-digit palindromes from the divisors of N, so the
    report is exhaustive for every n_exp.  The report's base_range is
    (lo, max(complete_scan_bound, 2)), and lo must lie in it.
    """
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    if min_digits < 1:
        raise ValueError(f"min_digits must be >= 1, got {min_digits}")
    n, bound = 1 << n_exp, max(complete_scan_bound(n_exp), 2)
    if not 2 <= lo <= bound:
        raise ValueError(f"invalid base range [{lo}, {bound}]")
    last = n - 1 if min_digits <= 2 else bound
    # base 2 reads 2**1 as (1,0), so the range [2, 2] stands in for none
    report = enumerate_palindromes(n, lo, max(bound, last), min_digits)
    return replace(report, base_range=(lo, bound))
