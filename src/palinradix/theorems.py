"""Verification harness: witness constructions, structural laws for prime
powers, the repunit perfect-power census, and the conjecture sweeps.

Every function here re-derives its claim from scratch rather than trusting
table data; the golden tables in the test suite compare against these
outputs, not the other way around.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Any, NamedTuple

from .numtheory import factorize, is_prime, perfect_power
from .palindrome import PalindromeRecord, min_pal_base
from .binomial import classify_binomial
from .radix import Representation, is_palindrome, to_digits


def composite_palindrome_witness(n: int) -> Representation | None:
    """A palindrome for composite n > 6 in a base smaller than n - 1.

    Existence proves the contrapositive of the minimal-base dichotomy: if
    b(N) = N - 1 then N is 3, 4, 6, or a prime.  For n = a*m with smallest
    prime factor a < m - 1 the witness is (a,a)_{m-1}; odd prime squares
    fall through to (1,2,1)_{a-1}, except 9, which only works as (1,0,0,1)_2.

    >>> str(composite_palindrome_witness(15))
    '(3,3)_4'
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n <= 6 or is_prime(n):
        return None
    if n == 9:
        return Representation(2, (1, 0, 0, 1))
    a = next(iter(factorize(n)))
    m = n // a
    if a < m - 1:
        return Representation(m - 1, (a, a))
    # remaining case: n = a*a for an odd prime a >= 5
    return Representation(a - 1, (1, 2, 1))


def even_digit_base_law(p: int, n_exp: int, scan_bound: int) -> bool:
    """Check that every even-length palindrome of p**n_exp up to scan_bound
    sits in a base of the form p**x - 1.

    An even-length palindrome in base b forces (b+1) | p**n, so b + 1 must
    be a power of p; this scans for violations instead of assuming the
    argument.  It converts every base with to_digits rather than reading the
    scan kernel's hits: from base 1024 on, the kernel's even-digit bands
    offer only the bases with (b+1) | N, so its hits assume the law checked
    here.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    value = p**n_exp
    for b in range(2, scan_bound + 1):
        rep = to_digits(value, b)
        if len(rep.digits) % 2 != 0 or not is_palindrome(rep):
            continue
        t = b + 1
        while t % p == 0:
            t //= p
        if t != 1:
            return False
    return True


class PowerNeighborReps(NamedTuple):
    power: Representation
    plus_one: Representation
    minus_one: Representation


def power_neighbor_reps(z: int, n_exp: int) -> PowerNeighborReps:
    """Base-z representations of z**n, z**n + 1, and z**n - 1.

    z**n is (1,0,...,0)_z with n+1 digits, never palindromic for n >= 1;
    z**n + 1 is (1,0,...,0,1)_z, palindromic; z**n - 1 is n repetitions of
    the digit z-1, palindromic.  With z = 2 these give b(2**n +- 1) = 2.
    """
    if z < 2:
        raise ValueError(f"base must be >= 2, got {z}")
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    power = Representation(z, (1,) + (0,) * n_exp)
    plus = Representation(z, (1,) + (0,) * (n_exp - 1) + (1,))
    minus = Representation(z, (z - 1,) * n_exp)
    return PowerNeighborReps(power, plus, minus)


class RepunitEntry(NamedTuple):
    base: int
    length: int
    value: int
    power: tuple[int, int] | None


def repunit_palindromes(x_max: int, n_max: int) -> list[RepunitEntry]:
    """Census of repunits (1,1,...,1)_x and their perfect-power status.

    Sweeps 2 <= x <= x_max and lengths 3 <= n <= n_max, attaching (y, q)
    when (x**n - 1)/(x - 1) = y**q with q >= 2.  Within x <= 100, n <= 30
    the perfect powers are exactly 11**2 at (x=3, n=5), 20**2 at (x=7,
    n=4), and 7**3 at (x=18, n=3); no other solution is known at all under
    the conditions q = 2, 3 | n, 4 | n, or q = 3 with n != 5 (mod 6).
    """
    if x_max < 2:
        raise ValueError(f"x_max must be >= 2, got {x_max}")
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    out = []
    for x in range(2, x_max + 1):
        value = x * x + x + 1  # three ones
        for n in range(3, n_max + 1):
            out.append(RepunitEntry(x, n, value, perfect_power(value)))
            value = value * x + 1
    return out


class ConjectureVerdict(enum.Enum):
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConjectureReport:
    conjecture_id: str
    range_tested: str
    verdict: ConjectureVerdict
    witnesses: tuple[Any, ...]


# The cost of b(2**n) grows steeply with n, and n >= 150 takes most of a
# sweep to 200.  Pool.map's default chunk, len / (4 * jobs), is 25 exponents
# for that sweep on 2 workers, which puts those exponents in the last one or
# two chunks; small chunks keep every worker busy to the end.
_SWEEP_CHUNK = 4
# Conjecture (d)'s census counts the exponents whose b(2**n) is each base
# from 2 to this one.
_CENSUS_MAX_BASE = 31


def _report(
    conjecture_id: str, range_tested: str, bad: tuple, tested: bool = True
) -> ConjectureReport:
    """HOLDS when the sweep found no counterexample, else COUNTEREXAMPLE with
    the counterexamples in bad as its witnesses; INCONCLUSIVE when the range
    held no case to test, since a verdict over no case says nothing."""
    if not tested:
        verdict = ConjectureVerdict.INCONCLUSIVE
    elif bad:
        verdict = ConjectureVerdict.COUNTEREXAMPLE
    else:
        verdict = ConjectureVerdict.HOLDS
    return ConjectureReport(conjecture_id, range_tested, verdict, bad)


def claim_violations(records) -> list[PalindromeRecord]:
    """The records against the claim that every palindromic representation
    of 2**n is binomial or has three digits."""
    return [rec for rec in records if rec.binomial is None and rec.digit_count != 3]


def _pow2_minbase(n: int) -> tuple[int, int, tuple[int, ...]]:
    b, rep = min_pal_base(1 << n)
    return n, b, rep.digits


def minbase_reports(
    minbase: dict[int, tuple[int, Representation]]
) -> list[ConjectureReport]:
    """Conjectures (a), (b) and (c) of check_conjectures, from b(2**n) and
    its representation for the consecutive exponents n of minbase: (c) is
    tested at every a >= 2 with a*a among them, and is INCONCLUSIVE when
    there is no such a.  Raises ValueError on no rows, or on rows whose
    exponents skip one, naming the first exponent missing."""
    if not minbase:
        raise ValueError("no rows: need b(2**n) for at least one n")
    n_lo, n_hi = min(minbase), max(minbase)
    for n in range(n_lo, n_hi + 1):
        if n not in minbase:
            raise ValueError(f"the rows skip n = {n}: exponents must be consecutive")
    a_lo, a_hi = max(2, math.isqrt(n_lo - 1) + 1), math.isqrt(n_hi)
    return [
        _report(
            "a",
            f"n = {n_lo}..{n_hi}",
            tuple(
                {"n": n, "base": b, "digits": rep.digits}
                for n, (b, rep) in minbase.items()
                if (b + 1) & b != 0
            ),
        ),
        _report(
            "b",
            f"n = {n_lo}..{n_hi}",
            tuple(
                {"n": n, "base": b, "digits": rep.digits}
                for n, (b, rep) in minbase.items()
                if classify_binomial(rep) is None
            ),
        ),
        _report(
            "c",
            f"a = {a_lo}..{a_hi}",
            tuple(
                {"a": a, "base": minbase[a * a][0], "expected": (1 << a) - 1}
                for a in range(a_lo, a_hi + 1)
                if minbase[a * a][0] != (1 << a) - 1
            ),
            tested=a_lo <= a_hi,
        ),
    ]


def check_conjectures(n_max: int, jobs: int = 1) -> list[ConjectureReport]:
    """Desk-scale evidence for the five open questions about b(2**n).

    (a) b(2**n) = 2**x - 1; (b) the minimal representation has binomial
    form; (c) b(2**(a*a)) = 2**a - 1; (d) per-base census of how often each
    base occurs as b(2**n) (reported descriptively, finiteness is not
    sweepable); (e) 2**n is palindromic base 3 only for n in {1,2,3,4}.
    A "holds" verdict means no counterexample in range, nothing more.
    jobs > 1 maps the exponents over a Pool of that many worker processes,
    capped at the CPUs this process may run on: its affinity set where the
    OS has one, else the CPU count; more workers than CPUs only add
    start-up.
    """
    if n_max < 4:
        raise ValueError(f"n_max must be >= 4, got {n_max}")
    exponents = range(1, n_max + 1)
    if hasattr(os, "sched_getaffinity"):
        jobs = min(jobs, len(os.sched_getaffinity(0)))
    else:
        jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            sweep = pool.map(_pow2_minbase, exponents, chunksize=_SWEEP_CHUNK)
    else:
        sweep = [_pow2_minbase(n) for n in exponents]
    minbase = {n: (b, Representation(b, digits)) for n, b, digits in sweep}

    reports = minbase_reports(minbase)

    census = tuple(
        {
            "base": b,
            "count": len(hits),
            "exponents": hits,
        }
        for b in range(2, _CENSUS_MAX_BASE + 1)
        if (hits := tuple(n for n in exponents if minbase[n][0] == b))
    )
    reports.append(
        ConjectureReport(
            "d",
            f"bases 2..{_CENSUS_MAX_BASE} over n = 1..{n_max}",
            ConjectureVerdict.INCONCLUSIVE,
            census,
        )
    )

    bad = tuple(
        {"n": n, "digits": rep.digits}
        for n in exponents
        if is_palindrome(rep := to_digits(1 << n, 3)) != (n <= 4)
    )
    reports.append(_report("e", f"n = 1..{n_max} in base 3", bad))
    return reports
