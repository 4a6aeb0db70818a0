"""Integer utilities: primality, factorization, divisors, perfect powers.

Primality is deterministic Miller-Rabin, exact for all n below
_MR_LIMIT = 3_317_044_064_679_887_385_961_981; larger inputs are rejected
rather than answered probabilistically.  The witnesses are the first k
primes, with k sized by n: below psi_k, the least strong pseudoprime to
the first k prime bases, those k decide (G. Jaeschke, Math. Comp. 61,
1993; J. Sorenson and J. Webster, Math. Comp. 86, 2017), so a 40-bit n
takes 5 witnesses, not 13.  Factorization divides by the primes up to
_TRIAL_BOUND = 200 with a 2/3/5 wheel (_trial_divide, which returns the
factors found and the cofactor left), then splits what is left with
Brent's variant of Pollard rho (R. P. Brent, BIT 20, 1980), which finds a
prime factor p in about sqrt(p) steps.  The bound was measured: on
40-60-bit inputs, the scan kernel's n - c among them, divisors() costs
least with it between 100 and 300, 15-20% more at 10**3, and 30-100x more
at 10**6, where the wheel alone takes about 10 ms.  A cofactor at or past
the Miller-Rabin bound cannot be proved prime, so for it the wheel runs
on, to 10**6, until what is left falls below the bound.  A cofactor of 1
means that trial division split n fully, as it does 2**n and p**k for
p <= 200.

shifted_splits does the same for a range of numbers n - c at once, as the
scan kernel's 3-digit runs need them: one sieve over c by the primes below
a bound, built on first use (_primes_below), takes each prime's multiples
by stepping, and a cofactor below the bound's square is a prime with no
test.  divisors() takes such a split, or _trial_divide's, in place of its
own trial division.

divisors() can also try within limits, for a caller that has a cheaper way
to the same answer: a budget of rho steps, each one evaluation of
y -> y*y + c mod m, and a cap on the divisor count.  It answers None, never
a partial list, when either would be passed, and, under a finite budget,
when the split leaves a cofactor past the Miller-Rabin bound.  The steps
rho takes depend on its input alone, so whether a try succeeds is
deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from operator import mul

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# Below _MR_BOUNDS[i] = psi_k for k = _MR_COUNTS[i], the least strong
# pseudoprime to the first k prime bases, those k bases decide; psi_8 =
# psi_7 and psi_10 = psi_11 = psi_9, so 8, 10 and 11 bases never serve.
_MR_BOUNDS = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    _MR_LIMIT,
)
_MR_COUNTS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < _MR_LIMIT; ValueError past the bound."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin bound")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: _MR_COUNTS[bisect_right(_MR_BOUNDS, n)]]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: float = math.inf) -> tuple[int, int]:
    """(d, steps): a nontrivial factor d of composite odd n, found by
    Brent's cycle finding in `steps` evaluations of y -> y*y + c mod n.

    Steps are taken in chunks (an advance of r steps, a block of at most
    128, one step of a backtrack), and a chunk that would pass the budget
    is not begun: d is then 0, and steps <= budget.  The steps depend on n
    alone, so rho splits n within a budget B iff B is at least the steps
    it takes unbounded.
    """
    if n % 2 == 0:
        return 2, 0
    steps = 0
    # Deterministic seed sweep: each (y0, c) pair is tried in turn, and for
    # word-sized composites one of the early pairs always succeeds.
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            if steps + r > budget:
                return 0, steps
            steps += r
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(128, r - k)
                if steps + block > budget:
                    return 0, steps
                steps += block
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                if steps >= budget:
                    return 0, steps
                steps += 1
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise ValueError(f"rho failed to split {n}")


_TRIAL_BOUND = 200
_TRIAL_BOUND_PAST_MR = 1_000_000
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _trial_divide(
    n: int, bound: int = _TRIAL_BOUND, floor: int = 0
) -> tuple[dict[int, int], int]:
    """({p: e}, m): the prime factors p <= bound of n >= 1, found with a
    2/3/5 wheel while the cofactor m stays >= floor, and that cofactor.

    When the wheel passes sqrt(m), m is 1 or a prime, which goes into the
    factors, and m is returned as 1: n is then fully split.

    >>> _trial_divide(2**10 * 3 * 1009**2)
    ({2: 10, 3: 1}, 1018081)
    >>> _trial_divide(2**10 * 3 * 1009)
    ({2: 10, 3: 1, 1009: 1}, 1)
    """
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p, i = 7, 0
    while p * p <= n and p <= bound and n >= floor:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += _WHEEL[i]
        i = (i + 1) % 8
    if 1 < n < p * p:  # no prime factor below p: n is prime
        out[n] = 1
        n = 1
    return out, n


_primes: list[int] = []  # the primes below _sieved_to, built on first use
_sieved_to = 0


def _primes_below(bound: int) -> list[int]:
    """The primes < bound, ascending.  One sieve of Eratosthenes is built
    on first use and rebuilt only for a larger bound."""
    global _primes, _sieved_to
    if bound > _sieved_to:
        flags = bytearray([1]) * bound
        flags[:2] = b"\0\0"
        for p in range(2, math.isqrt(bound - 1) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
        _primes, _sieved_to = list(compress(range(bound), flags)), bound
    return _primes[: bisect_left(_primes, bound)]


def shifted_splits(
    n: int, c_lo: int, c_hi: int, bound: int
) -> list[tuple[dict[int, int], int]]:
    """[({q: e}, m) for c = c_lo..c_hi]: n - c >= 1 split into its prime
    factors q < bound and a cofactor m with none of them, by one sieve
    over the range.

    Each prime q steps through the c = n mod q and divides out every power
    of q, so the work is one modulo a prime and one division a factor
    found.  A cofactor below bound**2 cannot hold two primes, so it is 1
    or a prime, which goes into the factors, and m is returned as 1; any
    other m is left for a primality test or rho, as _trial_divide leaves it.

    >>> shifted_splits(1000, 1, 3, 37)
    [({3: 3, 37: 1}, 1), ({2: 1, 499: 1}, 1), ({997: 1}, 1)]
    """
    top, size = n - c_lo, c_hi - c_lo + 1
    rest = list(range(top, top - size, -1))
    factors: list[dict[int, int]] = [{} for _ in range(size)]
    # q | n - c iff c = n mod q: the primes that divide none are dropped first
    for q, first in [(q, s) for q in _primes_below(bound) if (s := top % q) < size]:
        for i in range(first, size, q):
            m, e = rest[i] // q, 1
            while m % q == 0:
                m //= q
                e += 1
            rest[i] = m
            factors[i][q] = e
    square = bound * bound
    for i, m in enumerate(rest):
        if 1 < m < square:
            factors[i][m] = 1
            rest[i] = 1
    return list(zip(factors, rest))


def _factorize(
    n: int,
    budget: float,
    max_count: float,
    split: tuple[dict[int, int], int] | None = None,
) -> dict[int, int] | None:
    """{p: e} for n >= 1, or None when the split would take Brent rho more
    than budget steps in all, or once n is known to have more than
    max_count divisors before rho is called.

    The split, the small prime factors and a cofactor with none of them,
    is _trial_divide(n) unless the caller has it (shifted_splits).  Under
    a finite budget a cofactor at or past the Miller-Rabin bound gives
    None; unbounded, the wheel runs on to _TRIAL_BOUND_PAST_MR.  A cofactor
    m > 1 has only primes past the split's, so it at least doubles the
    count of the divisors found so far: past max_count, the split stops
    before rho.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out, n = (dict(split[0]), split[1]) if split else _trial_divide(n)
    if n >= _MR_LIMIT:
        if budget < math.inf:
            return None
        more, n = _trial_divide(n, _TRIAL_BOUND_PAST_MR, _MR_LIMIT)
        for p, e in more.items():
            out[p] = out.get(p, 0) + e
    if n > 1 and 2 * math.prod(e + 1 for e in out.values()) > max_count:
        return None
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _brent_rho(m, budget)
        if not d:
            return None
        budget -= steps
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; factorize(1) == {}.

    >>> factorize(2**6 - 1)
    {3: 2, 7: 1}
    """
    return _factorize(n, math.inf, math.inf)


def divisors(
    n: int,
    *,
    budget: float = math.inf,
    max_count: float = math.inf,
    split: tuple[dict[int, int], int] | None = None,
) -> list[int] | None:
    """All positive divisors of n, ascending.

    Under a budget, a count of Brent rho steps, or a max_count, the answer
    is None, never a partial list, when the budget runs out, when the
    split leaves a cofactor past the Miller-Rabin bound (only under a
    finite budget), or when n has more than max_count divisors.  Both are
    unbounded by default, and the answer is then always the list.  The
    split is n's small prime factors and the cofactor left, as
    _trial_divide or shifted_splits gives them; a caller that has it passes
    it, and n is not trial-divided again.  Each prime's powers are computed
    once: the longer of the list so far and those powers, times each
    element of the shorter, gives sorted runs, which one sort merges.

    >>> divisors(63)
    [1, 3, 7, 9, 21, 63]
    >>> divisors(2**40, max_count=40) is None
    True
    """
    factors = _factorize(n, budget, max_count, split)
    if factors is None:
        return None
    if max_count < math.inf and math.prod(e + 1 for e in factors.values()) > max_count:
        return None
    divs = [1]
    for p, e in factors.items():
        powers = [1, *accumulate(repeat(p, e), mul)]
        if len(divs) < len(powers):
            divs, powers = powers, divs
        if len(powers) > 1:
            divs = [d * q for q in powers for d in divs]
            divs.sort()
    return divs


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer arithmetic."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    if k < 1:
        raise ValueError(f"root index must be >= 1, got {k}")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() + k - 1) // k  # upper start for Newton descent
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple[int, int] | None:
    """Maximal decomposition n = m**k with k >= 2, else None.

    >>> perfect_power(512)
    (2, 9)
    >>> perfect_power(12) is None
    True
    """
    if n < 2:
        return None
    for k in range(2, n.bit_length() + 1):
        if not is_prime(k):
            continue
        r = iroot(n, k)
        if r**k == n:
            inner = perfect_power(r)
            return (inner[0], inner[1] * k) if inner else (r, k)
    return None

