"""Independent oracles for the palindrome searches and the factorization,
and the number-theory and digit helpers only the tests use.

The palindrome oracles convert n to base b with radix.to_digits for every
base in turn and test the digit tuple: no bands, no leading-digit runs, no
divisibility filter, no divisor path.  The factorization oracle divides by
every integer in turn: no wheel, no sieve, no Pollard rho.  The strong
probable-prime test takes its witnesses from the caller, so a test can
hold numtheory's witness tiers against all 13 witnesses.
"""

import hashlib
from functools import reduce
from typing import Sequence

from palinradix.numtheory import is_prime, perfect_power
from palinradix.radix import Representation, is_palindrome, to_digits


def palindromic_bases(n, lo, hi, min_digits):
    """(b, digits) for every base b in [lo, hi] in which n is a palindrome
    of at least min_digits digits, ascending."""
    out = []
    for b in range(lo, hi + 1):
        rep = to_digits(n, b)
        if len(rep.digits) >= min_digits and is_palindrome(rep):
            out.append((b, rep.digits))
    return out


def naive_min_pal_base(n: int) -> tuple[int, Representation]:
    """Walk b = 2, 3, ... until n reads as a palindrome.

    The oracle for palindrome.min_pal_base; do not use it for large prime
    n, where it walks all the way to n - 1.
    """
    if n < 1:
        raise ValueError(f"undefined for n = {n}; need n >= 1")
    b = 2
    while True:
        rep = to_digits(n, b)
        if is_palindrome(rep):
            return b, rep
        b += 1


def scan_digest(hits) -> str:
    """SHA-256 of (base, most-significant-first digits) hits, one line each
    as "base:d d d"; the form tests/data/pow2_scan_sha256.csv stores."""
    text = "".join(f"{b}:{' '.join(map(str, digits))}\n" for b, digits in hits)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def trial_factorize(n: int, limit: int) -> tuple[dict[int, int], int]:
    """({p: e}, rest): n's prime factors found by dividing by d = 2, 3, 4, ...
    while d <= limit and d * d <= rest, and the cofactor left.

    When the loop ends on d * d > rest, rest is 1 or a prime and goes into
    the factorization (rest becomes 1); otherwise every prime factor of
    rest exceeds limit.
    """
    out: dict[int, int] = {}
    d = 2
    while d <= limit and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1 and d * d > n:
        out[n] = out.get(n, 0) + 1
        n = 1
    return dict(sorted(out.items())), n


def strong_probable_prime(n: int, witnesses) -> bool:
    """Whether odd n > 2 passes the strong probable-prime test to every
    base a in witnesses (a not divisible by n): with n - 1 = d * 2**s,
    a**d = 1 or a**(d * 2**r) = -1 (mod n) for some r < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p**e and p prime (e >= 1 allowed), else None."""
    if n < 2:
        return None
    if is_prime(n):
        return (n, 1)
    pp = perfect_power(n)
    if pp and is_prime(pp[0]):
        return pp
    return None


def multiplicity(n: int, p: int) -> int:
    """Exponent of p in n: the largest e with p**e | n."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if n == 0:
        raise ValueError("multiplicity of 0 is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def product(values) -> int:
    return reduce(lambda a, b: a * b, values, 1)


def reduce_leading_zeros(
    digits: Sequence[int], base: int
) -> tuple[int, Representation]:
    """Strip the z leading/trailing zeros from a palindromic digit sequence.

    Returns (z, core) with value(input) = base**z * value(core).  A palindrome
    has equal numbers of leading and trailing zeros, so any asymmetric zero
    padding means the input was not palindromic and is rejected.
    """
    digs = list(digits)
    if not digs:
        raise ValueError("digit sequence must be nonempty")
    for d in digs:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
    if digs != digs[::-1]:
        raise ValueError("digit sequence is not palindromic")
    if all(d == 0 for d in digs):
        return len(digs) - 1, Representation(base, (0,))
    z = 0
    while digs[z] == 0:
        z += 1
    core = digs[z:len(digs) - z]
    return z, Representation(base, tuple(core))


def try_scale(rep: Representation, alpha: int) -> Representation | None:
    """Digit-wise alpha-multiple of rep, or None when any digit overflows."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    scaled = tuple(alpha * d for d in rep.digits)
    if any(d >= rep.base for d in scaled):
        return None
    return Representation(rep.base, scaled)
