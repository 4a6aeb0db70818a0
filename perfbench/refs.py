"""Reference answers for the benchmark's output checks.

Nothing here imports palinradix: each answer is re-derived with its own
arithmetic, so a wrong answer from the timed path cannot also be the
reference it is checked against.

N has k digits in base b when b**(k-1) <= N < b**k, so the bases with k
digits form the band (iroot(N, k), iroot(N, k-1)]: b <= iroot(N, 3) gives
four or more digits, iroot(N, 3) < b <= isqrt(N) exactly three.  A palindrome
has equal leading and trailing digits, which is cheap to test first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _digits_msf(n: int, b: int) -> tuple[int, ...]:
    out = []
    while n:
        n, d = divmod(n, b)
        out.append(d)
    return tuple(reversed(out))


def _palindromic_bases(n: int, lo: int, hi: int):
    """Yield (b, digits) for every b in [lo, hi] where n reads palindromically.

    Walks the digit-count bands in turn: with k digits the leading digit is
    n // b**(k-1), and only when it equals the trailing digit n % b are all
    digits compared (for k = 3 the middle digit is free).
    """
    b = lo
    while b <= hi:
        k = 1
        power = 1
        while power * b <= n:
            power *= b
            k += 1
        end = min(hi, iroot(n, k - 1)) if k > 1 else hi
        if k == 3:
            for b in range(b, end + 1):
                lead = n // (b * b)
                if n % b == lead:
                    yield b, (lead, n // b - lead * b, lead)
        else:
            for b in range(b, end + 1):
                if n % b == n // b ** (k - 1):
                    digits = _digits_msf(n, b)
                    if digits == digits[::-1]:
                        yield b, digits
        b = end + 1


def min_pal_base(n: int, limit: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """Least base b > 1 in which n >= 3 is palindromic, with its digits.

    With a limit below isqrt(n), only bases up to the limit are tested and
    None means b(n) > limit.
    """
    if n < 3:
        raise ValueError(f"reference covers n >= 3, got {n}")
    r = math.isqrt(n)
    hi = r if limit is None else min(r, limit)
    for hit in _palindromic_bases(n, 2, hi):
        return hit
    if hi < r:
        return None
    # Only (c,c)_b with n = c*(b+1), c < b remains; the largest such c gives
    # the least b, and c <= isqrt(n) always, with c = 1 as the fallback.
    for c in range(r, 0, -1):
        if n % c == 0 and c < n // c - 1:
            return n // c - 1, (c, c)
    raise AssertionError(f"no palindromic base for {n}")


def _binomial(digits: tuple[int, ...]) -> tuple[int, int] | None:
    """(alpha, k) when digits are alpha * C(k, i), else None."""
    k = len(digits) - 1
    alpha = digits[-1]
    if alpha == 0:
        return None
    if any(d != alpha * math.comb(k, j) for j, d in enumerate(digits)):
        return None
    return alpha, k


def pow2_scan_csv(n_exp: int) -> str:
    """The expected stdout of `palinradix scan --pow2 n_exp --format csv`."""
    n = 1 << n_exp
    rows = list(_palindromic_bases(n, 2, math.isqrt(n)))
    # (c,c)_b = c*(b+1) = 2**n forces b = 2**x - 1 and c = 2**(n-x), with c < b
    rows += [
        ((1 << x) - 1, (1 << (n_exp - x),) * 2)
        for x in range(1, n_exp + 1)
        if (1 << (n_exp - x)) < (1 << x) - 1
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ("target", "base", "digits", "palindromic", "digit_count",
         "binomial_alpha", "binomial_k", "mersenne_x")
    )
    for b, digits in sorted(rows, key=lambda row: (row[0], len(row[1]))):
        binom = _binomial(digits)
        mersenne = (b + 1).bit_length() - 1 if (b + 1) & b == 0 else None
        writer.writerow(
            (
                n,
                b,
                " ".join(map(str, digits)),
                "true",
                len(digits),
                "" if binom is None else binom[0],
                "" if binom is None else binom[1],
                "" if mersenne is None else mersenne,
            )
        )
    return buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
