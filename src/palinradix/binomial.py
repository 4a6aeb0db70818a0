"""Binomial-form representations: construction, recognition, and the
structure results for powers of 2.

A representation has binomial form when its digits are alpha * C(k, i) for
i = k..0; its value is then alpha * (1 + base)**k.  The central coefficient
C(k, ceil(k/2)) is the largest digit, so validity in base b reduces to the
single inequality alpha * C(k, ceil(k/2)) < b.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .radix import Representation, from_digits


def central_binomial(k: int) -> int:
    """C(k, ceil(k/2)), the largest binomial coefficient in row k."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return math.comb(k, (k + 1) // 2)


def _is_pow2(v: int) -> bool:
    return v > 0 and v & (v - 1) == 0


@dataclass(frozen=True)
class BinomialClassification:
    """Evidence that a representation's digits are alpha * C(degree, i).

    degree 0 is the single-digit case (alpha)_b.  For power-of-2 values,
    mersenne_exponent records x with base = 2**x - 1 and remainder records
    r = n - degree*x, so alpha = 2**r; both stay None when the base is not
    of that shape (possible only for degree 0 or non-power-of-2 values).
    """

    alpha: int
    degree: int
    mersenne_exponent: int | None = None
    remainder: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


def construct_binomial(alpha: int, k: int, base: int) -> Representation | None:
    """The (k+1)-digit representation alpha*(C(k,k), ..., C(k,0)) in ``base``.

    Returns None when the central digit alpha*C(k, ceil(k/2)) reaches the
    base, i.e. when the digits would not be legal.  The value of a returned
    representation is exactly alpha * (1 + base)**k.

    >>> str(construct_binomial(8, 3, 31))
    '(8,24,24,8)_31'
    >>> construct_binomial(2, 2, 3) is None
    True
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if alpha * central_binomial(k) >= base:
        return None
    return Representation(base, tuple(alpha * math.comb(k, i) for i in range(k, -1, -1)))


def classify_binomial(rep: Representation) -> BinomialClassification | None:
    """Recognize digits of the form alpha * C(k, i), else None.

    alpha is forced: the least-significant digit is alpha * C(k, 0) = alpha.
    When the value is a power of 2 and k >= 1, the base is necessarily
    2**x - 1 and alpha = 2**(n - k*x); both are recomputed and checked here
    rather than trusted.
    """
    digits = rep.digits
    k = len(digits) - 1
    alpha = digits[-1]
    if alpha == 0:
        return None
    for j, d in enumerate(digits):
        if d != alpha * math.comb(k, k - j):
            return None

    x = None
    if _is_pow2(rep.base + 1):
        x = (rep.base + 1).bit_length() - 1

    value = from_digits(rep)
    if _is_pow2(value) and k >= 1:
        n = value.bit_length() - 1
        if x is None:
            raise AssertionError(
                f"binomial representation of 2**{n} in non-Mersenne base {rep.base}"
            )
        if alpha != 1 << (n - k * x):
            raise AssertionError(
                f"alpha {alpha} != 2**({n} - {k}*{x}) for {rep}"
            )
        return BinomialClassification(alpha, k, x, n - k * x)
    if x is not None and _is_pow2(value):
        # degree 0: a single digit 2**n, remainder is the full exponent
        return BinomialClassification(alpha, k, x, value.bit_length() - 1)
    return BinomialClassification(alpha, k, x, None)


def pow2_binomial_candidates(
    n_exp: int,
) -> list[tuple[int, int, int, int, Representation]]:
    """All binomial-form representations of 2**n with base 2**x - 1.

    Writes n = x*k + r over k >= 0, x >= 2, r >= 0 and keeps the splits
    passing the central-digit gate 2**r * C(k, ceil(k/2)) < 2**x - 1.
    Returns (k, x, r, base, rep) tuples sorted by (k, x).  The k = 0 family
    (a lone digit 2**n) is infinite in x, so only its minimal base
    2**(n+1) - 1 is emitted.
    """
    if n_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {n_exp}")
    base = (1 << (n_exp + 1)) - 1
    out = [(0, n_exp + 1, n_exp, base, construct_binomial(1 << n_exp, 0, base))]
    for k in range(1, n_exp // 2 + 1):
        for x in range(2, n_exp // k + 1):
            r = n_exp - k * x
            base = (1 << x) - 1
            rep = construct_binomial(1 << r, k, base)
            if rep is not None:
                out.append((k, x, r, base, rep))
    return out


def three_digit_binomial_family(n_exp: int) -> list[tuple[int, int]]:
    """The (i, base) pairs with 2**n = 2**i * (1,2,1) in base 2**((n-i)/2) - 1.

    Exactly the i with 0 <= 3*i < n - 2 and n = i (mod 2); no other 3-digit
    binomial representation of 2**n exists.

    >>> three_digit_binomial_family(12)
    [(0, 63), (2, 31)]
    """
    if n_exp < 3:
        raise ValueError(f"exponent must be >= 3, got {n_exp}")
    out = []
    for i in range(n_exp % 2, n_exp // 3 + 1, 2):
        if 3 * i < n_exp - 2:
            out.append((i, (1 << ((n_exp - i) // 2)) - 1))
    return out


class ForcedFormVerdict(enum.Enum):
    """Outcome of the sufficiency test for a palindromic representation of
    2**n in base 2**x - 1 being forced into binomial form."""

    APPLIES_CASE_1 = "applies-case-1"
    APPLIES_CASE_2 = "applies-case-2"
    BOUND_VIOLATED = "bound-violated"
    SILENT = "silent"


def forced_binomial_verdict(n_exp: int, k: int, x: int) -> ForcedFormVerdict:
    """Decide whether a k-degree palindrome of 2**n in base 2**x - 1 must be
    the binomial form with alpha = 2**(n - k*x).

    bound-violated: n <= k*(x-1), impossible for any palindrome (the leading
    digit forces 2**n > (2**x - 1)**k).  applies-case-1: r = n - k*x >= 0 and
    k <= x - r.  applies-case-2: r >= 0, 3 <= k <= x - r + 1, and x >= 3.
    silent: the test is inconclusive (the representation may still happen to
    be binomial, as it does for n = 63, k = 9, x = 7).
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_exp <= k * (x - 1):
        return ForcedFormVerdict.BOUND_VIOLATED
    r = n_exp - k * x
    if r < 0:
        return ForcedFormVerdict.SILENT
    if k <= x - r:
        return ForcedFormVerdict.APPLIES_CASE_1
    if 3 <= k <= x - r + 1 and x >= 3:
        return ForcedFormVerdict.APPLIES_CASE_2
    return ForcedFormVerdict.SILENT


def small_binomial_base(n_exp: int) -> tuple[int, int, int]:
    """A (y, k, r) with 2**n = 2**r * (2**y)**k passing the binomial gate.

    Constructive: x = ceil(sqrt(2n)), k = floor(n/x), r = n - k*x; when the
    leftover r exceeds x - k, shift to y = x + 1 (degree unchanged, leftover
    r - k).  The result always satisfies y <= ceil(sqrt(2n)) + 1 and
    2**r * C(k, ceil(k/2)) < 2**y - 1, so 2**n has a binomial-form
    representation in base 2**y - 1.
    """
    if n_exp < 2:
        raise ValueError(f"exponent must be >= 2, got {n_exp}")
    x = math.isqrt(2 * n_exp - 1) + 1
    k = n_exp // x
    r = n_exp - k * x
    if r <= x - k:
        return (x, k, r)
    return (x + 1, k, r - k)
