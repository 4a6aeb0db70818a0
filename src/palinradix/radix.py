"""Exact radix representations: conversion, palindrome test, digit-wise scaling.

Values are plain Python ints (arbitrary precision); a representation is a base
together with its digit tuple, most-significant digit first, so that printed
forms compare byte-for-byte against reference tables.  Digits are extracted
in one place, _digits_lsf, and evaluated in one, from_digits: to_digits
converts through the extractor after checking its inputs, and the scan
kernel's confirm step (palindrome._confirmed) calls it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _digits_lsf(n: int, base: int) -> list[int]:
    """Digits of n in ``base``, least-significant first; [] for n = 0.

    Unchecked: the caller guarantees n >= 0 and base >= 2 (base 1 never
    ends the loop, base 0 divides by zero).  This is the package's one
    digit loop; to_digits is its checked form.
    """
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    return out


@dataclass(frozen=True)
class Representation:
    """A base-b digit tuple, most-significant digit first.

    Invariants: base >= 2, every digit lies in [0, base), and the
    leading digit is nonzero except for the canonical zero representation (0).
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if not self.digits:
            raise ValueError("digit tuple must be nonempty")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")
        if self.digits[0] == 0 and self.digits != (0,):
            raise ValueError("leading digit must be nonzero")

    def __str__(self) -> str:
        return "(%s)_%d" % (",".join(map(str, self.digits)), self.base)


@dataclass(frozen=True)
class ScaledRepresentation:
    """A representation written as multiplier * core, expanded digit-wise.

    Valid only when multiplier * d < base for every core digit d, so the
    expansion is again a legal digit tuple in the same base.
    """

    multiplier: int
    core: Representation

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        for d in self.core.digits:
            if self.multiplier * d >= self.core.base:
                raise ValueError(
                    f"scaled digit {self.multiplier}*{d} overflows base {self.core.base}"
                )

    def __str__(self) -> str:
        if self.multiplier == 1:
            return str(self.core)
        return f"{self.multiplier}*{self.core}"


def to_digits(n: int, base: int) -> Representation:
    """Unique radix representation of n >= 0 in ``base``; (0) for n = 0.

    The inputs are checked here, before the unchecked extractor runs.

    >>> str(to_digits(2023, 16))
    '(7,14,7)_16'
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 0:
        raise ValueError(f"value must be non-negative, got {n}")
    return Representation(base, tuple(reversed(_digits_lsf(n, base))) or (0,))


def from_digits(rep: Representation) -> int:
    """Value of a representation: sum of digit * base**position.

    Horner's rule, which shares no code with _digits_lsf, so a round trip
    through to_digits and back checks the extractor.
    """
    acc, base = 0, rep.base
    for d in rep.digits:
        acc = acc * base + d
    return acc


def is_palindrome(rep: Representation) -> bool:
    """True iff the digit tuple equals its reversal (single digits included)."""
    return rep.digits == rep.digits[::-1]


def split_common_factor(rep: Representation) -> ScaledRepresentation:
    """Normal form multiplier * core with the digit gcd factored out.

    (3,9,9,3)_26 becomes 3*(1,3,3,1)_26; a gcd of 1 leaves rep unchanged.
    """
    g = math.gcd(*rep.digits)
    if g <= 1:
        return ScaledRepresentation(1, rep)
    core = Representation(rep.base, tuple(d // g for d in rep.digits))
    return ScaledRepresentation(g, core)
