"""Independent oracles for the palindrome searches.

Each converts n to base b with radix.to_digits for every base in turn and
tests the digit tuple: no bands, no leading-digit runs, no divisibility
filter, no divisor path.
"""

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
