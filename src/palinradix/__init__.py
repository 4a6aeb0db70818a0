"""Palindromic radix representations of integers.

Exact tools for the question "in which bases does N read the same forwards
and backwards?": the minimal such base b(N), exhaustive and closed-form
enumeration of palindromic representations (powers of 2 especially),
binomial-form classification, and regeneration of the reference tables.

The package root exports the three names of README's library tour; every
other name is imported from its module (radix, numtheory, binomial,
palindrome, theorems, tables, cli).
"""

from .palindrome import min_pal_base, pow2_complete_scan
from .radix import split_common_factor

__version__ = "0.1.0"

__all__ = ["min_pal_base", "pow2_complete_scan", "split_common_factor", "__version__"]
