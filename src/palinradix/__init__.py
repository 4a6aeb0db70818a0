"""Palindromic radix representations of integers.

Exact tools for the question "in which bases does N read the same forwards
and backwards?": the minimal such base b(N), exhaustive and closed-form
enumeration of palindromic representations (powers of 2 especially),
binomial-form classification, and regeneration of the reference tables.
"""

from .radix import (
    MAX_BASE,
    Representation,
    ScaledRepresentation,
    from_digits,
    is_palindrome,
    split_common_factor,
    to_digits,
)
from .binomial import (
    BinomialClassification,
    ForcedFormVerdict,
    central_binomial,
    classify_binomial,
    construct_binomial,
    forced_binomial_verdict,
    pow2_binomial_candidates,
    small_binomial_base,
    three_digit_binomial_family,
)
from .palindrome import (
    PalindromeRecord,
    ScanReport,
    complete_scan_bound,
    enumerate_palindromes,
    min_pal_base,
    one_c_one_reps,
    pow2_complete_scan,
    three_digit_reps,
    two_digit_reps,
)
from .theorems import (
    ConjectureReport,
    ConjectureVerdict,
    check_conjectures,
    composite_palindrome_witness,
    even_digit_base_law,
    power_neighbor_reps,
    repunit_palindromes,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_BASE",
    "Representation",
    "ScaledRepresentation",
    "BinomialClassification",
    "ForcedFormVerdict",
    "PalindromeRecord",
    "ScanReport",
    "ConjectureReport",
    "ConjectureVerdict",
    "to_digits",
    "from_digits",
    "is_palindrome",
    "split_common_factor",
    "central_binomial",
    "construct_binomial",
    "classify_binomial",
    "pow2_binomial_candidates",
    "three_digit_binomial_family",
    "forced_binomial_verdict",
    "small_binomial_base",
    "min_pal_base",
    "enumerate_palindromes",
    "complete_scan_bound",
    "three_digit_reps",
    "one_c_one_reps",
    "two_digit_reps",
    "pow2_complete_scan",
    "composite_palindrome_witness",
    "even_digit_base_law",
    "power_neighbor_reps",
    "repunit_palindromes",
    "check_conjectures",
    "__version__",
]
