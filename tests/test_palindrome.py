import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinradix.binomial import classify_binomial
from palinradix.palindrome import (
    PalindromeRecord,
    complete_scan_bound,
    enumerate_palindromes,
    make_record,
    min_pal_base,
    one_c_one_reps,
    pow2_complete_scan,
    three_digit_reps,
    two_digit_reps,
)
from palinradix.radix import (
    MAX_BASE,
    Representation,
    from_digits,
    is_palindrome,
    to_digits,
)

from oracles import naive_min_pal_base


class TestMinPalBase:
    @pytest.mark.parametrize(
        "n,base,digits",
        [
            (1, 2, (1,)),
            (2, 3, (2,)),
            (3, 2, (1, 1)),
            (5, 2, (1, 0, 1)),
            (13, 3, (1, 1, 1)),
            (2023, 16, (7, 14, 7)),
            (19, 18, (1, 1)),
            (47, 46, (1, 1)),
        ],
    )
    def test_known(self, n, base, digits):
        b, rep = min_pal_base(n)
        assert (b, rep.digits) == (base, digits)

    def test_error(self):
        with pytest.raises(ValueError):
            min_pal_base(0)

    def test_against_naive_oracle(self):
        for n in range(1, 2049):
            assert min_pal_base(n) == naive_min_pal_base(n), n

    def test_result_is_palindromic(self):
        # b(9973) falls to the divisor path; the others are mid-scan hits
        for n in (9973, 2**40, 3**21):
            b, rep = min_pal_base(n)
            assert from_digits(rep) == n
            assert is_palindrome(rep)
            # no smaller base works (re-walk below b)
            for smaller in range(2, b):
                assert not is_palindrome(to_digits(n, smaller))

    def test_two_digit_fallthrough(self):
        # 47 is prime: nothing below isqrt(47) = 6 works, so the divisor
        # path must produce (1,1)_46 rather than walking 44 bases
        assert min_pal_base(47) == (46, Representation(46, (1, 1)))
        # 94 = 2*47: divisor path lands on (2,2)_46
        assert min_pal_base(94) == (46, Representation(46, (2, 2)))


class TestEnumerate:
    def test_empty_range_result(self):
        report = enumerate_palindromes(7, 3, 5)
        assert report.records == ()
        assert report.min_base is None
        assert report.exhaustive

    def test_hits(self):
        report = enumerate_palindromes(7, 2, 6)
        assert [(r.rep.base, r.rep.digits) for r in report.records] == [
            (2, (1, 1, 1)),
            (6, (1, 1)),
        ]
        assert report.min_base == 2
        assert report.base_range == (2, 6)

    def test_min_digits_one_includes_trivial(self):
        report = enumerate_palindromes(7, 7, 9, min_digits=1)
        assert [(r.rep.base, r.rep.digits) for r in report.records] == [
            (8, (7,)),
            (9, (7,)),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_palindromes(0, 2, 10)
        with pytest.raises(ValueError):
            enumerate_palindromes(7, 1, 10)
        with pytest.raises(ValueError):
            enumerate_palindromes(7, 5, 4)
        with pytest.raises(ValueError):
            enumerate_palindromes(7, 2, MAX_BASE + 1)
        with pytest.raises(ValueError):
            enumerate_palindromes(7, 2, 10, min_digits=0)


class TestRecordInvariants:
    def test_make_record_flags(self):
        rec = make_record(512, Representation(7, (1, 3, 3, 1)))
        assert rec.mersenne_exponent == 3
        assert rec.binomial is not None
        assert rec.digit_count == 4

        rec = make_record(121, Representation(10, (1, 2, 1)))
        assert rec.mersenne_exponent is None
        assert rec.binomial is not None  # (1,2,1) is binomial in any base > 2

    def test_validation(self):
        good = Representation(7, (1, 3, 3, 1))
        with pytest.raises(ValueError):
            PalindromeRecord(511, good, None)  # wrong value
        crooked = Representation(7, (1, 3, 2))
        with pytest.raises(ValueError):
            PalindromeRecord(from_digits(crooked), crooked, None)

    def test_even_digit_law_on_scan(self):
        # every even-length record any scan produces obeys (b+1) | N
        for n in (1 << 12, 3**8, 5040, 2**20 + 1):
            report = enumerate_palindromes(n, 2, 500)
            for rec in report.records:
                if rec.digit_count % 2 == 0:
                    assert n % (rec.rep.base + 1) == 0


class TestClosedForms:
    def test_three_digit_examples(self):
        assert three_digit_reps(4096, 19) == [(11, 6)]
        assert three_digit_reps(2023, 16) == [(7, 14)]
        assert three_digit_reps(4096, 20) == []
        assert three_digit_reps(100, 2) == []  # needs 7 digits in base 2
        assert three_digit_reps(8, 3) == []  # 8 = (2,2)_3, only 2 digits

    def test_three_digit_error(self):
        with pytest.raises(ValueError):
            three_digit_reps(100, 1)

    def test_three_digit_against_brute_force(self, rng):
        for _ in range(400):
            base = rng.randrange(2, 40)
            n = rng.randrange(1, base**3 + base)
            brute = [
                (c, d)
                for c in range(1, base)
                for d in range(base)
                if c * base * base + d * base + c == n
            ]
            assert three_digit_reps(n, base) == brute, (n, base)

    def test_one_c_one_examples(self):
        assert [tuple(r) for r in one_c_one_reps(15)] == [(151, 66, False)]
        assert [tuple(r) for r in one_c_one_reps(18)] == [
            (399, 258, False),
            (511, 2, True),
        ]
        assert [tuple(r) for r in one_c_one_reps(20)] == [
            (775, 578, False),
            (825, 446, False),
            (1023, 2, True),
        ]
        assert [tuple(r) for r in one_c_one_reps(4)] == [(3, 2, True)]
        assert one_c_one_reps(7) == []

    def test_one_c_one_error(self):
        with pytest.raises(ValueError):
            one_c_one_reps(1)

    def test_one_c_one_against_brute_force(self):
        for n in range(2, 21):
            value = 1 << n
            brute = set()
            for b in range(2, 2 << (n // 2 + 1)):
                if b * b + 1 <= value and three_digit_reps(value, b) == [
                    (1, (value - b * b - 1) // b)
                ]:
                    brute.add((b, (value - b * b - 1) // b))
            got = {(r.base, r.c) for r in one_c_one_reps(n)}
            assert got == brute, n

    def test_one_c_one_binomial_flag(self):
        for n in range(2, 41):
            for rec in one_c_one_reps(n):
                rep = Representation(rec.base, (1, rec.c, 1))
                assert from_digits(rep) == 1 << n
                assert (classify_binomial(rep) is not None) == rec.binomial

    def test_two_digit_examples(self):
        assert two_digit_reps(2023) == [(118, 17), (288, 7), (2022, 1)]
        assert two_digit_reps(4096) == [
            (127, 32),
            (255, 16),
            (511, 8),
            (1023, 4),
            (2047, 2),
            (4095, 1),
        ]
        assert two_digit_reps(4) == [(3, 1)]
        assert two_digit_reps(2) == []

    def test_two_digit_against_brute_force(self):
        for n in range(1, 600):
            brute = [
                (b, n // (b + 1))
                for b in range(2, n)
                if n % (b + 1) == 0 and 1 <= n // (b + 1) < b
            ]
            assert two_digit_reps(n) == brute, n

    def test_two_digit_base_cap(self):
        # the (1,1) row for 2**64 would need base 2**64 - 1, past the cap
        reps = two_digit_reps(1 << 64)
        assert reps == [((1 << j) - 1, 1 << (64 - j)) for j in range(33, 64)]
        assert all(b <= MAX_BASE for b, _ in reps)


class TestPow2CompleteScan:
    def test_bound(self):
        assert complete_scan_bound(12) == 64
        assert complete_scan_bound(13) == 90
        assert complete_scan_bound(1) == 1
        with pytest.raises(ValueError):
            complete_scan_bound(0)

    def test_n12(self):
        report = pow2_complete_scan(12)
        got = [(r.rep.base, r.rep.digits) for r in report.records]
        assert got == [
            (7, (1, 4, 6, 4, 1)),
            (15, (1, 3, 3, 1)),
            (19, (11, 6, 11)),
            (31, (4, 8, 4)),
            (63, (1, 2, 1)),
            (127, (32, 32)),
            (255, (16, 16)),
            (511, (8, 8)),
            (1023, (4, 4)),
            (2047, (2, 2)),
            (4095, (1, 1)),
        ]
        assert report.exhaustive
        assert report.min_base == 7

    def test_min_digits_filter(self):
        report = pow2_complete_scan(12, min_digits=3)
        assert all(r.digit_count >= 3 for r in report.records)
        assert len(report.records) == 5

    def test_matches_naive_full_scan(self):
        for n in range(1, 15):
            value = 1 << n
            naive = set()
            for b in range(2, max(value, 3)):
                rep = to_digits(value, b)
                if len(rep.digits) >= 2 and is_palindrome(rep):
                    naive.add((b, rep.digits))
            got = {(r.rep.base, r.rep.digits) for r in pow2_complete_scan(n).records}
            assert got == naive, n

    def test_error(self):
        with pytest.raises(ValueError):
            pow2_complete_scan(0)

    @pytest.mark.parametrize("min_digits", [2, 3])
    def test_bound_past_base_cap(self, deadline, min_digits):
        # isqrt(2**126) = 2**63 passes the cap on bases: the scan raises at
        # once rather than walk 2**63 bases
        with deadline(30), pytest.raises(ValueError, match="exceeds the 2"):
            pow2_complete_scan(126, min_digits=min_digits)

    @pytest.mark.parametrize("n_exp", [1, 2, 12])
    @pytest.mark.parametrize("min_digits", [0, -5])
    def test_min_digits_below_one(self, n_exp, min_digits):
        # checked for every exponent, n = 1 included, where no base is scanned
        with pytest.raises(ValueError, match="min_digits must be >= 1"):
            pow2_complete_scan(n_exp, min_digits=min_digits)

    @pytest.mark.parametrize("hi", [None, 100, 70000])
    @pytest.mark.parametrize("n_exp", [3, 5, 12, 20, 30, 36])
    def test_lo_is_the_filtered_scan(self, n_exp, hi):
        # the scan from lo on is the scan from base 2 with the records below
        # lo dropped; a scan of the explicit range [lo, hi], for hi below,
        # between and above the values of lo, also drops those past hi
        bound = max(complete_scan_bound(n_exp), 2)
        los = {3, 4, 5, 7, 16, 31, 100, bound // 2, bound - 1, bound}
        for min_digits in (1, 2, 3):
            full = pow2_complete_scan(n_exp, min_digits)
            for lo in sorted(b for b in los if 2 <= b <= bound):
                kept = tuple(rec for rec in full.records if rec.rep.base >= lo)
                if hi is None:
                    got, base_range = pow2_complete_scan(n_exp, min_digits, lo=lo), (lo, bound)
                else:
                    # past N - 1 every base reads 2**n as (1, 0) or one digit
                    top = min(hi, (1 << n_exp) - 1)
                    if lo > top:
                        continue
                    kept = tuple(rec for rec in kept if rec.rep.base <= top)
                    got = enumerate_palindromes(1 << n_exp, lo, top, min_digits)
                    base_range = (lo, top)
                want = replace(
                    full,
                    base_range=base_range,
                    records=kept,
                    min_base=kept[0].rep.base if kept else None,
                )
                assert got == want, (lo, min_digits)
            for lo in (1, bound + 1):
                with pytest.raises(ValueError, match="invalid base range"):
                    pow2_complete_scan(n_exp, min_digits, lo=lo)


# -- properties ---------------------------------------------------------------


@given(n=st.integers(min_value=1, max_value=10**4))
@settings(max_examples=100)
def test_min_pal_base_agrees_with_naive(n):
    # the naive oracle walks every base, so keep n moderate
    assert min_pal_base(n) == naive_min_pal_base(n)


@given(n=st.integers(min_value=1, max_value=10**9), base=st.integers(2, 10**4))
def test_three_digit_closed_form(n, base):
    hits = three_digit_reps(n, base)
    for c, d in hits:
        assert 1 <= c < base and 0 <= d < base
        assert c * base * base + d * base + c == n
    if base * base + 1 <= n <= base**3 - 1:
        rep = to_digits(n, base)
        expected = (
            [(rep.digits[0], rep.digits[1])]
            if len(rep.digits) == 3 and is_palindrome(rep)
            else []
        )
        assert hits == expected


@given(n=st.integers(min_value=1, max_value=10**8))
def test_two_digit_closed_form(n):
    for b, c in two_digit_reps(n):
        assert 1 <= c < b
        assert c * (b + 1) == n
        assert to_digits(n, b).digits == (c, c)
