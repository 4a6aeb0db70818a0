import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from palinradix.binomial import (
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
from palinradix.radix import Representation, from_digits, is_palindrome


class TestCentralBinomial:
    def test_values(self):
        assert [central_binomial(k) for k in range(7)] == [1, 1, 2, 3, 6, 10, 20]

    def test_is_row_maximum(self):
        for k in range(15):
            assert central_binomial(k) == max(math.comb(k, i) for i in range(k + 1))

    def test_error(self):
        with pytest.raises(ValueError):
            central_binomial(-1)

    def test_growth_bound(self):
        # the central digit stays below 2**k / 1.75, which is what lets a
        # degree-k form fit whenever alpha = 2**r with r <= x - k
        for k in range(1, 65):
            assert 7 * central_binomial(k) < 4 * (1 << k)


class TestConstruct:
    def test_examples(self):
        assert str(construct_binomial(8, 3, 31)) == "(8,24,24,8)_31"
        assert construct_binomial(2, 2, 3) is None  # central digit 4 >= 3
        assert str(construct_binomial(1, 0, 5)) == "(1)_5"
        assert str(construct_binomial(2, 2, 7)) == "(2,4,2)_7"

    def test_errors(self):
        with pytest.raises(ValueError):
            construct_binomial(0, 2, 7)
        with pytest.raises(ValueError):
            construct_binomial(1, -1, 7)
        with pytest.raises(ValueError):
            construct_binomial(1, 2, 1)

    def test_gate_is_sharp(self):
        # alpha * C(k, ceil(k/2)) == base - 1 is still legal
        assert construct_binomial(3, 2, 7) is not None  # central 6 == 7 - 1
        assert construct_binomial(3, 2, 6) is None  # central 6 == base


class TestClassify:
    def test_positive(self):
        cls = classify_binomial(Representation(7, (1, 3, 3, 1)))
        assert cls == BinomialClassification(1, 3, 3, 0)  # value 512 = 2**9

        cls = classify_binomial(Representation(9, (2, 4, 2)))
        assert cls == BinomialClassification(2, 2, None, None)  # value 200

    def test_negative(self):
        assert classify_binomial(Representation(19, (11, 6, 11))) is None
        assert classify_binomial(Representation(7, (1, 2, 2, 1))) is None
        assert classify_binomial(Representation(3, (1, 0, 1))) is None

    def test_degree_zero(self):
        # single digit 2**n in a non-Mersenne base: no exponent data attached
        cls = classify_binomial(Representation(9, (4,)))
        assert cls == BinomialClassification(4, 0, None, None)
        # same value in a Mersenne base records x and the full exponent
        cls = classify_binomial(Representation(7, (4,)))
        assert cls == BinomialClassification(4, 0, 3, 2)

    def test_pow2_records_split(self):
        # 2**13 = 2*(1,3,3,1)_15: alpha = 2**1, k = 3, x = 4
        cls = classify_binomial(Representation(15, (2, 6, 6, 2)))
        assert cls == BinomialClassification(2, 3, 4, 1)


class TestForcedVerdict:
    @pytest.mark.parametrize(
        "n,k,x,verdict",
        [
            (4, 2, 2, ForcedFormVerdict.APPLIES_CASE_1),
            (56, 8, 7, ForcedFormVerdict.APPLIES_CASE_2),
            (63, 9, 7, ForcedFormVerdict.SILENT),
            (6, 3, 3, ForcedFormVerdict.BOUND_VIOLATED),
            (9, 3, 3, ForcedFormVerdict.APPLIES_CASE_1),
        ],
    )
    def test_examples(self, n, k, x, verdict):
        assert forced_binomial_verdict(n, k, x) is verdict

    def test_errors(self):
        with pytest.raises(ValueError):
            forced_binomial_verdict(4, 0, 2)
        with pytest.raises(ValueError):
            forced_binomial_verdict(4, 2, 1)

    @given(
        n=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=1, max_value=20),
        x=st.integers(min_value=2, max_value=20),
    )
    def test_case1_split_really_is_binomial(self, n, k, x):
        # whenever the test applies with r >= 0, the announced form exists
        verdict = forced_binomial_verdict(n, k, x)
        if verdict in (
            ForcedFormVerdict.APPLIES_CASE_1,
            ForcedFormVerdict.APPLIES_CASE_2,
        ):
            r = n - k * x
            rep = construct_binomial(1 << r, k, (1 << x) - 1)
            assert rep is not None
            assert from_digits(rep) == 1 << n


class TestSmallBinomialBase:
    def test_examples(self):
        assert small_binomial_base(63) == (12, 5, 3)
        assert small_binomial_base(2) == (2, 1, 0)

    def test_error(self):
        with pytest.raises(ValueError):
            small_binomial_base(1)

    def test_gate_holds_sample(self):
        # the full 2..10**4 sweep lives in the acceptance suite
        for n in range(2, 2001):
            y, k, r = small_binomial_base(n)
            assert n == k * y + r
            assert y <= math.isqrt(2 * n - 1) + 2
            assert (1 << r) * central_binomial(k) < (1 << y) - 1
            rep = construct_binomial(1 << r, k, (1 << y) - 1)
            assert rep is not None and from_digits(rep) == 1 << n


class TestPow2Candidates:
    def test_small(self):
        cands = pow2_binomial_candidates(6)
        flat = [(k, x, r, b) for k, x, r, b, _ in cands]
        assert flat == [
            (0, 7, 6, 127),
            (1, 4, 2, 15),
            (1, 5, 1, 31),
            (1, 6, 0, 63),
            (2, 3, 0, 7),
        ]
        for k, x, r, b, rep in cands:
            assert 6 == k * x + r
            assert b == (1 << x) - 1
            assert from_digits(rep) == 64
            assert is_palindrome(rep)

    def test_bases_past_2_pow_63(self):
        # the lone digit (2**64)_{2**65 - 1} and (1,1)_{2**64 - 1}
        rows = [(k, x, r) for k, x, r, _, _ in pow2_binomial_candidates(64)]
        assert (0, 65, 64) in rows and (1, 64, 0) in rows

    def test_n1(self):
        cands = pow2_binomial_candidates(1)
        assert [(k, x, r, b) for k, x, r, b, _ in cands] == [(0, 2, 1, 3)]

    def test_error(self):
        with pytest.raises(ValueError):
            pow2_binomial_candidates(0)

    def test_sorted_and_classified(self):
        for n in (10, 24, 37):
            cands = pow2_binomial_candidates(n)
            keys = [(k, x) for k, x, *_ in cands]
            assert keys == sorted(keys)
            for k, x, r, b, rep in cands:
                cls = classify_binomial(rep)
                assert cls is not None
                assert (cls.degree, cls.alpha) == (k, 1 << r)
                if k >= 1:
                    assert (cls.mersenne_exponent, cls.remainder) == (x, r)


class TestThreeDigitFamily:
    def test_examples(self):
        assert three_digit_binomial_family(12) == [(0, 63), (2, 31)]
        assert three_digit_binomial_family(4) == [(0, 3)]
        assert three_digit_binomial_family(5) == []

    def test_error(self):
        with pytest.raises(ValueError):
            three_digit_binomial_family(2)

    def test_matches_candidate_enumeration(self):
        # dual route: the closed-form family must equal the degree-2 slice
        # of the exhaustive (k, x) split enumeration
        for n in range(3, 65):
            family = set(three_digit_binomial_family(n))
            from_cands = {
                (r, b) for k, x, r, b, _ in pow2_binomial_candidates(n) if k == 2
            }
            assert family == from_cands, n

    def test_members_evaluate(self):
        for n in range(3, 65):
            for i, b in three_digit_binomial_family(n):
                rep = Representation(b, (1 << i, 2 << i, 1 << i))
                assert from_digits(rep) == 1 << n


# -- properties ---------------------------------------------------------------


@given(
    alpha=st.integers(min_value=1, max_value=1 << 10),
    k=st.integers(min_value=0, max_value=20),
    base=st.integers(min_value=2, max_value=1 << 20),
)
def test_classify_inverts_construct(alpha, k, base):
    rep = construct_binomial(alpha, k, base)
    assume(rep is not None)
    cls = classify_binomial(rep)
    assert cls is not None
    assert (cls.alpha, cls.degree) == (alpha, k)


@given(
    alpha=st.integers(min_value=1, max_value=1 << 10),
    k=st.integers(min_value=0, max_value=20),
    base=st.integers(min_value=2, max_value=1 << 20),
)
def test_construct_value_and_shape(alpha, k, base):
    rep = construct_binomial(alpha, k, base)
    if rep is None:
        assert alpha * central_binomial(k) >= base
    else:
        assert from_digits(rep) == alpha * (1 + base) ** k
        assert len(rep.digits) == k + 1
        assert is_palindrome(rep)
        assert max(rep.digits) == alpha * central_binomial(k)


@given(n=st.integers(min_value=2, max_value=3000))
def test_small_binomial_base_gate(n):
    y, k, r = small_binomial_base(n)
    assert (1 << r) * central_binomial(k) < (1 << y) - 1
    assert n == k * y + r
