import pytest
from hypothesis import given
from hypothesis import strategies as st

from palinradix.radix import (
    MAX_BASE,
    Representation,
    ScaledRepresentation,
    from_digits,
    is_palindrome,
    split_common_factor,
    to_digits,
)

from oracles import reduce_leading_zeros, try_scale


class TestToDigits:
    def test_basic(self):
        assert to_digits(2023, 16).digits == (7, 14, 7)
        assert to_digits(255, 2).digits == (1,) * 8
        assert to_digits(0, 5).digits == (0,)

    def test_single_digit(self):
        assert to_digits(4, 9).digits == (4,)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            to_digits(-1, 10)
        # base 0 would divide by zero, base 1 would never end the digit loop
        with pytest.raises(ValueError):
            to_digits(10, 0)
        with pytest.raises(ValueError):
            to_digits(10, 1)
        with pytest.raises(ValueError):
            to_digits(10, MAX_BASE + 1)

    def test_str_format(self):
        assert str(to_digits(2023, 16)) == "(7,14,7)_16"


class TestRepresentationValidation:
    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            Representation(10, (0, 1))

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            Representation(10, (10,))
        with pytest.raises(ValueError):
            Representation(10, (1, -1))

    def test_zero_is_representable(self):
        assert from_digits(Representation(7, (0,))) == 0

    def test_empty_digits_rejected(self):
        with pytest.raises(ValueError):
            Representation(10, ())

    def test_base_cap(self):
        Representation(MAX_BASE, (1,))
        with pytest.raises(ValueError):
            Representation(MAX_BASE + 1, (1,))


class TestPalindrome:
    @pytest.mark.parametrize(
        "n,base,expected",
        [
            (2023, 16, True),  # (7,14,7)
            (2023, 10, False),
            (5, 2, True),  # (1,0,1)
            (6, 2, False),  # (1,1,0)
            (3, 2, True),  # (1,1)
            (7, 10, True),  # single digit
        ],
    )
    def test_known(self, n, base, expected):
        assert is_palindrome(to_digits(n, base)) is expected


class TestScaled:
    def test_try_scale(self):
        core = Representation(16, (1, 2, 1))
        scaled = try_scale(core, 7)
        assert scaled is not None
        assert scaled.digits == (7, 14, 7)
        assert from_digits(scaled) == 7 * from_digits(core)

    def test_try_scale_overflow(self):
        assert try_scale(Representation(16, (1, 2, 1)), 8) is None  # 8*2 = 16

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            ScaledRepresentation(9, Representation(16, (1, 2, 1)))
        with pytest.raises(ValueError):
            ScaledRepresentation(0, Representation(16, (1, 2, 1)))

    def test_expand_value(self):
        scaled = ScaledRepresentation(7, Representation(16, (1, 2, 1)))
        assert str(scaled) == "7*(1,2,1)_16"

    def test_split_common_factor(self):
        scaled = split_common_factor(Representation(31, (8, 24, 24, 8)))
        assert scaled.multiplier == 8
        assert scaled.core.digits == (1, 3, 3, 1)
        assert str(scaled) == "8*(1,3,3,1)_31"

    def test_split_trivial(self):
        scaled = split_common_factor(Representation(5, (1, 2, 1)))
        assert scaled.multiplier == 1
        assert str(scaled) == "(1,2,1)_5"


class TestReduceLeadingZeros:
    def test_symmetric_padding(self):
        z, core = reduce_leading_zeros([0, 0, 1, 2, 1, 0, 0], 5)
        assert z == 2
        assert core.digits == (1, 2, 1)
        padded = Representation(5, (1, 2, 1, 0, 0))  # leading zeros dropped
        assert from_digits(padded) == 5**2 * from_digits(core)

    def test_no_zeros(self):
        z, core = reduce_leading_zeros([7, 14, 7], 16)
        assert z == 0
        assert core.digits == (7, 14, 7)

    def test_all_zeros(self):
        z, core = reduce_leading_zeros([0, 0, 0], 9)
        assert z == 2
        assert core.digits == (0,)

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            reduce_leading_zeros([0, 1, 1], 3)
        with pytest.raises(ValueError):
            reduce_leading_zeros([2, 2, 0, 0], 3)


# -- properties ---------------------------------------------------------------

n_values = st.integers(min_value=0, max_value=2**80)
bases = st.integers(min_value=2, max_value=10**6)


@given(n=n_values, base=bases)
def test_round_trip(n, base):
    assert from_digits(to_digits(n, base)) == n


@given(n=n_values, base=bases)
def test_digit_bounds(n, base):
    rep = to_digits(n, base)
    assert all(0 <= d < base for d in rep.digits)
    if n > 0:
        assert rep.digits[0] != 0


@given(n=st.integers(min_value=1, max_value=2**80), base=bases)
def test_length_law(n, base):
    # exactly floor(log_base n) + 1 digits, checked without floats
    length = len(to_digits(n, base).digits)
    assert base ** (length - 1) <= n < base**length


@given(n=n_values, base=bases)
def test_palindrome_symmetry(n, base):
    rep = to_digits(n, base)
    assert is_palindrome(rep) == (rep.digits == rep.digits[::-1])
    if rep.digits[-1] != 0:
        mirrored = Representation(base, rep.digits[::-1])
        assert is_palindrome(mirrored) == is_palindrome(rep)


@given(
    alpha=st.integers(min_value=1, max_value=100),
    base=st.integers(min_value=2, max_value=10**6),
    data=st.data(),
)
def test_scale_correctness(alpha, base, data):
    digits = data.draw(
        st.lists(st.integers(0, base - 1), min_size=1, max_size=8).map(
            lambda ds: [max(ds[0], 1)] + ds[1:]
        )
    )
    core = Representation(base, tuple(digits))
    scaled = try_scale(core, alpha)
    if scaled is None:
        assert any(alpha * d >= base for d in digits)
    else:
        assert from_digits(scaled) == alpha * from_digits(core)
        assert is_palindrome(scaled) == is_palindrome(core)


@given(
    base=st.integers(min_value=2, max_value=1000),
    z=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_reduce_leading_zeros_value(base, z, data):
    # build a palindrome with nonzero ends, pad both sides with z zeros
    half = data.draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=4))
    half[0] = max(half[0], 1)
    digs = [0] * z + half + half[-2::-1] + [0] * z
    got_z, core = reduce_leading_zeros(digs, base)
    assert got_z == z
    value = from_digits(Representation(base, tuple(digs[z:])))  # leading zeros dropped
    assert value == base**z * from_digits(core)
    assert core.digits[0] != 0
