import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_data import REPUNIT_POWERS
from palinradix.numtheory import is_prime
from palinradix.palindrome import min_pal_base
from palinradix.radix import from_digits, is_palindrome, to_digits
from palinradix.theorems import (
    ConjectureVerdict,
    check_conjectures,
    composite_palindrome_witness,
    even_digit_base_law,
    minbase_reports,
    power_neighbor_reps,
    repunit_palindromes,
)


class TestCompositeWitness:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (15, "(3,3)_4"),
            (49, "(1,2,1)_6"),
            (25, "(1,2,1)_4"),
            (9, "(1,0,0,1)_2"),
            (8, "(2,2)_3"),
            (10, "(2,2)_4"),
        ],
    )
    def test_known(self, n, expected):
        assert str(composite_palindrome_witness(n)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11, 13, 9973])
    def test_none_for_small_and_prime(self, n):
        assert composite_palindrome_witness(n) is None

    def test_error(self):
        with pytest.raises(ValueError):
            composite_palindrome_witness(0)

    def test_witness_contract_sweep(self):
        # every composite above 6 gets a palindrome in a base below n - 1,
        # which is exactly what refutes b(n) = n - 1 off the prime/3/4/6 set
        for n in range(7, 3000):
            wit = composite_palindrome_witness(n)
            if is_prime(n):
                assert wit is None
                continue
            assert wit is not None, n
            assert from_digits(wit) == n
            assert is_palindrome(wit)
            assert len(wit.digits) >= 2
            assert 2 <= wit.base < n - 1


class TestEvenDigitBaseLaw:
    @pytest.mark.parametrize("p,n", [(2, 8), (3, 4), (5, 3), (7, 2), (13, 2)])
    def test_holds(self, p, n):
        assert even_digit_base_law(p, n, min(2000, p**n))

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            even_digit_base_law(6, 2, 100)
        with pytest.raises(ValueError):
            even_digit_base_law(3, 0, 100)

    def test_law_not_vacuous(self):
        # 256 does have even-digit palindromes in range, so a passing law
        # means the scan really checked bases, not that it found nothing
        saw = [
            b
            for b in range(2, 256)
            if len(to_digits(256, b).digits) % 2 == 0
            and is_palindrome(to_digits(256, b))
        ]
        assert saw == [31, 63, 127, 255]
        assert even_digit_base_law(2, 8, 256)


class TestPowerNeighbors:
    def test_shapes(self):
        trio = power_neighbor_reps(2, 5)
        assert trio.power.digits == (1, 0, 0, 0, 0, 0)
        assert trio.plus_one.digits == (1, 0, 0, 0, 0, 1)
        assert trio.minus_one.digits == (1, 1, 1, 1, 1)
        assert from_digits(trio.power) == 32
        assert from_digits(trio.plus_one) == 33
        assert from_digits(trio.minus_one) == 31

    def test_palindromicity(self):
        for z in (2, 3, 10):
            for n in (1, 2, 7):
                trio = power_neighbor_reps(z, n)
                assert not is_palindrome(trio.power)
                assert is_palindrome(trio.plus_one)
                assert is_palindrome(trio.minus_one)

    def test_errors(self):
        with pytest.raises(ValueError):
            power_neighbor_reps(1, 3)
        with pytest.raises(ValueError):
            power_neighbor_reps(2, 0)

    def test_pow2_neighbors_have_min_base_two(self):
        for n in range(2, 26):
            assert min_pal_base((1 << n) + 1)[0] == 2
            assert min_pal_base((1 << n) - 1)[0] == 2

    @given(z=st.integers(2, 50), n=st.integers(1, 40))
    @settings(max_examples=80)
    def test_values(self, z, n):
        trio = power_neighbor_reps(z, n)
        assert from_digits(trio.power) == z**n
        assert from_digits(trio.plus_one) == z**n + 1
        assert from_digits(trio.minus_one) == z**n - 1


class TestRepunits:
    def test_errors(self):
        with pytest.raises(ValueError):
            repunit_palindromes(1, 10)
        with pytest.raises(ValueError):
            repunit_palindromes(10, 2)

    def test_census_shape_and_values(self):
        entries = repunit_palindromes(20, 10)
        assert len(entries) == 19 * 8
        for e in entries:
            assert e.value == (e.base**e.length - 1) // (e.base - 1)
            if e.power is not None:
                y, q = e.power
                assert q >= 2 and y**q == e.value

    def test_known_powers(self):
        entries = repunit_palindromes(20, 10)
        powers = {(e.base, e.length): e.power for e in entries if e.power}
        assert powers == REPUNIT_POWERS

    def test_no_other_powers_small(self):
        entries = repunit_palindromes(40, 12)
        hits = {(e.base, e.length) for e in entries if e.power}
        assert hits == set(REPUNIT_POWERS)


class TestConjectures:
    def test_verdicts(self):
        reports = {r.conjecture_id: r for r in check_conjectures(16)}
        assert set(reports) == {"a", "b", "c", "d", "e"}
        assert reports["a"].verdict is ConjectureVerdict.HOLDS
        assert reports["b"].verdict is ConjectureVerdict.HOLDS
        assert reports["c"].verdict is ConjectureVerdict.HOLDS
        assert reports["d"].verdict is ConjectureVerdict.INCONCLUSIVE
        assert reports["e"].verdict is ConjectureVerdict.HOLDS

    def test_census_detail(self):
        reports = {r.conjecture_id: r for r in check_conjectures(16)}
        census = {w["base"]: w["exponents"] for w in reports["d"].witnesses}
        assert census == {
            3: (1, 2, 3, 4),
            7: (5, 6, 7, 9, 10, 12),
            15: (8, 13, 14, 16),
            31: (11, 15),
        }
        assert all(
            w["count"] == len(w["exponents"]) for w in reports["d"].witnesses
        )

    def test_jobs_equivalence(self):
        assert check_conjectures(12, jobs=2) == check_conjectures(12, jobs=1)

    def test_error(self):
        with pytest.raises(ValueError):
            check_conjectures(3)

    def test_library_caps_its_workers(self, pool_sizes):
        # a direct call is capped at the 3 CPUs of pool_sizes, as the CLI's
        # --jobs is; the stand-in Pool maps serially, so no process starts
        assert check_conjectures(8, jobs=10**6) == check_conjectures(8)
        assert pool_sizes == [3]

    @pytest.mark.parametrize(
        "exponents, a_range", [((1, 2), "2..1"), ((5, 6, 7, 8), "3..2")]
    )
    def test_rows_without_a_square_leave_c_inconclusive(self, exponents, a_range):
        # no a >= 2 has a*a among the rows: (c) tested no case
        rows = {n: min_pal_base(1 << n) for n in exponents}
        reports = {r.conjecture_id: r for r in minbase_reports(rows)}
        assert reports["c"].range_tested == f"a = {a_range}"
        assert reports["c"].verdict is ConjectureVerdict.INCONCLUSIVE
        assert reports["c"].witnesses == ()
        assert reports["a"].verdict is reports["b"].verdict is ConjectureVerdict.HOLDS

    @pytest.mark.parametrize(
        "exponents, message",
        [
            pytest.param((), "no rows", id="empty"),
            pytest.param((1, 3, 5), "skip n = 2", id="gap-at-2"),
            pytest.param((4, 5, 7, 9), "skip n = 6", id="gap-at-6"),
        ],
    )
    def test_rows_break_the_precondition(self, exponents, message):
        # the rows must be nonempty and their exponents consecutive
        rows = {n: min_pal_base(1 << n) for n in exponents}
        with pytest.raises(ValueError, match=message):
            minbase_reports(rows)
