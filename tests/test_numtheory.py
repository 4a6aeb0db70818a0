import itertools
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palinradix import numtheory
from palinradix.numtheory import (
    _MR_BOUNDS,
    _MR_COUNTS,
    _MR_LIMIT,
    _MR_WITNESSES,
    _TRIAL_BOUND,
    _brent_rho,
    _primes_below,
    _trial_divide,
    divisors,
    factorize,
    iroot,
    is_prime,
    perfect_power,
    shifted_splits,
)

from oracles import (
    multiplicity,
    prime_power,
    product,
    strong_probable_prime,
    trial_factorize,
)


def _sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return flags


class TestIsPrime:
    def test_against_sieve(self):
        flags = _sieve(2000)
        for n in range(2001):
            assert is_prime(n) == flags[n], n

    def test_negatives_and_units(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    @pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 825265])
    def test_carmichael_numbers(self, n):
        # classic Fermat pseudoprimes must still be rejected
        assert not is_prime(n)

    def test_large_known(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # Cole: 193707721 * 761838257287

    def test_limit_enforced(self):
        # one past a multiple of a small witness would be silently fine;
        # pick a value past the bound with no tiny factor
        n = _MR_LIMIT
        while any(n % p == 0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
            n += 1
        with pytest.raises(ValueError):
            is_prime(n)


class TestWitnessTiers:
    """is_prime takes the first k prime witnesses below psi_k, the least
    strong pseudoprime to them; at and past psi_k it takes the next tier."""

    def test_thresholds_are_composite(self):
        # psi_k itself gets the next tier's witnesses: a tier compared
        # with <= would call it prime
        for psi in _MR_BOUNDS[:-1]:
            assert not is_prime(psi), psi
        assert 1287836182261 * 2575672364521 == _MR_LIMIT

    def test_thresholds_fool_their_tier(self):
        # each psi_k passes the strong test to the k bases that serve below
        # it and fails the next tier's, so no tier could be a step longer
        for i, psi in enumerate(_MR_BOUNDS):
            assert strong_probable_prime(psi, _MR_WITNESSES[: _MR_COUNTS[i]]), psi
            if i + 1 < len(_MR_BOUNDS):
                assert not strong_probable_prime(psi, _MR_WITNESSES[: _MR_COUNTS[i + 1]])

    def test_agrees_with_all_witnesses(self, rng):
        # random odd n in every tier, primes among them, against the strong
        # test to all 13 witnesses
        primes = 0
        for lo, hi in zip((43,) + _MR_BOUNDS, _MR_BOUNDS):
            for _ in range(150):
                n = rng.randrange(lo, hi) | 1
                want = all(n % p for p in _MR_WITNESSES) and strong_probable_prime(
                    n, _MR_WITNESSES
                )
                assert is_prime(n) == want, n
                primes += want
        assert primes > 40


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == {}
        assert factorize(2**6 - 1) == {3: 2, 7: 1}
        assert factorize(2**64 - 1) == {
            3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1,
        }

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(n=st.integers(min_value=1, max_value=10**12))
    def test_round_trip(self, n):
        fac = factorize(n)
        assert product(p**e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)
        assert all(e >= 1 for e in fac.values())
        assert list(fac) == sorted(fac)

    def test_small_factors_past_mr_limit(self):
        # past the Miller-Rabin bound the wheel keeps dividing, so a prime
        # above _TRIAL_BOUND still comes out by trial division
        assert 3511**7 > _MR_LIMIT
        assert factorize(3511**7) == {3511: 7}
        assert factorize(211 * 3511**7) == {211: 1, 3511: 7}

    @given(n=st.integers(min_value=1, max_value=64))
    def test_mersenne_cofactors(self, n):
        # stresses the rho path: 2**n - 1 has prime parts past the trial bound
        m = (1 << n) - 1
        fac = factorize(m)
        assert product(p**e for p, e in fac.items()) == m
        assert all(is_prime(p) for p in fac)


class TestFactorizeAgainstTrialDivision:
    """factorize against plain trial division where the wheel stops at
    _TRIAL_BOUND and Brent rho splits what is left: prime powers and
    products of primes near the bound, and the n - c of the scan kernel's
    divisor path."""

    LIMIT = 1 << 12

    def check(self, n):
        # the primes up to LIMIT must match trial division exactly; what
        # trial division leaves must split into primes above LIMIT
        small, rest = trial_factorize(n, self.LIMIT)
        got = factorize(n)
        high = {p: e for p, e in got.items() if p not in small}
        assert {p: e for p, e in got.items() if p in small} == small, n
        assert product(p**e for p, e in high.items()) == rest, n
        assert all(p > self.LIMIT and is_prime(p) for p in high), n

    def primes_near_bound(self):
        flags = _sieve(6 * _TRIAL_BOUND)
        return [p for p in range(_TRIAL_BOUND // 2, len(flags)) if flags[p]]

    def test_prime_powers(self):
        for p in self.primes_near_bound():
            for k in (2, 3, 4):
                self.check(p**k)

    def test_products_near_bound(self, rng):
        primes = self.primes_near_bound()
        for _ in range(400):
            p, q = rng.choice(primes), rng.choice(primes)
            self.check(p * q)
            self.check(p * p * q)

    @pytest.mark.parametrize("n", [38, 43, 50, 60])
    def test_powers_of_two_minus_c(self, n):
        for c in range(1, 41):
            self.check((1 << n) - c)


class TestTrialDivide:
    """_trial_divide against plain trial division by 2, 3, 4, ..., 200."""

    def check(self, n):
        factors, m = _trial_divide(n)
        small, rest = trial_factorize(n, _TRIAL_BOUND)
        if m > 1:  # no prime up to the bound divides m
            assert (factors, m) == (small, rest), n
        elif rest > 1:  # a prime cofactor, folded in: the next prime is 211
            assert factors == {**small, rest: 1} and rest < 211**2, n
        else:
            assert factors == small, n

    def test_fully_split(self):
        for n in (1, 2, 1 << 200, 3**100, 199**7, 2**5 * 199**3, 7**15 * 11):
            assert _trial_divide(n)[1] == 1, n
            self.check(n)
        # a prime cofactor below 211**2 is folded in
        assert _trial_divide(2**10 * 40009) == ({2: 10, 40009: 1}, 1)

    def test_random(self, rng):
        for _ in range(2000):
            self.check(rng.randint(1, 10 ** rng.randint(1, 30)))

    def test_cofactor_left(self):
        assert _trial_divide(3 * 211**2) == ({3: 1}, 211**2)
        assert _trial_divide(2**89 - 1) == ({}, 2**89 - 1)  # a prime past _MR_LIMIT
        assert _trial_divide(3511**7) == ({}, 3511**7)


class TestDivisors:
    def test_examples(self):
        assert divisors(63) == [1, 3, 7, 9, 21, 63]
        assert divisors(1) == [1]
        assert divisors(2047) == [1, 23, 89, 2047]

    @given(n=st.integers(min_value=1, max_value=10**6))
    def test_contract(self, n):
        divs = divisors(n)
        assert divs == sorted(set(divs))
        assert all(n % d == 0 for d in divs)
        tau = product(e + 1 for e in factorize(n).values())
        assert len(divs) == tau


    def test_highly_composite(self):
        # 963761198400 = 2**6 * 3**4 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23,
        # against every product of prime powers
        fac = factorize(963761198400)
        powers = [[p**k for k in range(e + 1)] for p, e in fac.items()]
        want = sorted(product(c) for c in itertools.product(*powers))
        assert divisors(963761198400) == want and len(want) == 6720


class TestShiftedSplits:
    """shifted_splits against trial division of each n - c by every
    integer below the bound."""

    def check(self, n, c_lo, c_hi, bound):
        got = shifted_splits(n, c_lo, c_hi, bound)
        assert len(got) == c_hi - c_lo + 1
        for c, split in zip(range(c_lo, c_hi + 1), got):
            assert split == trial_factorize(n - c, bound - 1), (n, c, bound)

    def test_from_one(self, rng):
        for bits in (80, 64, 63, 40, 20):
            self.check(rng.getrandbits(bits) | 1 << (bits - 1), 1, 200, 1 << 11)

    def test_random(self, rng):
        for _ in range(60):
            n = rng.randrange(2, 1 << rng.randint(2, 80))
            c_lo = rng.choice((1, rng.randrange(0, n)))
            c_hi = min(n - 1, c_lo + rng.randint(0, 150))
            self.check(n, c_lo, c_hi, rng.randint(2, 3000))

    def test_prime_powers(self):
        # q**e | n - c with e >= 3, for small and large q, and a power of
        # the largest prime below the bound
        for q, e in ((2, 40), (3, 9), (7, 5), (211, 3), (2039, 3)):
            for c in (1, 17, 100):
                n = c + q**e * 12345
                self.check(n, max(1, c - 5), c + 5, 2048)
                self.check(n, c, c, q + 1)

    def test_below_the_bound(self):
        # every n - c below the bound: primes and 1 are split by themselves
        self.check(500, 1, 499, 1000)
        self.check(500, 1, 499, 500)
        assert shifted_splits(12, 11, 11, 5) == [({}, 1)]

    def test_square_of_the_bound(self):
        # a cofactor of bound**2, bound prime, has no prime factor below
        # the bound and is no prime: it is left for the caller
        assert shifted_splits(8 * 211**2 + 5, 5, 5, 211) == [({2: 3}, 211**2)]
        assert shifted_splits(8 * 211**2 + 5, 5, 5, 212) == [({2: 3, 211: 2}, 1)]
        assert shifted_splits(211 * 223 + 5, 5, 5, 211) == [({}, 211 * 223)]
        assert shifted_splits(211 * 199 + 5, 5, 5, 211) == [({199: 1, 211: 1}, 1)]

    def test_primes_below(self):
        flags = _sieve(3000)
        for bound in (3000, 2, 3, 4, 100, 2048, 3001):
            assert _primes_below(bound) == [p for p in range(bound) if flags[p]]

    def test_prime_table_not_built_at_import(self):
        # the table is built on first use, never by importing the package
        code = (
            "import palinradix, palinradix.cli, palinradix.tables;"
            "from palinradix import numtheory;"
            "assert numtheory._sieved_to == 0 and numtheory._primes == []"
        )
        src = pathlib.Path(numtheory.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def random_prime(bits, rng):
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(p):
            return p


class TestDivisorsBudget:
    """divisors under a budget of Brent rho steps and a cap on the divisor
    count: the whole list or None, never a partial list."""

    @pytest.mark.parametrize("bits", [15, 20, 24])
    def test_rho_budget_edge(self, bits, rng):
        # rho splits m within a budget iff the budget covers the steps it
        # takes unbounded, and it never takes more steps than it is given
        for _ in range(5):
            p, q = random_prime(bits, rng), random_prime(bits, rng)
            if p == q:
                continue
            m = p * q
            d, steps = _brent_rho(m)
            assert d in (p, q) and steps > 0
            assert _brent_rho(m, steps) == (d, steps)
            short, used = _brent_rho(m, steps - 1)
            assert short == 0 and used <= steps - 1
            assert divisors(m, budget=steps) == sorted((1, p, q, m))
            assert divisors(m, budget=steps - 1) is None

    def test_never_partial(self, monkeypatch, rng):
        # three primes past the wheel take two rho splits or more: any
        # budget short of their summed steps gives None, any other the whole
        # list, and rho's steps never pass the budget
        m = 1000003 * 1000033 * 1000037
        full = divisors(m)
        steps = []
        real_rho = numtheory._brent_rho

        def rho_spy(n, budget=math.inf):
            d, used = real_rho(n, budget)
            assert used <= budget
            steps.append(used)
            return d, used

        monkeypatch.setattr(numtheory, "_brent_rho", rho_spy)
        assert divisors(m, budget=10**9) == full
        need = sum(steps)
        assert len(steps) >= 2
        budgets = {0, 1, steps[0], need - 1, need, need + 1}
        budgets |= {rng.randint(0, 2 * need) for _ in range(30)}
        for budget in sorted(budgets):
            steps.clear()
            got = divisors(m, budget=budget)
            assert sum(steps) <= budget
            assert got == (full if budget >= need else None), budget

    def test_max_count(self):
        assert divisors(963761198400, max_count=6719) is None
        assert len(divisors(963761198400, max_count=6720)) == 6720
        assert divisors(2**40, max_count=40) is None
        assert divisors(2**40, max_count=41) == [2**k for k in range(41)]
        # a cofactor past the wheel counts once split: 21 * 2 * 2 divisors
        n = 2**20 * 1000003 * 1000033
        assert divisors(n, max_count=83) is None
        assert len(divisors(n, max_count=84)) == 84

    def test_max_count_ends_before_rho(self, monkeypatch):
        # 2**20 times a cofactor has at least 21 * 2 divisors, so a cap of
        # 41 ends the try without a rho step
        monkeypatch.setattr(numtheory, "_brent_rho", None)
        assert divisors(2**20 * 1000003 * 1000033, max_count=41) is None

    def test_split_given(self, rng):
        # a split from _trial_divide gives divisors' own answer under any
        # limits; one from shifted_splits, with more primes, the same list
        # unbounded and the list or None under limits; neither is changed
        for _ in range(40):
            n = rng.randrange(1, 1 << rng.randint(1, 60))
            full = divisors(n)
            limits = {"budget": 50, "max_count": 64}
            split, sieved = _trial_divide(n), shifted_splits(n, 0, 0, 1 << 12)[0]
            kept = [(dict(f), m) for f, m in (split, sieved)]
            assert divisors(n, split=split) == divisors(n, split=sieved) == full
            assert divisors(n, split=split, **limits) == divisors(n, **limits)
            assert divisors(n, split=sieved, **limits) in (None, full)
            assert [split, sieved] == kept

    def test_split_skips_trial_division(self, monkeypatch):
        split = _trial_divide(2**20 * 1000003 * 1000033)
        monkeypatch.setattr(numtheory, "_trial_divide", None)
        assert len(divisors(2**20 * 1000003 * 1000033, split=split)) == 84

    def test_past_mr_limit(self):
        # under a finite budget a cofactor past the Miller-Rabin bound gives
        # None at once; unbounded, the wheel runs on to 10**6 as factorize's
        m = 1_649_267_441_959 * 2_199_023_255_579
        assert m > _MR_LIMIT and divisors(m, budget=10**9) is None
        with pytest.raises(ValueError):
            divisors(m)
        assert divisors(3511**7, budget=10**9) is None
        assert divisors(3511**7) == [3511**k for k in range(8)]
        # a cofactor below the bound once the wheel to 200 is done
        assert divisors((1 << 82) - 1, budget=10**9) == divisors((1 << 82) - 1)


class TestIroot:
    @given(n=st.integers(min_value=0, max_value=2**128), k=st.integers(1, 20))
    def test_floor_property(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_exact(self):
        assert iroot(27, 3) == 3
        assert iroot(2**90, 9) == 2**10
        assert iroot(0, 5) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(8, 0)


class TestPerfectPower:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (512, (2, 9)),
            (36, (6, 2)),
            (64, (2, 6)),
            (729, (3, 6)),
            (121, (11, 2)),
            (400, (20, 2)),
            (343, (7, 3)),
            (12, None),
            (1, None),
            (2, None),
        ],
    )
    def test_examples(self, n, expected):
        assert perfect_power(n) == expected

    @given(m=st.integers(min_value=2, max_value=1000), k=st.integers(2, 10))
    def test_maximality(self, m, k):
        got = perfect_power(m**k)
        assert got is not None
        base, exp = got
        assert base**exp == m**k
        assert exp >= k
        assert perfect_power(base) is None

    def test_prime_power(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(7) == (7, 1)
        assert prime_power(36) is None
        assert prime_power(1) is None


class TestSmallHelpers:
    def test_multiplicity(self):
        assert multiplicity(48, 2) == 4
        assert multiplicity(48, 5) == 0
        with pytest.raises(ValueError):
            multiplicity(0, 2)
        with pytest.raises(ValueError):
            multiplicity(10, 1)

    def test_product(self):
        assert product([]) == 1
        assert product([2, 3, 4]) == 24
