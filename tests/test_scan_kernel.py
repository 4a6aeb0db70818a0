"""Differential tests of the band-split scan kernel behind
enumerate_palindromes, pow2_complete_scan and min_pal_base.

The oracles (tests/oracles.py) convert n to base b for every base in turn
and test the digit tuple: no bands, no leading-digit runs, no divisibility
filter.
"""

import csv
import math
import pathlib
from typing import NamedTuple

import pytest

from palinradix import palindrome
from palinradix.binomial import classify_binomial
from palinradix.radix import Representation, from_digits, is_palindrome, to_digits
from palinradix.tables import render
from palinradix.numtheory import (
    _MR_LIMIT,
    _brent_rho,
    _trial_divide,
    divisors,
    iroot,
    is_prime,
    shifted_splits,
)
from palinradix.palindrome import (
    _EVEN_BAND_MIN,
    _SIEVE_RUN_MIN,
    _SLICE,
    _WINDOW_MIN,
    _confirmed,
    _palindromic_bases,
    _windowed,
    enumerate_palindromes,
    min_pal_base,
    pow2_complete_scan,
    two_digit_reps,
)

from oracles import (
    naive_min_pal_base,
    palindromic_bases as oracle,
    scan_digest,
    trial_factorize,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def scan(n, lo, hi, min_digits):
    report = enumerate_palindromes(n, lo, hi, min_digits=min_digits)
    return [(r.rep.base, r.rep.digits) for r in report.records]


def edges(n):
    """Bases where the kernel changes what it does for n: the 3- and 4-digit
    band edges and the ends of some leading-digit runs in both bands."""
    cube, root = iroot(n, 3), math.isqrt(n)
    out = {cube, root}
    for c in (1, 2, 3, 7, 100, max(1, root // 64), max(1, root // 8)):
        out.add(math.isqrt(n // c))  # last base with leading digit >= c, 3 digits
        out.add(iroot(n // c, 3))  # the same with 4 digits
    return sorted(b for b in out if b >= 2)


@pytest.mark.parametrize("n_exp", range(1, 35))
def test_pow2_complete_range(n_exp):
    n = 1 << n_exp
    bound = math.isqrt(n)
    got = [(r.base, r.digits) for r in _palindromic_bases(n, 2, bound, 2)]
    assert got == oracle(n, 2, bound, 2)


def test_pow2_complete_scan_records():
    # the scan part of the report is the kernel's output, as records
    report = pow2_complete_scan(30)
    scanned = [(r.rep.base, r.rep.digits) for r in report.records if r.digit_count >= 3]
    assert scanned == oracle(1 << 30, 2, 1 << 15, 3)


def test_random_windows(rng):
    for _ in range(150):
        n = rng.randint(1, 10 ** rng.randint(1, 9))
        lo = rng.randint(2, 2 * math.isqrt(n) + 2)
        hi = lo + rng.randint(0, 1500)
        min_digits = rng.randint(1, 4)
        assert scan(n, lo, hi, min_digits) == oracle(n, lo, hi, min_digits), (n, lo, hi)


@pytest.mark.parametrize("min_digits", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "n",
    [
        10**9,  # a perfect cube: the band edge iroot(n, 3) is exact
        123457**2,  # a perfect square
        999999999,
        1 << 29,
        3**18,
        743008369,
    ],
)
def test_windows_at_edges(n, min_digits):
    for e in edges(n):
        for lo, hi in ((e - 40, e), (e, e + 40), (e - 3, e + 3), (e + 1, e + 1)):
            lo = max(lo, 2)
            want = oracle(n, lo, hi, min_digits)
            assert scan(n, lo, hi, min_digits) == want, (lo, hi)


def test_planted_palindromes(rng):
    # (c, b-1, ..., b-1, c)_b puts a palindrome on the first base of the
    # run of leading digit c, (c, 0, ..., 0, c)_b on the last one; small c
    # lands in the long-run part of a band, c near b in the per-base part
    for _ in range(300):
        b = rng.randint(3, 10**5)
        k = rng.randint(3, 5)
        c = rng.choice((1, 2, rng.randint(1, b - 1), b - 1))
        inner = rng.choice((0, b - 1, rng.randint(0, b - 1)))
        digits = (c,) + (inner,) * (k - 2) + (c,)
        n = sum(d * b**i for i, d in enumerate(digits))
        got = scan(n, max(2, b - 3), b + 3, 3)
        assert (b, digits) in got
        assert got == oracle(n, max(2, b - 3), b + 3, 3), (n, b)


# -- the window: blocks of bases filtered by their leading digits ------------
#
# test_window_edge_palindromes, test_window_coverage and
# test_window_random_blocks run edge palindromes, n on both sides of
# 2**1000 and random windows through the window blocks.


@pytest.fixture
def window_blocks(monkeypatch):
    """(b, e, p) of every block the kernel tested through the window, in call
    order.  The spy checks that each block lies inside one digit-count band
    and spans fewer than _SLICE bases."""
    calls = []

    def spy(n, b, e, p, c):
        assert c == n // b**p and e**p <= n < b ** (p + 1), (n, b, e, p)
        assert b <= e < b + _SLICE, (b, e)
        calls.append((b, e, p))
        return _windowed(n, b, e, p, c)

    monkeypatch.setattr("palinradix.palindrome._windowed", spy)
    return calls


def exact_block(n, lo, hi, p):
    """The exact leading-digit test over lo..hi, confirmed."""
    bases = [x for x in range(lo, hi + 1) if n % x == n // x**p]
    return [(r.base, r.digits) for r in _confirmed(n, bases)]


def first_block_end(n, lo):
    """The last base of the first window block from lo, where n has 3 digits
    and the block ends inside their band: the kernel's width formula."""
    return lo + max(64, min(_SLICE, lo * lo // (64 * 2 * (n // lo**2)))) - 1


def test_short_run_blocks(rng, window_blocks):
    # from _WINDOW_MIN on, 3-digit bases of short runs are tested in blocks:
    # plant a palindrome on b, then start the scan where the first block
    # ends on b or just before it, so that b is that block's last base or
    # the next one's first
    for _ in range(100):
        while True:
            b = rng.randint(_WINDOW_MIN + 64, 20_000)
            digits = (c := rng.randint(b // 30 + 1, 3 * b // 4), rng.randint(0, b - 1), c)
            n = sum(d * b**i for i, d in enumerate(digits))
            starts = [
                lo
                for lo in range(max(_WINDOW_MIN, b - _SLICE), b)
                if lo**3 > n and first_block_end(n, lo) in (b - 1, b)
            ]
            if starts:
                break
        lo = rng.choice(starts)
        first = first_block_end(n, lo)
        assert lo < _SIEVE_RUN_MIN * 2 * (n // lo**2)  # short runs
        window_blocks.clear()
        got = scan(n, lo, b + 2, 3)
        assert (b, digits) in got
        assert got == oracle(n, lo, b + 2, 3), (n, lo)
        assert window_blocks[0] == (lo, first, 2), (n, lo)
        assert b in (first, window_blocks[1][0])


def test_short_run_block_at_band_edge(window_blocks):
    # with 41 digits, a block of 64 bases from lo would reach the next
    # digit-count band: it ends on the band's last base, and the palindrome
    # planted on the next band's first base is tested with 40 digits
    for b in (1100, 1500, 1999):
        digits = (b - 1,) + (b // 3,) * 39 + (b - 1,)
        n = sum(d * b**i for i, d in enumerate(digits))
        lo = b - (b >> 5)
        assert iroot(n, 41) + 1 == b and lo + 64 > b
        window_blocks.clear()
        got = scan(n, lo, b + 2, 3)
        assert (b, digits) in got
        assert got == oracle(n, lo, b + 2, 3), b
        assert window_blocks == [(lo, b - 1, 41), (b, b + 2, 40)]


@pytest.mark.parametrize(
    "x",
    [
        (1 << 20) - 5,
        (1 << 20) + 3,
        (1 << 40) - 3,
        (1 << 40) + 1,
        (1 << 53) + 1,
        (1 << 53) + 3,
        (1 << 62) + (1 << 9) - 1,
        (1 << 62) + (1 << 9) + 1,
        (1 << 62) - 1024,
    ],
)
def test_window_edge_palindromes(x, window_blocks):
    # (c, 0, ..., 0, c)_x has n % x = c = n // x**p, the window's top, on
    # the first base of a block; (c, x-1, ..., x-1, c)_x as well, and on a
    # block's last base n // x**p is the window's bottom.  Most of these n
    # are past 2**1000, and each is windowed all the same.
    for p in range(3, 31):
        for c in (x - 1, x // 2 + 1, x // (8 * p) + 1):
            for inner in (0, x - 1):
                digits = (c,) + (inner,) * (p - 1) + (c,)
                n = c * (x**p + 1) + inner * (x**p - x) // (x - 1)
                for lo, hi in ((x, x + 16), (x - 16, x)):
                    window_blocks.clear()
                    got = scan(n, lo, hi, 3)
                    assert (x, digits) in got, (p, c, inner, lo)
                    assert got == oracle(n, lo, hi, 3), (p, c, inner, lo)
                    b, e, q = window_blocks[-1 if hi == x else 0]
                    assert (b, e, q) == (max(lo, iroot(n, p + 1) + 1), hi, p)
    # (1, 0, ..., 0, 1)_x and (1, 1, ..., 1)_x sit on the last base of the
    # band where n has p + 1 digits: the block ends there
    for p in range(3, 31):
        for digits in ((1,) + (0,) * (p - 1) + (1,), (1,) * (p + 1)):
            n = sum(x**i for i, d in enumerate(digits) if d)
            assert iroot(n, p) == x
            window_blocks.clear()
            got = scan(n, x - 20, x + 20, 3)
            assert got[0] == (x, digits), p
            assert got == oracle(n, x - 20, x + 20, 3), (p, digits)
            assert window_blocks[0] == (x - 20, x, p)


def test_window_coverage(window_blocks, divisor_tries):
    # (c, 0, ..., 0, c)_x with p = 49 on both sides of 2**1000: both are
    # windowed, since the window has no gate on the size of n
    x, p = (1 << 20) + 1, 49
    c_hi = -(-(1 << 1000) // (x**p + 1))
    for c in (c_hi - 1, c_hi):
        n = c * (x**p + 1)
        window_blocks.clear()
        got = scan(n, x, x + 40, 3)
        assert (x, (c,) + (0,) * (p - 1) + (c,)) in got
        assert got == oracle(n, x, x + 40, 3)
        assert window_blocks == [(x, x + 40, p)]
    assert (c_hi - 1) * (x**p + 1) < 1 << 1000 <= c_hi * (x**p + 1)
    # n has three digits from iroot(n, 3) + 1 on, four below: both sides
    # are windowed, the 3-digit bases where their runs are short
    n = 1 << 43
    cube = iroot(n, 3)
    window_blocks.clear()
    assert scan(n, cube + 1, cube + 3000, 3) == oracle(n, cube + 1, cube + 3000, 3)
    assert window_blocks[0][0] == cube + 1 and {p for *_, p in window_blocks} == {2}
    assert cube + 1 < _SIEVE_RUN_MIN * 2 * (n // (cube + 1) ** 2)  # short runs
    # a 4-digit band too short to pay for divisors(n) is windowed in full
    window_blocks.clear()
    assert scan(n, 4096, 4600, 3) == oracle(n, 4096, 4600, 3)
    assert window_blocks and {p for *_, p in window_blocks} == {3}
    # the 3-digit band of 2**32 is windowed but for the runs the divisor
    # step takes whole: the window blocks and those runs tile the band
    n = 1 << 32
    cube, root = iroot(n, 3), math.isqrt(n)
    window_blocks.clear()
    divisor_tries.clear()
    assert scan(n, cube + 1, root, 3) == oracle(n, cube + 1, root, 3)
    taken = [run_bounds(n, n - t.m) for t in divisor_tries if t.taken]
    pieces = sorted([(b, e) for b, e, _ in window_blocks] + taken)
    assert taken and pieces[0][0] == cube + 1 and pieces[-1][1] == root
    assert all(e + 1 == b for (_, e), (b, _) in zip(pieces, pieces[1:]))


def test_window_blocks_are_capped(window_blocks):
    # the last 5000 bases of 2**60's 5-digit band are runs of leading digit
    # 1 to 3: blocks there would span b*b / (64 p c) bases but stop at
    # _SLICE, so a first hit is yielded fewer than _SLICE bases after its base
    n = 1 << 60
    top = iroot(n, 4)
    lo = top - 5000
    assert scan(n, lo, top, 5) == oracle(n, lo, top, 5)
    assert max(e - b for b, e, _ in window_blocks) == _SLICE - 1
    assert lo * lo // (64 * 4 * (n // lo**4)) > _SLICE


def test_window_random_blocks(rng, window_blocks):
    # random n of up to 1100 bits and windows inside one digit-count band,
    # against the exact leading-digit test; half the n are planted
    # palindromes with random digits on a random base of the window
    blocks = 0
    for _ in range(300):
        p = rng.randint(2, 40)
        x = rng.randint(_WINDOW_MIN, 1 << min(62, 1100 // (p + 1)))
        c = rng.randint(x // (8 * p) + 1, x - 1)
        if rng.random() < 0.5:
            inner = [rng.randint(0, x - 1) for _ in range((p - 1) // 2)]
            mid = [rng.randint(0, x - 1)] if p % 2 == 0 else []
            digits = [c] + inner + mid + inner[::-1] + [c]
            n = sum(d * x**i for i, d in enumerate(digits))
        else:
            n = c * x**p + rng.randint(0, x**p - 1)
        # every base of the window gives n p + 1 digits
        lo = max(_WINDOW_MIN, x - rng.randint(0, 300), iroot(n, p + 1) + 1)
        hi = min(lo + rng.randint(0, 600), iroot(n, p))
        assert lo <= hi
        window_blocks.clear()
        got = scan(n, lo, hi, p + 1)
        assert got == exact_block(n, lo, hi, p), (n, lo, hi)
        blocks += bool(window_blocks)
        for b, e, q in window_blocks:
            assert q == p
            assert _windowed(n, b, e, p, n // b**p) == [
                x for x in range(b, e + 1) if n % x == n // x**p
            ]
    assert blocks > 250


def test_single_digit_band():
    # bases above n read it as one digit: hits only when min_digits is 1
    assert scan(10, 9, 14, 1) == [(9, (1, 1))] + [(b, (10,)) for b in range(11, 15)]
    assert scan(10, 9, 14, 2) == [(9, (1, 1))]


def test_jobs_two_equals_one():
    # two scans that meet halfway, from the 4-digit band into the 3-digit
    # one, give the whole scan
    n = 1 << 33
    lo, hi = iroot(n, 3) - 500, math.isqrt(n) // 4
    meet = lo + -(-(hi - lo + 1) // 2)  # the second scan's first base
    halves = scan(n, lo, meet - 1, 2) + scan(n, meet, hi, 2)
    assert halves == scan(n, lo, hi, 2) == oracle(n, lo, hi, 2)


# -- min_pal_base: bases up to iroot(n, 3) on the kernel ----------------------


def test_min_pal_base_random_four_digit_hits(rng, deadline):
    # random n whose b(n) gives n four or more digits, the kernel's part
    checked = 0
    while checked < 120:
        n = rng.randint(1, 10 ** rng.randint(1, 9))
        hits = oracle(n, 2, iroot(n, 3), 4)
        if hits:
            with deadline(30):
                b, digits = min_pal_base(n)
            assert (b, digits.digits) == hits[0], n
            checked += 1


def planted(b, p, rng):
    """n with a (p+1)-digit palindrome in base b on an edge of the kernel's
    walk, and the name of the edge."""
    c = rng.choice((1, 2, rng.randint(1, b - 1), b - 1))
    inner = rng.randint(0, b - 1)
    return rng.choice(
        [
            # b = iroot(n, p): the last base giving n p + 1 digits
            (b**p + 1, "band end"),
            (sum(b**i for i in range(p + 1)), "band end"),
            # b = iroot(n, p + 1) + 1: the first base giving n p + 1 digits
            ((b - 1) * (b**p + 1) + inner * (b**p - b) // (b - 1), "band start"),
            # (c, b-1, ..., b-1, c)_b and (c, 0, ..., 0, c)_b: the first and
            # the last base of the run of leading digit c
            (c * (b**p + 1) + b**p - b, "run start"),
            (c * (b**p + 1), "run end"),
        ]
    )


def test_min_pal_base_first_hit_on_edges(rng, deadline):
    first_hits = dict.fromkeys(("band end", "band start", "run start", "run end"), 0)
    for _ in range(250):
        b = rng.randint(3, 1200)
        p = rng.randint(3, 5)
        n, edge = planted(b, p, rng)
        if edge == "band end":
            assert iroot(n, p) == b
        elif edge == "band start":
            assert iroot(n, p + 1) + 1 == b
        with deadline(30):
            got = min_pal_base(n)
        assert got == naive_min_pal_base(n), (n, b, edge)
        first_hits[edge] += got[0] == b
    # most planted palindromes are the first hit, on every kind of edge
    assert min(first_hits.values()) >= 30, first_hits


def test_first_hit_stops_inside_a_long_run(deadline):
    # (1, b-1, b-1, 1)_b sits on the first base of the run of leading digit 1
    # in the 4-digit band, about 2**38 bases long: only a search that yields
    # before the run ends returns, in milliseconds; one that loses the hit
    # fails at the deadline
    b = 1 << 40
    n = b**3 + (b - 1) * b * b + (b - 1) * b + 1
    with deadline(30):
        first = next(_palindromic_bases(n, b - 5, iroot(n, 3), 4))
    assert (first.base, first.digits) == oracle(n, b - 5, b, 4)[0]


def test_min_pal_base_pow2_frozen(deadline):
    # b(2**n) for n <= 200, frozen from the per-base oracle by
    # scripts/freeze_goldens.py; for n >= 150 the hit lies at bases
    # 2**15 - 1 .. 2**18 - 1, where 2**n has 10 to 13 digits.  A search
    # that loses its hit fails at the deadline instead of hanging
    with open(DATA_DIR / "pow2_minbase.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == list(range(1, 201))
    for r in rows:
        with deadline(30):
            b, rep = min_pal_base(1 << int(r["n"]))
        assert (b, rep.digits) == (int(r["b"]), tuple(map(int, r["digits"].split()))), r


def test_min_pal_base_pow2_extension(deadline):
    # b(2**n) for n = 201..400, kernel output written by
    # scripts/pow2_minbase_sweep.py: each row reads 2**n as a palindrome of
    # binomial form in a base 2**x - 1, and no base 2**y - 1 with y < x
    # reads 2**n palindromically; the rest of the minimality is the
    # kernel's, so five rows, the squares among them, are derived again
    with open(DATA_DIR / "pow2_minbase_ext.csv", encoding="utf-8", newline="") as fh:
        label, *lines = fh
    assert label.startswith("#") and "kernel output" in label
    rows = {
        int(r["n"]): (int(r["b"]), tuple(map(int, r["digits"].split())))
        for r in csv.DictReader(lines)
    }
    assert list(rows) == list(range(201, 401))
    for n, (b, digits) in rows.items():
        rep = Representation(b, digits)
        assert from_digits(rep) == 1 << n and is_palindrome(rep), n
        assert classify_binomial(rep) is not None, n
        assert (b + 1) & b == 0, n
        x = b.bit_length()
        assert not any(is_palindrome(to_digits(1 << n, (1 << y) - 1)) for y in range(2, x))
    with deadline(60):
        found = {n: min_pal_base(1 << n) for n in (256, 289, 324, 361, 400)}
    for n, (b, rep) in found.items():
        assert (b, rep.digits) == rows[n]


# -- the divisor path: long 3-digit runs from divisors(n - c) ----------------


@pytest.fixture
def divisor_runs(monkeypatch):
    """The m = n - c whose divisors the kernel took, in call order; a try
    that came back without a list is not listed."""
    calls = []

    def spy(m, **limits):
        divs = divisors(m, **limits)
        if divs is not None:
            calls.append(m)
        return divs

    monkeypatch.setattr("palinradix.palindrome.divisors", spy)
    return calls


class Try(NamedTuple):
    m: int
    budget: float
    max_count: float
    split: tuple | None  # the small factors and cofactor the kernel passed
    taken: bool
    rho_steps: int  # summed over the try's rho calls


@pytest.fixture
def divisor_tries(monkeypatch):
    """Every try of the divisor step, as a Try, in call order.  Brent
    rho's steps are counted by a spy that also checks each call stayed
    within the budget it was given."""
    tries, steps = [], []

    def rho_spy(m, budget=math.inf):
        d, used = _brent_rho(m, budget)
        assert used <= budget, (m, used, budget)
        steps.append(used)
        return d, used

    def spy(m, budget=math.inf, max_count=math.inf, split=None):
        steps.clear()
        divs = divisors(m, budget=budget, max_count=max_count, split=split)
        tries.append(Try(m, budget, max_count, split, divs is not None, sum(steps)))
        return divs

    monkeypatch.setattr("palinradix.numtheory._brent_rho", rho_spy)
    monkeypatch.setattr("palinradix.palindrome.divisors", spy)
    return tries


@pytest.fixture
def sieve_calls(monkeypatch):
    """(c_lo, c_hi, bound) of every sieve the kernel makes, in call order."""
    calls = []

    def spy(n, c_lo, c_hi, bound):
        calls.append((c_lo, c_hi, bound))
        return shifted_splits(n, c_lo, c_hi, bound)

    monkeypatch.setattr("palinradix.palindrome.shifted_splits", spy)
    return calls


@pytest.fixture
def short_div_runs(monkeypatch):
    """Weigh rho steps and divisors at almost nothing, so that a try's
    budget and divisor cap are vast yet finite: every 3-digit run of
    _COFACTOR_RUN_MIN bases or more in a window that pays for the sieve
    takes the divisor path unless its split leaves a cofactor past the
    Miller-Rabin bound, and the windows below reach it on n small enough
    for the oracle."""
    monkeypatch.setattr("palinradix.palindrome._RHO_STEP", 2.0**-40)
    monkeypatch.setattr("palinradix.palindrome._DIV_EACH", 2.0**-40)


def run_bounds(n, c):
    """First and last base of the 3-digit run of leading digit c:
    n // b**2 >= c iff b <= isqrt(n // c)."""
    return math.isqrt(n // (c + 1)) + 1, math.isqrt(n // c)


def takes_divisor_path(n, c, lo, hi):
    """Whether the kernel, entering the run of c at lo with a window that
    ends at hi inside it, takes bases lo..hi from divisors(n - c): the run
    is long enough, the window pays for a sieve, and the split from it
    leaves no cofactor or the run pays for its test, and divisors(n - c)
    fits the run's budget."""
    if hi - lo < palindrome._SIEVE_RUN_MIN:
        return False
    c_lo, splits = palindrome._sieved(n, lo, hi, c)
    if splits is None:
        return False
    split = splits[c - c_lo]
    if split[1] > 1 and hi - lo < palindrome._COFACTOR_RUN_MIN:
        return False
    return palindrome._divisors_within(n - c, hi - lo, split) is not None


def step_gate(tau, rho_steps):
    """The fewest bases past the first, end - b, with which a run or band
    takes the divisor step, for a number with tau divisors whose rho
    splits take rho_steps steps: rho gets half the run's scan at
    _RHO_STEP bases a step, and each divisor weighs _DIV_EACH bases."""
    return max(2 * palindrome._RHO_STEP * rho_steps, palindrome._DIV_EACH * tau)


# the fewest bases with which a window of one 3-digit run pays for a sieve
SIEVE_GATE = palindrome._SIEVE_EACH * palindrome._SIEVE_MIN


@pytest.mark.parametrize("n", [1 << 36, 3**23, 10**11 + 3])
def test_divisor_path_windows(n, divisor_runs, short_div_runs):
    # windows that start or end inside long runs, or cross from one into
    # the next; each half-window of 4500+ bases takes the divisor path
    first1, last1 = run_bounds(n, 1)
    first2, last2 = run_bounds(n, 2)
    first3, _ = run_bounds(n, 3)
    windows = [
        (last1 - 5000, last1),
        (last1 - 5000, last1 + 300),  # past isqrt(n): 2-digit bases
        (first1 + 1000, first1 + 7000),
        (last2 - 4500, last2 + 4500),
        (first3 - 4600, first3 + 4600),
    ]
    for lo, hi in windows:
        divisor_runs.clear()
        assert scan(n, lo, hi, 3) == oracle(n, lo, hi, 3), (lo, hi)
        assert divisor_runs, (lo, hi)
    assert takes_divisor_path(n, 2, last2 - 4500, last2)


def planted_3digit(c, d, b):
    return c * b * b + d * b + c


def test_divisor_path_hits_on_run_edges(rng, divisor_runs, short_div_runs):
    # (c, b-1, c)_b puts a hit on the first base of the run of c, (c, 0, c)_b
    # on the last; windows of 4200 bases on either side take the divisor path
    for _ in range(6):
        b = rng.randint(70_000, 120_000)
        c = rng.choice((1, 2))
        for d, edge in ((b - 1, 0), (0, 1)):
            n = planted_3digit(c, d, b)
            assert run_bounds(n, c)[edge] == b
            lo, hi = b - 4200, b + 4200
            divisor_runs.clear()
            got = scan(n, lo, hi, 3)
            assert (b, (c, d, c)) in got
            assert got == oracle(n, lo, hi, 3), (n, b)
            assert n - c in divisor_runs, (n, b)


def test_divisor_path_hit_next_to_window(rng, divisor_runs, short_div_runs):
    # a hit just before or just after a window inside its run must not be
    # yielded, and one on the window's edge must be
    for _ in range(6):
        b = rng.randint(70_000, 120_000)
        c = rng.choice((1, 2))
        n = planted_3digit(c, rng.randint(2 * b // 5, 3 * b // 5), b)
        first, last = run_bounds(n, c)
        for lo, hi in ((b + 1, b + 4200), (b - 4200, b - 1), (b, b + 4200), (b - 4200, b)):
            assert first <= lo and hi <= last and takes_divisor_path(n, c, lo, hi)
            divisor_runs.clear()
            got = scan(n, lo, hi, 3)
            assert got == oracle(n, lo, hi, 3), (n, lo, hi)
            assert ((b, (c, n // b % b, c)) in got) == (lo <= b <= hi)
            assert divisor_runs == [n - c]


def test_divisor_path_jobs_two_splits_a_run(rng, divisor_runs, short_div_runs):
    # two scans of 6000 bases that meet inside a run, with a hit on the
    # last base of the first scan or the first base of the second
    for shift in (0, 1, 0, 1):
        b = rng.randint(70_000, 200_000)
        n = planted_3digit(1, rng.randint(2 * b // 5, 3 * b // 5), b)
        lo = b - 6000 + shift  # the second scan starts at lo + 6000
        hi = lo + 11_999
        divisor_runs.clear()
        got = scan(n, lo, lo + 5999, 3) + scan(n, lo + 6000, hi, 3)
        assert got == scan(n, lo, hi, 3) == oracle(n, lo, hi, 3), (n, lo)
        assert divisor_runs.count(n - 1) == 3  # once a half, once whole


# n, and the gate of its run of leading digit 1 with the real constants: a
# window of that one run pays for a sieve from SIEVE_GATE bases on, and the
# sieve takes the primes below the window's length over _SIEVE_EACH
RUN_GATES = {
    # n - 1 = 3**3 * 5 * 7 * 13 * 19 * 37 * 73 * 109: 512 divisors
    1 << 36: 16 * 512,
    # n - 1 = 2 * 3 * 7 * (1543 * 1543067): the sieve to 4064 // 16 leaves
    # the cofactor, which rho splits in 254 steps, 16 bases each
    10**11 + 3: 16 * 254,
    # n - 1 = 2 * 609067 * 619813: rho takes 1662 steps
    2 * 609067 * 619813 + 1: 16 * 1662,
    # n - 1 = 3 * 2**36: 74 divisors would pay from 1184 bases, the sieve
    # from SIEVE_GATE
    3 * 2**36 + 1: SIEVE_GATE,
}


@pytest.mark.parametrize("n", list(RUN_GATES))
def test_divisor_path_cost_bound(n, divisor_tries, sieve_calls):
    # with the real constants, the run of leading digit 1 entered `gate`
    # bases before its last base takes the divisor path, and entered one
    # base later does not: its try gets one rho step or one divisor too few
    # (or, below SIEVE_GATE, the window makes no sieve and no try)
    _, last = run_bounds(n, 1)
    gate = RUN_GATES[n]
    lo = last - gate
    assert scan(n, lo, last, 3) == oracle(n, lo, last, 3)
    [taken] = divisor_tries
    assert taken.m == n - 1 and taken.taken
    assert (taken.budget, taken.max_count) == (gate // 16, gate // 16)
    # the one run's sieve, to the window's length over 16, gave its split
    assert sieve_calls == [(1, 1, gate // 16)]
    assert taken.split == trial_factorize(n - 1, gate // 16 - 1)
    tau = len(divisors(n - 1))
    assert max(SIEVE_GATE, step_gate(tau, taken.rho_steps)) == gate
    divisor_tries.clear()
    assert scan(n, lo + 1, last, 3) == oracle(n, lo + 1, last, 3)
    assert [t.taken for t in divisor_tries] == ([False] if gate > SIEVE_GATE else [])


def balanced_semiprime(bits, rng):
    """(p, q): primes with p < q < 2p whose product has the given bit
    length, both near its square root: rho's hardest case of that size."""
    while True:
        p = rng.getrandbits(bits // 2) | 1 << (bits // 2 - 1) | 1
        q = p + 2 * rng.randint(1, p // 4)
        if (p * q).bit_length() == bits and is_prime(p) and is_prime(q):
            return p, q


@pytest.mark.parametrize("bits", [36, 44, 52, 60, 70, 80])
def test_divisor_path_adversarial_semiprimes(bits, rng, divisor_tries):
    # n - 1 = p * q with p < q < 2p puts (1, q - p, 1)_p in the run of
    # leading digit 1.  Windows of 4096 to about 60000 bases around p each
    # try the divisor step within their budget; rho never runs past it,
    # the tries that split n - 1 take the step, and hits match the
    # oracle's whether or not they did
    taken = 0
    for _ in range(2):
        p, q = balanced_semiprime(bits, rng)
        n = p * q + 1
        first, last = run_bounds(n, 1)
        for width in (4096, 12000, 40000):
            lo, hi = max(first, p - width), min(last, p + width // 2)
            assert hi - lo >= width
            divisor_tries.clear()
            got = scan(n, lo, hi, 3)
            assert got == oracle(n, lo, hi, 3), (n, lo, hi)
            assert (p, (1, q - p, 1)) in got
            [t] = divisor_tries
            assert t.m == p * q and t.budget == (hi - lo) // 16
            assert t.rho_steps <= t.budget
            assert t.taken == (_brent_rho(p * q, t.budget)[0] != 0)
            taken += t.taken
    if bits <= 44:
        assert taken, bits  # rho splits most such m within budget
    if bits >= 60:
        assert not taken, bits  # about 2**(bits/4) steps: past every budget


# primes p, q past 2**40, so that p * q passes the Miller-Rabin bound and
# factorize, whose wheel stops at 10**6, could not split it
PAST_MR_SEMIPRIMES = {
    1: (1_649_267_441_959, 2_199_023_255_579),
    2: (1_924_145_348_627, 2_199_023_255_579),
    5: (1_739_461_287_703, 2_199_023_255_579),
}


def test_divisor_path_off_past_mr_limit(divisor_runs, short_div_runs):
    # with the budget out of the way every long 3-digit run of a window
    # that pays for a sieve takes the divisor path below the Miller-Rabin
    # bound.  Past it, a run takes it only when the sieve leaves a cofactor
    # below the bound: not on n - c = p * q with p, q > 2**40, where the
    # unbudgeted divisors() would raise
    for c, (p, q) in PAST_MR_SEMIPRIMES.items():
        assert is_prime(p) and is_prime(q)
        n = p * q + c
        assert n - c >= _MR_LIMIT and _trial_divide(n - c) == ({}, n - c)
        first, last = run_bounds(n, c)
        assert first < last - 4000
        assert scan(n, last - 4000, last, 3) == oracle(n, last - 4000, last, 3), c
    assert divisor_runs == []
    # 2**82 - c for c = 1, 2, 5 leaves a cofactor of 75, 73 and 77 bits
    # below the bound (2**82 - 1 = 3 * 83 * 13367 * 164511353 * 8831418697)
    n = 1 << 82
    for c in (1, 2, 5):
        assert n - c >= _MR_LIMIT > _trial_divide(n - c)[1]
        _, last = run_bounds(n, c)
        assert scan(n, last - 4000, last, 3) == oracle(n, last - 4000, last, 3), c
    assert divisor_runs == [n - 1, n - 2, n - 5]


def test_divisor_path_past_mr_limit_real_constants(divisor_tries):
    # with the real constants the same runs try within their budgets and
    # nothing raises: the past-MR products are scanned, and each try of
    # 2**82 - c stays within its rho budget
    for c, (p, q) in PAST_MR_SEMIPRIMES.items():
        n = p * q + c
        _, last = run_bounds(n, c)
        divisor_tries.clear()
        assert scan(n, last - 6000, last, 3) == oracle(n, last - 6000, last, 3), c
        [t] = divisor_tries
        assert (t.m, t.taken, t.rho_steps) == (p * q, False, 0)
    n = 1 << 82
    for c in (1, 2, 5, 6):
        _, last = run_bounds(n, c)
        divisor_tries.clear()
        assert scan(n, last - 6000, last, 3) == oracle(n, last - 6000, last, 3), c
        [t] = divisor_tries
        assert t.m == n - c and t.budget == 375 and t.rho_steps <= 375


def test_divisor_path_tries_short_windows_of_2_80(divisor_tries, sieve_calls):
    # windows of 6000 bases at the ends of the runs of 2**80 sieve their
    # one digit to 375 and try the step with a budget of 375 rho steps:
    # rho's worst case on n - c, about 2**20 steps, would cost far more
    # than the window, but many n - c split within it, and only those take
    # the step
    n = 1 << 80
    taken = []
    for c in range(2, 40):
        _, last = run_bounds(n, c)
        divisor_tries.clear()
        sieve_calls.clear()
        got = scan(n, last - 6000, last, 3)
        if c in (2, 8, 13, 39):
            assert got == oracle(n, last - 6000, last, 3), c
        assert sieve_calls == [(c, c, 375)]
        [t] = divisor_tries
        assert (t.m, t.budget, t.max_count) == (n - c, 375, 375)
        assert t.split == trial_factorize(n - c, 374)
        assert t.rho_steps <= t.budget
        if t.taken:
            taken.append(c)
    assert 8 in taken and 2 not in taken and len(taken) < 30


# -- the sieve: splits of n - c for the runs ahead --------------------------


def sieved_digits(n, lo, hi):
    """The leading digits of the 3-digit runs that a scan of lo..hi <=
    isqrt(n) enters with _SIEVE_RUN_MIN bases or more ahead, highest first."""
    out, b = [], max(lo, iroot(n, 3) + 1)
    while b <= hi:
        c = n // (b * b)
        end = min(hi, math.isqrt(n // c))
        long_run = c and b >= palindrome._SIEVE_RUN_MIN * 2 * c
        if long_run and end - b >= palindrome._SIEVE_RUN_MIN:
            out.append(c)
        b = end + 1
    return out


@pytest.mark.parametrize("n", [1 << 40, 3**26 + 7])
def test_sieve_windows_inside_a_segment(n, sieve_calls, divisor_runs):
    # windows that start or end inside the one segment of a scan of the
    # 3-digit band sieve just the digits of their own runs, from the first
    # run long enough down to the digit of the window's last base
    root = math.isqrt(n)
    for lo, hi in (
        (root // 2, root // 2 + 40_000),  # both ends inside runs
        (root - 30_000, root),  # ends on the band's last base
        (run_bounds(n, 3)[0], run_bounds(n, 3)[0] + 50_000),  # starts on a run
        (run_bounds(n, 40)[0] + 7, run_bounds(n, 30)[1] - 7),
    ):
        sieve_calls.clear()
        divisor_runs.clear()
        assert scan(n, lo, hi, 3) == oracle(n, lo, hi, 3), (lo, hi)
        digits = sieved_digits(n, lo, hi)
        [(c_lo, c_hi, bound)] = sieve_calls
        assert (c_lo, c_hi) == (n // hi**2, digits[0]), (lo, hi)
        assert palindrome._SIEVE_MIN <= bound <= palindrome._SIEVE_MAX
        assert divisor_runs and {n - m for m in divisor_runs} <= set(digits)


@pytest.mark.parametrize("n", [1 << 40, 903215209369])
def test_long_runs_try_once(n, window_blocks, divisor_tries):
    # a 3-digit run of _SIEVE_RUN_MIN bases or more tries divisors(n - c)
    # once and windows its bases when the try fails; its blocks end by the
    # run's last base, so that the next run's try starts on its own first
    # base (for these n, every run that tries; where the walk enters a run
    # inside it, as 2**36 does the run of 60, the try is made there).
    # Tries fail on 33 of the 131 runs of 2**40 and on 32 of the 121 of
    # 903215209369, a random N: most n - c have more divisors than their
    # run pays for, and 5 of the latter keep a cofactor that rho does not
    # split within the run's budget.
    cube, root = iroot(n, 3), math.isqrt(n)
    list(_palindromic_bases(n, cube + 1, root, 3))
    cs = [n - t.m for t in divisor_tries]
    assert len(cs) == len(set(cs)) and not all(t.taken for t in divisor_tries)
    starts = {b for b, _, _ in window_blocks}
    for t, c in zip(divisor_tries, cs):
        first, last = run_bounds(n, c)
        assert t.max_count == (last - first) // palindrome._DIV_EACH, c
        assert t.taken or first in starts, c
    for b, e, _ in window_blocks:
        c = n // b**2
        assert b < _SIEVE_RUN_MIN * 2 * c or e <= math.isqrt(n // c), (b, e)


def test_sieve_gates_the_runs(divisor_tries):
    # over a complete scan of 2**36's 3-digit band every try comes with the
    # sieve's split; runs from _SIEVE_RUN_MIN bases on try when the split
    # is whole, and from _COFACTOR_RUN_MIN on when it leaves a cofactor
    n = 1 << 36
    lo, hi = iroot(n, 3) + 1, math.isqrt(n)
    assert scan(n, lo, hi, 3) == oracle(n, lo, hi, 3)
    lengths = {t.m: 16 * t.max_count for t in divisor_tries}
    whole = [t for t in divisor_tries if t.split[1] == 1]
    assert all(t.split[1] == 1 or lengths[t.m] >= 1024 for t in divisor_tries)
    assert min(lengths[t.m] for t in whole) < 1024 and len(whole) < len(divisor_tries)
    assert min(lengths.values()) >= palindrome._SIEVE_RUN_MIN


def test_sieve_jobs_two_splits_a_segment(sieve_calls, divisor_runs):
    # two scans that meet inside the run of 5 each sieve their own digits;
    # that run is in both scans' sieves, and each scan's part of it takes
    # the divisor path
    n = 1 << 41
    first, _ = run_bounds(n, 5)
    meet = first + 20_000  # the second scan's first base
    lo, hi = meet - 60_000, meet + 59_999
    got = scan(n, lo, meet - 1, 3) + scan(n, meet, hi, 3)
    assert got == scan(n, lo, hi, 3) == oracle(n, lo, hi, 3)
    one, two, whole = sieve_calls
    assert one[0] == two[1] == 5 and (one[1], two[0]) == (whole[1], whole[0])
    assert (one[0], one[1]) == (5, sieved_digits(n, lo, meet - 1)[0])
    assert divisor_runs.count(n - 5) == 3  # once a half, once whole


def test_sieve_window_spans_segments(monkeypatch, sieve_calls, divisor_runs):
    # with segments of 7 digits, a window of 30-odd digits sieves one
    # segment after the other, each from the digit below the last one's
    monkeypatch.setattr(palindrome, "_SIEVE_SPAN", 7)
    n = 1 << 40
    lo, hi = run_bounds(n, 40)[0] + 11, run_bounds(n, 8)[1] - 11
    assert scan(n, lo, hi, 3) == oracle(n, lo, hi, 3)
    digits = sieved_digits(n, lo, hi)
    assert len(sieve_calls) == -(-(digits[0] - n // hi**2 + 1) // 7) >= 4
    assert sieve_calls[0][1] == digits[0] and sieve_calls[-1][0] == n // hi**2
    for (c_lo, c_hi, _), (next_lo, next_hi, _) in zip(sieve_calls, sieve_calls[1:]):
        assert c_hi - c_lo + 1 == 7 and next_hi == c_lo - 1
    assert len({n - m for m in divisor_runs}) >= 10


def test_small_scans_do_not_sieve(sieve_calls):
    # table 2's scans (2**n, n <= 20) and min_pal_base never make a sieve:
    # their runs hold too few bases to pay for one
    render(2, "csv")
    for n_exp in range(1, 21):
        pow2_complete_scan(n_exp)
    for n in (10**11 + 3, 963761198400, 1 << 44):
        min_pal_base(n)
    assert sieve_calls == []
    pow2_complete_scan(30)
    assert sieve_calls


def test_even_band_one_trial_division_per_call(monkeypatch):
    # every try of divisors(n) in one kernel call shares one split of n by
    # trial division: over b(2**n) for n <= 200 the even bands try more
    # often than there are kernel calls, and no call trial-divides twice
    counts, tries = [], []
    real_td, real_kernel = palindrome._trial_divide, palindrome._palindromic_bases

    def td_spy(*args):
        counts[-1] += 1
        return real_td(*args)

    def kernel_spy(*args):
        counts.append(0)
        yield from real_kernel(*args)

    def divisors_spy(m, **limits):
        tries.append(m)
        return divisors(m, **limits)

    monkeypatch.setattr(palindrome, "_trial_divide", td_spy)
    monkeypatch.setattr("palinradix.numtheory._trial_divide", td_spy)
    monkeypatch.setattr(palindrome, "_palindromic_bases", kernel_spy)
    monkeypatch.setattr(palindrome, "divisors", divisors_spy)
    for n_exp in range(1, 201):
        min_pal_base(1 << n_exp)
    assert max(counts) == 1
    assert len(tries) > sum(counts) + 100


def test_divisor_path_off_in_four_digit_band(divisor_runs, sieve_calls, short_div_runs):
    # the run of leading digit 1 where 2**66 + 1 has 4 digits is about
    # 840k bases long, long enough to split n - 1 as a 3-digit run would,
    # yet never takes divisors(n - c) nor sieves: that path is for 3-digit
    # runs only.  The band has an even digit count, so it takes divisors(n)
    # instead.
    b = 1 << 22
    n = b**3 + 1  # (1, 0, 0, 1)_b, on the run's last base
    lo = iroot(n // 2, 3) + 1
    assert palindrome._divisors_within(n - 1, b - lo) is not None
    divisor_runs.clear()
    hits = list(_palindromic_bases(n, lo, b, 4))
    assert (hits[-1].base, hits[-1].digits) == (b, (1, 0, 0, 1))
    assert divisor_runs == [n] and sieve_calls == []


def test_pow2_scans_frozen(divisor_runs):
    # one SHA-256 per n of the hits in [2, isqrt(2**n)], frozen from the
    # per-base oracle by scripts/freeze_goldens.py; n = 47, 48 are frozen
    # too, but left out here for time
    with open(DATA_DIR / "pow2_scan_sha256.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == list(range(35, 49))
    for r in rows[:12]:
        n = 1 << int(r["n"])
        hits = scan(n, 2, math.isqrt(n), 2)
        assert len(hits) == int(r["hits"]), r
        assert scan_digest(hits) == r["sha256"], r
    assert divisor_runs


# -- the even-band path: even digit counts from divisors(n) -------------------


def even_bands(n, lo=_EVEN_BAND_MIN):
    """(first, last) base of each band from lo on where n has an even
    number p + 1 of digits, p >= 3."""
    out = []
    for p in range(3, n.bit_length(), 2):
        first, last = max(lo, iroot(n, p + 1) + 1), iroot(n, p)
        if first <= last:
            out.append((first, last))
    return out


@pytest.mark.parametrize(
    "n, taken",
    [
        (3**26, True),  # p**k: the 4-digit band is 1263..13647
        (7**15, True),
        (1 << 41, True),
        (1 << 43, True),
        (2**20 * 3**5 * 1000003, True),  # a prime cofactor past 200**2
        # highly composite: 6720 divisors cost more than the 8853 bases
        # of the band 1024..9877
        (963761198400, False),
    ],
)
def test_even_band_complete_windows(n, taken, divisor_runs):
    # every base up to iroot(n, 3) + 500, with the 4-digit band from 1024 on
    hi = iroot(n, 3) + 500
    for min_digits in (2, 3):
        assert scan(n, 2, hi, min_digits) == oracle(n, 2, hi, min_digits)
    assert divisor_runs == ([n, n] if taken else [])


def test_even_band_pow2_first_hits(divisor_runs, deadline):
    # the b(2**n) of the frozen list that lie in an even band past 1024;
    # a band shorter than 16 * (n + 1) bases, 16 a divisor of 2**n, is
    # scanned, and so is every later one until one pays for divisors(2**n)
    with open(DATA_DIR / "pow2_minbase.csv", encoding="utf-8", newline="") as fh:
        rows = [
            (int(r["n"]), int(r["b"]), tuple(map(int, r["digits"].split())))
            for r in csv.DictReader(fh)
        ]
    rows = [r for r in rows if r[1] >= _EVEN_BAND_MIN and len(r[2]) % 2 == 0]
    assert len(rows) > 50
    taken = 0
    for n_exp, b, digits in rows:
        divisor_runs.clear()
        with deadline(30):
            got = min_pal_base(1 << n_exp)
        assert (got[0], got[1].digits) == (b, digits), n_exp
        assert divisor_runs in ([], [1 << n_exp]), n_exp
        taken += bool(divisor_runs)
    assert taken > len(rows) * 3 // 4


def test_even_band_random_first_hits(rng, divisor_runs, deadline):
    # random (c, d, d, c)_b past 1024; every other n is split by trial
    # division to 200, so that the divisor path may take its band
    taken = 0
    for i in range(40):
        if i % 2:
            b = rng.choice(SPLIT_BASES)
            n = split_planted(b, b // 4, b - 1, rng, max_divisors=10**9)[2]
        else:
            b = rng.randint(_EVEN_BAND_MIN + 1, 4000)
            n = rng.randint(1, b - 1) * (b**3 + 1) + rng.randint(0, b - 1) * (b * b + b)
        divisor_runs.clear()
        with deadline(30):
            assert min_pal_base(n) == naive_min_pal_base(n), n
        taken += divisor_runs == [n]
    assert taken >= 10


def test_even_band_planted_edges(rng, divisor_runs):
    # even-length palindromes on the first and the last base of a 4- or
    # 6-digit band past 1024, found as first hits and inside windows
    first_hits = 0
    for _ in range(60):
        b = rng.randint(_EVEN_BAND_MIN + 1, 3000)
        p = rng.choice((3, 5))
        n = rng.choice(
            [
                b**p + 1,  # (1, 0, ..., 0, 1)_b: b = iroot(n, p), the band's end
                sum(b**i for i in range(p + 1)),  # the repunit, likewise
                b ** (p + 1) - 1,  # (b-1, ..., b-1)_b: b = iroot(n, p + 1) + 1
                (b - 1) * (b**p + 1),  # (b-1, 0, ..., 0, b-1)_b, on the band's start
            ]
        )
        assert (n // b**p) in (1, b - 1) and iroot(n, p + 1) < b <= iroot(n, p)
        got = min_pal_base(n)
        assert got == naive_min_pal_base(n), (n, b)
        first_hits += got[0] == b
        for lo, hi in ((b - 40, b), (b, b + 40), (b - 2, b + 2)):
            assert scan(n, lo, hi, 4) == oracle(n, lo, hi, 4), (n, lo, hi)
    assert first_hits >= 20


# bases b past 1024 with b + 1 a product of primes below 200
SPLIT_BASES = (1199, 1295, 1499, 2047, 2186, 2399, 3071, 3999, 5831, 6143, 7999)


def split_planted(b, c_lo, c_hi, rng, max_divisors):
    """(c, d, n) with n = (c, d, d, c)_b = (b + 1) * (c * (b*b - b + 1) + d * b)
    for c in [c_lo, c_hi], split by trial division to 200 into at most
    max_divisors divisors, so that divisors(n) costs little; b is one of
    SPLIT_BASES."""
    for _ in range(20_000):
        c, d = rng.randint(c_lo, c_hi), rng.randint(0, b - 1)
        n = c * (b**3 + 1) + d * (b * b + b)
        factors, rest = trial_factorize(n, 200)
        if rest == 1 and math.prod(e + 1 for e in factors.values()) <= max_divisors:
            return c, d, n
    raise AssertionError(f"no split n for base {b}")


@pytest.mark.parametrize("b", [_EVEN_BAND_MIN - 1, _EVEN_BAND_MIN])  # 1024 and 5**2 * 41
def test_even_band_planted_at_block_min(b, rng, divisor_runs):
    # (c, d, d, c)_b on base 1023 is found by the scan, on base 1024 by the
    # divisor path; windows start before, on and after it
    for _ in range(3):
        c, d, n = split_planted(b, 500, b - 1, rng, max_divisors=400)
        hi = iroot(n, 3) + 10
        # n is fully split by trial division: the band pays for its divisors
        assert hi - _EVEN_BAND_MIN > palindrome._DIV_EACH * len(divisors(n))
        for lo in (1000, b - 1, b, b + 1):
            divisor_runs.clear()
            got = scan(n, lo, hi, 3)
            assert got == oracle(n, lo, hi, 3), (n, lo)
            assert ((b, (c, d, d, c)) in got) == (lo <= b)
            assert divisor_runs == [n], (n, lo)
        # below 1024 the band is scanned
        divisor_runs.clear()
        lo = iroot(n, 4) + 1
        assert scan(n, lo, _EVEN_BAND_MIN - 1, 3) == oracle(n, lo, _EVEN_BAND_MIN - 1, 3)
        assert divisor_runs == []


@pytest.mark.parametrize("n", [3**26, 1 << 43])
def test_even_band_windows_inside(n, divisor_runs):
    # windows that start or end inside the 4-digit band, or cross from the
    # band into the 3-digit one
    first, last = even_bands(n)[-1]
    assert iroot(n, 3) == last
    for lo, hi in (
        (first + 100, last - 100),
        (first - 50, first + 3000),
        (last - 3000, last + 40),
        (last - 3000, last),
        (first, first + 1500),
    ):
        divisor_runs.clear()
        assert scan(n, lo, hi, 3) == oracle(n, lo, hi, 3), (lo, hi)
        assert divisor_runs == [n], (lo, hi)


def test_even_band_jobs_two_splits_a_band(rng, divisor_runs):
    # two scans of 6000 bases that meet inside the 4-digit band of
    # (c, d, d, c)_7999, with a hit planted on the last base of the first
    # scan or the first base of the second
    for shift in (0, 1, 0, 1):
        b = 7999
        c, d, n = split_planted(b, 6, 30, rng, max_divisors=300)
        lo = b - 6000 + shift  # the second scan starts at lo + 6000
        hi = lo + 11_999
        assert iroot(n, 4) < lo and hi <= iroot(n, 3)
        assert 6000 > palindrome._DIV_EACH * len(divisors(n))  # fully split
        divisor_runs.clear()
        got = scan(n, lo, lo + 5999, 3) + scan(n, lo + 6000, hi, 3)
        assert got == scan(n, lo, hi, 3) == oracle(n, lo, hi, 3), (n, lo)
        assert b in [x for x, _ in got]
        assert divisor_runs == [n, n, n]  # once a half, once whole


@pytest.mark.parametrize("min_digits", [3, 4, 5, 6, 7])
def test_even_band_min_digits(min_digits, divisor_runs):
    # 2**43 has 4 digits in bases 1218..20642 and 6 in 372..1217: min_digits
    # on either side of each even count
    n = 1 << 43
    want = oracle(n, 300, 21000, min_digits)
    assert scan(n, 300, 21000, min_digits) == want
    assert bool([b for b, _ in want if b >= 1218]) == (min_digits <= 4)
    assert divisor_runs == ([n] if min_digits <= 4 else [])


@pytest.mark.parametrize("n", [55440, 65536, 99991 * 7, 2 * 3 * 5 * 7 * 11 * 13 * 17])
@pytest.mark.parametrize("min_digits", [1, 2])
def test_even_band_two_digit_band(n, min_digits, divisor_runs):
    # windows past isqrt(n), into the 2-digit band and beyond n, where
    # every base reads n as one digit
    r = math.isqrt(n)
    for lo, hi in ((2, min(n + 5, 60_000)), (r - 5, r + 3000), (n - 3000, n + 5)):
        lo = max(lo, 2)
        divisor_runs.clear()
        assert scan(n, lo, hi, min_digits) == oracle(n, lo, hi, min_digits), (lo, hi)


def test_even_band_cost_edge(divisor_tries):
    # a band entered step_gate bases before its last base takes the
    # divisor path, entered one base later it is scanned
    for n, tau, rho_steps in (
        (2**30 * 3**10, 341, 0),  # fully split: the divisor count rules
        # a cofactor m > 1 that rho splits in 1022 steps, 16 bases each
        (3**9 * 1000003 * 1000033, 40, _brent_rho(1000003 * 1000033)[1]),
    ):
        first, last = even_bands(n)[0]
        gate = step_gate(tau, rho_steps)
        assert 5000 < gate < last - first
        for lo, taken in ((last - gate, True), (last - gate + 1, False)):
            divisor_tries.clear()
            assert scan(n, lo, last, 4) == oracle(n, lo, last, 4), (n, lo)
            assert [(t.m, t.taken) for t in divisor_tries] == [(n, taken)], (n, lo)


def test_even_band_cost_model():
    within = palindrome._divisors_within
    # an n with millions of divisors takes its small even bands by
    # scanning; the try ends on the divisor count of the wheel's primes
    n = 2**10 * 3**6 * 5**4 * 7**3 * 11**2 * 13**2
    n *= 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    tau = 11 * 7 * 5 * 4 * 3 * 3 * 2**9
    assert within(n, 16 * tau - 1) is None
    # 2**200: no rho, 201 divisors at 16 bases each
    assert within(1 << 200, 16 * 201 - 1) is None
    assert within(1 << 200, 16 * 201) == [1 << k for k in range(201)]
    # a cofactor m that rho splits: half the band buys its steps
    m = 1000003 * 1000033
    n = 3**9 * m
    steps = _brent_rho(m)[1]
    assert within(n, 16 * steps - 1) is None
    assert within(n, 16 * steps) == divisors(n)
    # past the Miller-Rabin bound no length pays
    assert within(3000**9 + 1, 10**12) is None


def test_even_band_block_min_edge(divisor_runs):
    # the band of 3**24 = 282429536481 with 4 digits is 730..6561; a window
    # whose band part from 1024 on is one base short of 16 bases a divisor
    # of n is scanned, even when it starts below 1024
    n = 3**24
    cost = palindrome._DIV_EACH * 25  # fully split, 25 divisors
    assert iroot(n, 4) < 1000 and iroot(n, 3) > _EVEN_BAND_MIN + cost
    for lo, hi, taken in (
        (_EVEN_BAND_MIN, _EVEN_BAND_MIN + cost, True),
        (_EVEN_BAND_MIN - 1, _EVEN_BAND_MIN + cost - 1, False),
        (1000, _EVEN_BAND_MIN + cost - 1, False),
    ):
        divisor_runs.clear()
        assert scan(n, lo, hi, 4) == oracle(n, lo, hi, 4), (lo, hi)
        assert divisor_runs == ([n] if taken else []), (lo, hi)


def test_even_band_off_past_mr_limit(divisor_runs, deadline):
    # 3000**9 + 1 = (1, 0, ..., 0, 1)_3000 has a composite cofactor past the
    # Miller-Rabin bound once trial division is done: the even bands are
    # scanned, divisors(n) is never called and nothing raises
    n = 3000**9 + 1
    m = _trial_divide(n)[1]
    assert m >= _MR_LIMIT and m % (613 * 1129) == 0  # 13 * 613 * 1129 = b*b - b + 1
    assert palindrome._divisors_within(n, 10**12) is None
    with deadline(30):
        found = min_pal_base(n)
    assert found == naive_min_pal_base(n)
    for first, last in even_bands(n):
        lo, hi = max(first - 5, 2), min(last + 5, first + 2000)
        assert scan(n, lo, hi, 2) == oracle(n, lo, hi, 2), (lo, hi)
    assert divisor_runs == []


# -- the 2-digit band: the even-band step at p = 1 ------------------------------


def two_digit_hits(n, lo):
    """The closed form's (b, (c, c)) with b >= lo."""
    return [(b, (c, c)) for b, c in two_digit_reps(n) if b >= lo]


@pytest.mark.parametrize("n", [55440, 65536, 99991 * 3, 2 * 3 * 5 * 7 * 11 * 13, 3**10])
def test_two_digit_band_against_closed_form(n, divisor_runs):
    # (isqrt(n), n - 1] from lo below, at and past 1024: the bases from 1024
    # on come from divisors(n), those below it from the scan
    root = math.isqrt(n)
    full = oracle(n, root + 1, n - 1, 2)
    assert full == two_digit_hits(n, root + 1)
    hit_bases = [b for b, _ in full]
    los = {root + 1, _EVEN_BAND_MIN - 1, _EVEN_BAND_MIN, _EVEN_BAND_MIN + 1, 5000}
    los |= {b + d for b in hit_bases[:8] + hit_bases[-3:] for d in (0, 1)}
    for lo in sorted(los):
        divisor_runs.clear()
        got = [(r.base, r.digits) for r in _palindromic_bases(n, lo, n - 1, 2)]
        assert got == [h for h in full if h[0] >= lo], lo
        if lo <= 5000:  # the rest of the band pays for divisors(n)
            assert divisor_runs == [n], lo
    # windows that end on a hit or just before it
    for b in hit_bases[:8] + hit_bases[-3:]:
        for hi in (b - 1, b):
            want = [h for h in full if h[0] <= hi]
            assert scan(n, root + 1, hi, 2) == want, hi
            assert scan(n, max(root + 1, hi - 3000), hi, 2) == [
                h for h in want if h[0] >= hi - 3000
            ], hi


@pytest.mark.parametrize(
    "n",
    [
        1 << 40,
        (1 << 61) - 1,  # a prime: only (1, 1)_{n-1}
        2 * 1_000_000_007,
        1_000_003 * 1_000_033,
        10**12,
        963761198400,  # 6720 divisors
    ],
)
def test_two_digit_band_large_n(n, divisor_runs):
    # the whole band (isqrt(n), n - 1] against the closed form alone
    lo = math.isqrt(n) + 1
    want = two_digit_hits(n, lo)
    divisor_runs.clear()
    got = [(r.base, r.digits) for r in _palindromic_bases(n, lo, n - 1, 2)]
    assert got == want
    assert divisor_runs == [n]


def test_pow2_complete_scan_two_digit_part(monkeypatch, divisor_runs):
    # the records past isqrt(2**n) are the closed form's, in base order
    for n_exp in (1, 2, 3, 12, 19, 20, 21, 36):
        n = 1 << n_exp
        report = pow2_complete_scan(n_exp)
        bound = math.isqrt(n)
        got = [(r.rep.base, r.rep.digits) for r in report.records if r.rep.base > bound]
        assert got == two_digit_hits(n, bound + 1), n_exp
        bases = [r.rep.base for r in report.records]
        assert bases == sorted(set(bases)) and report.exhaustive, n_exp
        assert pow2_complete_scan(n_exp, min_digits=3).records == tuple(
            r for r in report.records if r.digit_count >= 3
        )
    # one kernel call: the 4-digit band and the 2-digit band share
    # divisors(2**40)
    divisor_runs.clear()
    pow2_complete_scan(40)
    assert divisor_runs.count(1 << 40) == 1
    # a scan of the explicit range [2, C] holds the complete scan's records
    # with base <= C, and is exhaustive.  The records of 2**64 and 2**65
    # come from the oracle, for C below isqrt(N): a complete scan of them
    # takes seconds.
    for n_exp, his in (
        (12, (30, 64, 65, 1000, 4094, 4095, 5000)),  # isqrt 64, N - 1 = 4095
        (40, (5000, 1 << 20, (1 << 20) + 1, 1 << 30, (1 << 40) - 1)),
        (64, (1000, 5000)),
        (65, (1000, 5000)),
    ):
        n = 1 << n_exp
        if n_exp < 64:
            full = [(r.rep.base, r.rep.digits) for r in pow2_complete_scan(n_exp).records]
        for hi in his:
            want = oracle(n, 2, hi, 2) if n_exp >= 64 else [h for h in full if h[0] <= hi]
            report = enumerate_palindromes(n, 2, hi)
            assert [(r.rep.base, r.rep.digits) for r in report.records] == want, hi
            assert report.base_range == (2, hi) and report.exhaustive, hi
            three = enumerate_palindromes(n, 2, hi, 3)
            assert three.records == tuple(r for r in report.records if r.digit_count >= 3)
            assert three.exhaustive, hi
    # the complete scan of 2**n runs to N - 1 and is exhaustive for every n;
    # the kernel is stubbed, as the complete scans of 2**64 and up take seconds
    ranges = []
    monkeypatch.setattr(
        palindrome, "_palindromic_bases", lambda *args: ranges.append(args) or iter(())
    )
    for n_exp in (63, 64, 65):
        ranges.clear()
        n = 1 << n_exp
        assert pow2_complete_scan(n_exp).exhaustive
        assert pow2_complete_scan(n_exp, min_digits=3).exhaustive
        assert ranges == [(n, 2, n - 1, 2), (n, 2, math.isqrt(n), 3)]


def hard_n(rng, root_lo, root_hi, count):
    """count n = a * b with a <= b < 2a whose isqrt lies in [root_lo,
    root_hi] and which no base up to isqrt(n) reads palindromically: b(n)
    lies in the 2-digit band, at most b - 1 < 2a, so the oracle stays cheap."""
    out = []
    for _ in range(20_000):
        a = rng.randint(root_lo, root_hi)
        n = a * rng.randint(a, 2 * a - 1)
        if root_lo <= math.isqrt(n) <= root_hi and not oracle(n, 2, math.isqrt(n), 3):
            out.append(n)
            if len(out) == count:
                return out
    raise AssertionError("too few n without a palindrome below isqrt(n)")


@pytest.mark.parametrize("root_lo, root_hi", [(700, _EVEN_BAND_MIN - 1), (_EVEN_BAND_MIN, 1500)])
def test_min_pal_base_two_digit_hits(root_lo, root_hi, rng, divisor_runs, deadline):
    # b(n) > isqrt(n), with isqrt(n) on either side of 1024
    for n in hard_n(rng, root_lo, root_hi, 12):
        divisor_runs.clear()
        with deadline(30):
            got = min_pal_base(n)
        assert got == naive_min_pal_base(n), n
        if math.isqrt(n) >= _EVEN_BAND_MIN:
            assert divisor_runs == [n], n
        assert got[0] > math.isqrt(n) and len(got[1].digits) == 2
        assert got[0] == two_digit_hits(n, math.isqrt(n) + 1)[0][0]
