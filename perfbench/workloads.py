"""The benchmark's three workloads.

A workload is built from the imported palinradix package and a seed (its
set-up).  `ops(index)` returns pass `index` as a list of (call, check)
pairs: the benchmark times `call()` alone, then `check(output)` compares
the output with answers from `refs`, never from palinradix itself.  Calls
look palinradix names up when they run, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

import refs


def cli_op(cli, argv: list[str]):
    """A call running `cli.main(argv)` with stdout and stderr captured;
    it returns (exit code, stdout)."""

    def call() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


class Pow2Scan:
    """`scan --pow2 n --format csv --jobs 1` for each exponent in 38..43.

    All six exponents run in every pass, in an order the seed draws: a
    subset would make the work per pass depend on the seed by up to 2x.
    """

    name = "pow2-scan"
    repeated = True  # the same ops every pass
    parallel = False  # runs in this process alone

    band_input = 1 << 40

    def __init__(self, pkg, seed: int, root: Path, exponents=range(38, 44)):
        self.cli = pkg.cli
        self.exponents = random.Random(seed).sample(list(exponents), len(exponents))
        self.expected: dict[int, str] = {}

    def ops(self, index: int) -> list:
        if not self.expected:
            self.expected = {n: refs.sha256(refs.pow2_scan_csv(n)) for n in self.exponents}
        return [
            (
                cli_op(self.cli, ["scan", "--pow2", str(n), "--format", "csv", "--jobs", "1"]),
                lambda out, want=self.expected[n]: out[0] == 0 and refs.sha256(out[1]) == want,
            )
            for n in self.exponents
        ]


def half_octave(v: int) -> int:
    """floor(2 * log2(v)) for v >= 1."""
    k = v.bit_length() - 1
    return 2 * k + (v * v >= 1 << (2 * k + 1))


def cost_stratum(n: int, b: int) -> tuple[bool, int]:
    """(hard, size class) of a min_pal_base(n) call whose answer is b.

    A call scans bases 2..min(b, isqrt(n)); hard calls (b > isqrt(n)) scan
    them all and then take the divisor path.  Hard calls are classed by the
    octave of isqrt(n), the others by the half-octave of b, so calls in one
    stratum cost within 2x, or within sqrt(2)x.
    """
    r = math.isqrt(n)
    return (True, r.bit_length() - 1) if b > r else (False, half_octave(b))


# Calls per stratum in a pass of 200: the shares of 20000 N drawn uniformly
# from [10**11, 10**12], rounded by largest remainder (the strata that
# round to no calls, all with b(N) < 2**12, hold 0.5% of N).  b(N) is
# Pareto-like (a scan stops at base b with chance ~1/b), so each octave
# costs about the same in total, and a plain uniform sample of 200 swings
# the pass time and op_p95_ms by 20-30% with the few calls that land in the
# top octaves.
MINBASE_STRATA = {
    (False, 24): 2, (False, 25): 16, (False, 26): 44, (False, 27): 40,
    (False, 28): 28, (False, 29): 20, (False, 30): 15, (False, 31): 10,
    (False, 32): 7, (False, 33): 5, (False, 34): 3, (False, 35): 3,
    (False, 36): 2, (False, 37): 1, (False, 38): 1,
    (True, 18): 1, (True, 19): 2,
}


class MinbaseRandom:
    """`min_pal_base(N)` for N uniform in [10**11, 10**12], 200 calls a pass.

    Each pass draws fresh N, so no pass repeats an earlier input.  The draw
    is stratified by cost: uniform N are drawn and kept while their stratum
    (see `cost_stratum`) has room, until every stratum holds its count.
    """

    name = "minbase-random"
    repeated = False
    parallel = False

    def __init__(self, pkg, seed: int, root: Path, strata: dict = MINBASE_STRATA,
                 lo: int = 10**11, hi: int = 10**12):
        self.palindrome = pkg.palindrome
        self.seed, self.strata, self.lo, self.hi = seed, strata, lo, hi
        self.band_input = random.Random(seed).randint(lo, hi)

    def draw(self, index: int) -> list[tuple[int, tuple[int, tuple[int, ...]]]]:
        """Pass `index`'s inputs with their reference answers."""
        rng = random.Random(f"{self.seed}/{index}")
        room = dict(self.strata)
        batch = []
        while any(room.values()):
            n = rng.randint(self.lo, self.hi)
            r = math.isqrt(n)
            if room.get((True, r.bit_length() - 1)):
                limit = None
            else:
                # no room above this base: stop the reference scan there
                limit = max(
                    (math.isqrt((1 << (size + 1)) - 1)
                     for (hard, size), left in room.items() if left and not hard),
                    default=1,
                )
            want = refs.min_pal_base(n, limit)
            if want is None:
                continue
            key = cost_stratum(n, want[0])
            if room.get(key):
                room[key] -= 1
                batch.append((n, want))
        rng.shuffle(batch)
        return batch

    def ops(self, index: int) -> list:
        return [
            (
                lambda n=n: self.palindrome.min_pal_base(n),
                lambda out, want=want: (out[0], out[1].digits) == want,
            )
            for n, want in self.draw(index)
        ]


class Pow2Sweep:
    """`conjectures --max-n 200 --jobs 2`, then `table K --format csv
    --golden tests/data/tableK.csv` for K = 1..5.  Fixed inputs: the seed
    is not used."""

    name = "pow2-sweep"
    repeated = True
    parallel = True  # conjectures --jobs 2 runs a worker pool

    VERDICTS = {"a": "holds", "b": "holds", "c": "holds", "d": "inconclusive", "e": "holds"}

    def __init__(self, pkg, seed: int, root: Path, max_n: int = 200, jobs: int = 2,
                 table_ids=(1, 2, 3, 4, 5)):
        self.cli = pkg.cli
        self.max_n, self.jobs = max_n, jobs
        self.goldens = {
            k: root / "tests" / "data" / f"table{k}.csv" for k in table_ids
        }
        self.expected = {k: path.read_text(encoding="utf-8") for k, path in self.goldens.items()}
        # The 3-digit band of 2**200 lies above the 2**63 - 1 base cap; that
        # of 2**125 is the highest below it.
        self.band_input = 1 << min(max_n, 125)

    def verdicts_hold(self, out: str) -> bool:
        found = {}
        for line in out.splitlines():
            if line.startswith("(") and ": " in line:
                found[line[1]] = line.rsplit(": ", 1)[1]
        return found == self.VERDICTS

    def ops(self, index: int) -> list:
        argv = ["conjectures", "--max-n", str(self.max_n), "--jobs", str(self.jobs)]
        ops = [(cli_op(self.cli, argv), lambda out: out[0] == 0 and self.verdicts_hold(out[1]))]
        for k, path in self.goldens.items():
            argv = ["table", str(k), "--format", "csv", "--golden", str(path)]
            ops.append(
                (cli_op(self.cli, argv),
                 lambda out, want=self.expected[k]: out[0] == 0 and out[1] == want)
            )
        return ops


WORKLOADS = {w.name: w for w in (Pow2Scan, MinbaseRandom, Pow2Sweep)}
