"""Regenerate the five reference tables from scratch.

Every row is recomputed through the search and classification code paths;
nothing is replayed from stored data.  Display strings factor the digit gcd
out front, so (3,6,3)_8 prints as 3*(1,2,1)_8 and an unscalable row prints
plainly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

from .binomial import classify_binomial
from .palindrome import min_pal_base, pow2_complete_scan
from .radix import Representation, is_palindrome, split_common_factor, to_digits

PRIMES_TO_29 = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def scaled_str(rep: Representation) -> str:
    return str(split_common_factor(rep))


class Table1Row(NamedTuple):
    n: int
    b: int


class Table2Row(NamedTuple):
    n: int
    b: int
    c: int
    d: int


class Table3Row(NamedTuple):
    n: int
    k: int
    x: int
    r: int
    b: int
    representation: str


class Table4Row(NamedTuple):
    p: int
    n: int
    b: int
    representation: str
    binomial: bool


class Table5Row(NamedTuple):
    n: int
    representation: str
    palindromic: bool


def table1_rows(n_max: int = 100) -> list[Table1Row]:
    """Minimal palindromic base b(N) for N = 1..n_max."""
    return [Table1Row(n, min_pal_base(n)[0]) for n in range(1, n_max + 1)]


def table2_rows(n_max: int = 20) -> list[Table2Row]:
    """Non-binomial 3-digit palindromes 2**n = (c,d,c)_b for n <= n_max.

    They are the 3-digit records of the complete scan of 2**n from three
    digits on, over the bases 2..max(isqrt(2**n), 2).
    """
    return [
        Table2Row(n, rec.rep.base, *rec.rep.digits[:2])
        for n in range(1, n_max + 1)
        for rec in pow2_complete_scan(n, min_digits=3).records
        if rec.digit_count == 3 and rec.binomial is None
    ]


def table3_rows(n_max: int = 64) -> list[Table3Row]:
    """Minimal-base representation of 2**n with its n = k*x + r split.

    Relies on two facts that hold throughout the range (and are verified,
    not assumed): the minimal base is 2**x - 1, and the representation is
    a multiple of a binomial one, so k and r are read off its classification.
    """
    rows = []
    for n in range(1, n_max + 1):
        b, rep = min_pal_base(1 << n)
        if (b + 1) & b != 0:
            raise AssertionError(f"b(2**{n}) = {b} is not of the form 2**x - 1")
        x = (b + 1).bit_length() - 1
        cls = classify_binomial(rep)
        if cls is None:
            raise AssertionError(f"minimal representation of 2**{n} not binomial")
        rows.append(Table3Row(n, cls.degree, x, n - cls.degree * x, b, scaled_str(rep)))
    return rows


def table4_rows(limit: int = 1 << 30) -> list[Table4Row]:
    """Minimal-base representations of prime powers p**n below the limit."""
    rows = []
    for p in PRIMES_TO_29:
        value = p
        n = 1
        while value < limit:
            b, rep = min_pal_base(value)
            rows.append(
                Table4Row(p, n, b, scaled_str(rep), classify_binomial(rep) is not None)
            )
            value *= p
            n += 1
    return rows


def table5_rows(n_max: int = 30) -> list[Table5Row]:
    """Base-3 representation of 2**n and whether it is palindromic."""
    rows = []
    for n in range(1, n_max + 1):
        rep = to_digits(1 << n, 3)
        rows.append(Table5Row(n, scaled_str(rep), is_palindrome(rep)))
    return rows


_HEADERS = {
    1: ("N", "b"),
    2: ("n", "b", "c", "d"),
    3: ("n", "k", "x", "r", "b", "representation"),
    4: ("p", "n", "b", "representation", "binomial"),
    5: ("n", "representation", "palindromic"),
}

_GENERATORS = {
    1: table1_rows,
    2: table2_rows,
    3: table3_rows,
    4: table4_rows,
    5: table5_rows,
}

TABLE_IDS = tuple(sorted(_GENERATORS))


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_csv(table_id: int) -> str:
    if table_id not in _GENERATORS:
        raise ValueError(f"unknown table id {table_id}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADERS[table_id])
    for row in _GENERATORS[table_id]():
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render_json(table_id: int) -> str:
    if table_id not in _GENERATORS:
        raise ValueError(f"unknown table id {table_id}")
    header = _HEADERS[table_id]
    rows = [
        {key: value for key, value in zip(header, row)}
        for row in _GENERATORS[table_id]()
    ]
    return json.dumps({"table": table_id, "rows": rows}, indent=2) + "\n"


def _render_grid(rows: list[Table1Row]) -> str:
    """The 10x10 layout: entry at (i, j) is b(i + j), top-left cell empty."""
    by_n = {row.n: row.b for row in rows}
    out = ["     " + "".join(f"{j:>4}" for j in range(10))]
    for i in range(0, len(rows) + 1, 10):
        cells = []
        for j in range(10):
            b = by_n.get(i + j)
            cells.append(f"{b:>4}" if b is not None else "    ")
        line = f"{i:>5}" + "".join(cells)
        out.append(line.rstrip())
    return "\n".join(out) + "\n"


def render_text(table_id: int) -> str:
    if table_id not in _GENERATORS:
        raise ValueError(f"unknown table id {table_id}")
    rows = _GENERATORS[table_id]()
    if table_id == 1:
        return _render_grid(rows)
    header = _HEADERS[table_id]
    table = [header] + [tuple(_cell(v) for v in row) for row in rows]
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def render(table_id: int, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(table_id)
    if fmt == "csv":
        return render_csv(table_id)
    if fmt == "json":
        return render_json(table_id)
    raise ValueError(f"unknown format {fmt!r}")
