"""The five reference tables, rendered by one function.

render(table_id, fmt) builds a table's rows once and writes them as text,
csv or json.  Each generator recomputes its rows at the paper's size
through the search and classification code paths; nothing is replayed from
stored data.  Display strings factor the digit gcd out front, so
(3,6,3)_8 prints as 3*(1,2,1)_8 and an unscalable row prints plainly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

from .binomial import classify_binomial
from .palindrome import min_pal_base, pow2_complete_scan
from .radix import is_palindrome, split_common_factor, to_digits

PRIMES_TO_29 = (3, 5, 7, 11, 13, 17, 19, 23, 29)


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


def table1_rows() -> list[Table1Row]:
    """Minimal palindromic base b(N) for N = 1..100."""
    return [Table1Row(n, min_pal_base(n)[0]) for n in range(1, 101)]


def table2_rows() -> list[Table2Row]:
    """Non-binomial 3-digit palindromes 2**n = (c,d,c)_b for n <= 20.

    They are the 3-digit records of the complete scan of 2**n from three
    digits on, over the bases 2..max(isqrt(2**n), 2).
    """
    return [
        Table2Row(n, rec.rep.base, *rec.rep.digits[:2])
        for n in range(1, 21)
        for rec in pow2_complete_scan(n, min_digits=3).records
        if rec.digit_count == 3 and rec.binomial is None
    ]


def table3_rows() -> list[Table3Row]:
    """Minimal-base representation of 2**n, n <= 64, with its n = k*x + r
    split.

    k, x and r are read off the representation's binomial classification,
    which checks the base against 2**x - 1 and the digits against 2**r;
    a minimal representation that is not binomial in such a base stops the
    table.
    """
    rows = []
    for n in range(1, 65):
        b, rep = min_pal_base(1 << n)
        cls = classify_binomial(rep)
        if cls is None or cls.remainder is None:
            raise AssertionError(
                f"minimal representation of 2**{n} not binomial in a base 2**x - 1"
            )
        rows.append(
            Table3Row(
                n, cls.degree, cls.mersenne_exponent, cls.remainder, b,
                str(split_common_factor(rep)),
            )
        )
    return rows


def table4_rows() -> list[Table4Row]:
    """Minimal-base representations of prime powers p**n below 2**30."""
    rows = []
    for p in PRIMES_TO_29:
        value = p
        n = 1
        while value < 1 << 30:
            b, rep = min_pal_base(value)
            rows.append(
                Table4Row(
                    p, n, b, str(split_common_factor(rep)),
                    classify_binomial(rep) is not None,
                )
            )
            value *= p
            n += 1
    return rows


def table5_rows() -> list[Table5Row]:
    """Base-3 representation of 2**n, n <= 30, and whether it is
    palindromic."""
    rows = []
    for n in range(1, 31):
        rep = to_digits(1 << n, 3)
        rows.append(Table5Row(n, str(split_common_factor(rep)), is_palindrome(rep)))
    return rows


# Table id -> (column header, row generator).  Table 1's header names N,
# not its row field n: N is the column name of its csv and json.
_TABLES = {
    1: (("N", "b"), table1_rows),
    2: (Table2Row._fields, table2_rows),
    3: (Table3Row._fields, table3_rows),
    4: (Table4Row._fields, table4_rows),
    5: (Table5Row._fields, table5_rows),
}

TABLE_IDS = tuple(_TABLES)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


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


def render(table_id: int, fmt: str = "text") -> str:
    """Table table_id as text (a 10x10 grid for table 1, aligned columns
    for the others), csv or json."""
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id}")
    header, generate = _TABLES[table_id]
    rows = generate()
    if fmt == "json":
        doc = {"table": table_id, "rows": [dict(zip(header, row)) for row in rows]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "text" and table_id == 1:
        return _render_grid(rows)
    table = [header] + [tuple(map(_cell, row)) for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in table
    )
