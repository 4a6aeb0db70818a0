#!/usr/bin/env python3
"""Regenerate all five reference tables and diff them against the frozen
snapshots in tests/data/.

Exit status 0 when every table matches, 3 on any mismatch (mirroring the
CLI's golden-check convention).  Use --format to eyeball other renderings;
only csv is snapshot-checked.
"""

import argparse
import pathlib
import sys

from palinradix.tables import TABLE_IDS, render

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="rendering printed to stdout (default text)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the snapshot comparison, just print",
    )
    args = parser.parse_args(argv)

    failures = 0
    for table_id in TABLE_IDS:
        print(f"=== table {table_id} ===")
        text = render(table_id, args.format)
        sys.stdout.write(text)
        if args.no_check:
            continue
        if args.format != "csv":
            text = render(table_id, "csv")
        frozen = (DATA_DIR / f"table{table_id}.csv").read_text(encoding="utf-8")
        if text == frozen:
            print(f"--- table {table_id}: matches frozen snapshot", file=sys.stderr)
        else:
            print(f"--- table {table_id}: MISMATCH against snapshot", file=sys.stderr)
            failures += 1
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
