#!/usr/bin/env python3
"""Count the code lines of Python files: every line that holds a token,
less blank lines, comments and module, class and function docstrings.

Prints one line per file, its count and path, then the total:

    python3 scripts/code_lines.py src/palinradix/*.py

A statement or string that spans several lines counts each of them.
"""

import argparse
import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)

    total = 0
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:>6}  {path}")
        total += count
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
