#!/usr/bin/env python3
"""Count the code lines of every module in a package directory.

A code line is a line that holds a token other than a comment, NL,
NEWLINE, INDENT or DEDENT, and is not part of a string-expression
statement (a docstring, or any other bare string).  A token that spans
several lines (a triple-quoted string) holds every line it spans.  Blank
lines, comment lines and docstrings therefore count nothing, whatever
their length.

Usage: python scripts/code_lines.py src/braidsynth

Prints one line per module, ``<lines>  <file>``, in file-name order, and
then the total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    held: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            held.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            held.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(held)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="a package directory, e.g. src/braidsynth")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at
        # devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
