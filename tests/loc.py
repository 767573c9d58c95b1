"""Code lines of each module of the package, and their total.

A line counts when a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER starts on it, outside every module, class and
function docstring that ast finds.  So blank lines, comments, docstrings
and the continuation lines of a bracket or a string do not count.

    python tests/loc.py              # src/clutterkit
    python tests/loc.py DIR          # the .py files under DIR

pytest does not collect this file.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    with path.open("rb") as f:
        starts = {tok.start[0] for tok in tokenize.tokenize(f.readline)
                  if tok.type not in SKIPPED and tok.type != tokenize.ENCODING}
    return len(starts - docstring_lines(source))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "clutterkit"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.relative_to(root)}")
    print(f"{total:6,}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
