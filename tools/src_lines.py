"""Count the lines of a Python package by kind: code, docstring, comment
and blank.

Each line has exactly one kind, so the four counts add up to the lines of
the file:

- blank: a line of whitespace only, inside a docstring too;
- docstring: any other line that a module, class or function docstring
  spans (found by ``ast``);
- comment: a line whose only token is a comment (found by ``tokenize``);
- code: every other line, a line of code with a trailing comment included.

Run from the repository root; the directory defaults to ``src/postgrasp``:

    python3 tools/src_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code: a line holding only these is a comment line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in code:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/postgrasp")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
