#!/usr/bin/env python3
"""Print the raw and code line counts of every ``src/barolab`` module.

Usage, from the repository root::

    python tools/loc.py [SRC_DIR]

A code line is a line that holds a token of code.  Blank lines, comment lines
and the lines of docstrings (the first statement of a module, class or
function when it is a string) do not count; a line that mixes code with a
trailing comment does.  The last row is the total over all modules.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "barolab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers covered by docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text):
    """``(raw, code)`` line counts of one Python source."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(text.splitlines()), len(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=SRC, type=Path,
                        help="the package directory (default: src/barolab)")
    src = parser.parse_args(argv).src
    total_raw = total_code = 0
    print(f"{'module':<24}{'raw':>6}{'code':>6}")
    for path in sorted(src.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<24}{raw:>6}{code:>6}")
    print(f"{'total':<24}{total_raw:>6}{total_code:>6}")


if __name__ == "__main__":
    main()
