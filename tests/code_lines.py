"""Count the code lines of each module of src/qdirac.

Usage, from anywhere:

    python tests/code_lines.py

A code line is a line that holds a token of Python code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function) do not count, and a line inside any other
string that spans lines does. Prints one `count path` line per module, sorted
by path, then the total. Stdlib only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdirac"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%5d %s" % (n, path.relative_to(PACKAGE.parents[1])))
    print("%5d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
