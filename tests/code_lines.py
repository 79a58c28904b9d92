"""Count the code lines of Python files: lines holding a token outside comments and docstrings.

Usage, from the repository root::

    python tests/code_lines.py [path ...]

Each path is a ``.py`` file or a directory searched for them; the default
is ``src/radclust``. Prints the total. A line counts when ``tokenize`` finds
a token on it other than a comment, a line break or an indent change, and
no docstring covers it; a docstring is the string statement that opens a
module, class or function body, as ``ast`` finds it, over all its lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def python_files(paths):
    """The ``.py`` files named by ``paths``, directories searched recursively, in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    paths = argv or [ROOT / "src" / "radclust"]
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in python_files(paths)))


if __name__ == "__main__":
    main(sys.argv[1:])
