"""Print the code-line count of every ``corgi`` module and the export count.

    python scripts/code_lines.py SRC_DIR

SRC_DIR is the directory that holds the ``corgi`` package (``src`` in this
repository). A code line is a line that holds at least one token outside
comments and docstrings: blank lines, comment lines and the lines of a
docstring (a string literal that is the first statement of a module, class
or function) do not count, and neither do the pure line breaks and
indentation tokens. A statement split over several lines counts every line
a token of it sits on. The script prints one ``module lines`` row per file,
then the total, then the number of names ``import corgi`` exports (public
attributes that are not submodules), imported from SRC_DIR.

Two checkouts give comparable output, so

    diff <(python scripts/code_lines.py OLD/src) <(python scripts/code_lines.py src)

shows which modules grew or shrank.
"""

from __future__ import annotations

import ast
import inspect
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
                first.value.value, str
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines holding a token outside comments and docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0])
    total = 0
    for path in sorted((src / "corgi").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    sys.path.insert(0, str(src))
    import corgi

    exports = [
        name for name in dir(corgi)
        if not name.startswith("_") and not inspect.ismodule(getattr(corgi, name))
    ]
    print(f"exports {len(exports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
