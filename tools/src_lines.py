"""Line counts of the package source at a git ref and in the working tree.

Usage (from anywhere inside the repository):

    python3 tools/src_lines.py [BASE]

BASE is any git ref (default HEAD).  The files of src/koszulity at BASE
are read with `git show`, so the working tree, the index and HEAD are left
alone.  Prints one line per module, then the totals, with two counts,
each at BASE, in the working tree and the difference: all lines, and
code lines, those that are not blank, not comments and not docstrings.
The second shows whether a change in the first comes from code or only
from comments and docstrings.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/koszulity"

# the tokens that make no line code, and the nodes that have docstrings
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True
    ).stdout


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) of each module, class and function docstring, as
    (line, column) pairs."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                s = first.value
                spans.append(((s.lineno, s.col_offset), (s.end_lineno, s.end_col_offset)))
    return spans


def code_lines(text: str) -> int:
    """The lines of Python source text that hold a token other than a
    comment or a docstring; a multi-line token counts on every line it
    spans."""
    docs = _docstrings(ast.parse(text))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def counts(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one module."""
    return len(text.splitlines()), code_lines(text)


def counts_at(ref: str) -> dict[str, tuple[int, int]]:
    # REF:path names a path from the repository root, whatever the cwd
    names = git("ls-tree", "--full-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        name: counts(git("show", f"{ref}:{PACKAGE}/{name}"))
        for name in names
        if name.endswith(".py")
    }


def counts_in_tree(root: Path) -> dict[str, tuple[int, int]]:
    return {
        path.name: counts(path.read_text(encoding="utf-8"))
        for path in (root / PACKAGE).glob("*.py")
    }


def row(name: str, old: tuple[int, int], new: tuple[int, int]) -> None:
    (a, ca), (b, cb) = old, new
    print(f"{name:<16}{a:>12}{b:>8}{b - a:>+8}{ca:>12}{cb:>8}{cb - ca:>+8}")


def total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(a for a, _ in counts.values()), sum(c for _, c in counts.values())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.stderr.write("usage: src_lines.py [BASE]\n")
        return 2
    base = argv[0] if argv else "HEAD"
    try:
        root = Path(git("rev-parse", "--show-toplevel").strip())
        old = counts_at(base)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        return 2
    new = counts_in_tree(root)
    head = f"{base:>12}{'tree':>8}{'delta':>8}"
    print(f"{'':<16}{'lines':>28}{'code lines':>28}")
    print(f"{'module':<16}{head}{head}")
    for name in sorted(old.keys() | new.keys()):
        row(name, old.get(name, (0, 0)), new.get(name, (0, 0)))
    row("total", total(old), total(new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
