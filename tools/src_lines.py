"""Line counts of the package source at a git ref and in the working tree.

Usage (from anywhere inside the repository):

    python3 tools/src_lines.py [BASE]

BASE is any git ref (default HEAD).  The files of src/koszulity at BASE
are read with `git show`, so the working tree, the index and HEAD are left
alone.  Prints one line per module with its count at BASE, in the working
tree and the difference, then the totals.  Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PACKAGE = "src/koszulity"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True
    ).stdout


def lines_at(ref: str) -> dict[str, int]:
    # REF:path names a path from the repository root, whatever the cwd
    names = git("ls-tree", "--full-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        name: len(git("show", f"{ref}:{PACKAGE}/{name}").splitlines())
        for name in names
        if name.endswith(".py")
    }


def lines_in_tree(root: Path) -> dict[str, int]:
    return {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in (root / PACKAGE).glob("*.py")
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.stderr.write("usage: src_lines.py [BASE]\n")
        return 2
    base = argv[0] if argv else "HEAD"
    try:
        root = Path(git("rev-parse", "--show-toplevel").strip())
        old = lines_at(base)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        return 2
    new = lines_in_tree(root)
    print(f"{'module':<16}{base:>12}{'tree':>8}{'delta':>8}")
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, 0), new.get(name, 0)
        print(f"{name:<16}{a:>12}{b:>8}{b - a:>+8}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<16}{a:>12}{b:>8}{b - a:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
