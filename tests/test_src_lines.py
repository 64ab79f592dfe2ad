"""tools/src_lines.py counts code lines: not blank, not comments and not
docstrings, with a multi-line string that is no docstring counted on
every line it spans."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring
on two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring."""
    # a comment
    s = """not a
docstring"""
    return x


class C:
    "A docstring" " in two parts"

    y = 1
'''


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    module = _load()
    # import, def, the two lines of s, return, class and y
    assert module.counts(SOURCE) == (19, 7)
    assert module.code_lines("") == 0


def _in_git_checkout() -> bool:
    try:
        subprocess.run(["git", "rev-parse"], cwd=ROOT, capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _in_git_checkout(), reason="needs the git checkout")
def test_counts_of_the_tree(capsys, monkeypatch):
    module = _load()
    monkeypatch.chdir(ROOT)
    tree = module.counts_in_tree(ROOT)
    assert sorted(tree) == sorted(p.name for p in (ROOT / module.PACKAGE).glob("*.py"))
    for name, (lines, code) in tree.items():
        assert 0 < code < lines, name
    assert module.main(["HEAD"]) == 0
    out = capsys.readouterr().out.splitlines()
    cells = {line.split()[0]: line.split()[1:] for line in out[2:]}
    assert cells.keys() == tree.keys() | {"total"}
    for name, (lines, code) in tree.items():
        assert (int(cells[name][1]), int(cells[name][4])) == (lines, code), name
    assert (int(cells["total"][1]), int(cells["total"][4])) == module.total(tree)
