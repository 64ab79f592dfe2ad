"""What the benchmark and the package's users rely on beyond the verdicts.

perfbench/spans.py wraps the callables it lists in TRACED by name, and
perfbench/child.py calls public functions on the root package.  Removing
or moving one of them breaks the benchmark, not the CLI, so these tests
read the names without installing the tracer.  The package also promises
to need only the standard library: importing the CLI loads no numpy.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import koszulity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve_in_their_modules():
    for layer, entries in _traced().items():
        home = importlib.import_module(f"koszulity.{layer}")
        for qualname, kind in entries.items():
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                fn = vars(getattr(home, cls_name)).get(meth)
            else:
                fn = vars(home).get(qualname)
            assert callable(fn), f"koszulity.{layer}.{qualname} is gone"
            if kind == "gen":
                assert inspect.isgeneratorfunction(fn), qualname


def _attributes_read(path: Path, name: str) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_benchmark_child_names_are_exported():
    child = PERFBENCH / "child.py"
    names = _attributes_read(child, "kz")
    assert names, "child.py no longer reads the root package as kz"
    for name in names:
        assert name in koszulity.__all__ and callable(getattr(koszulity, name)), name
    cli = importlib.import_module("koszulity.cli")
    for name in _attributes_read(child, "cli"):
        assert callable(getattr(cli, name, None)), name


def test_importing_the_cli_loads_no_numpy():
    src = str(Path(koszulity.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, koszulity.cli; sys.exit('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr or "koszulity.cli imported numpy"
