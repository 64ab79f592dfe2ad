"""What the benchmark and the package's users rely on beyond the verdicts.

perfbench/spans.py wraps the callables it lists in TRACED by name, and
perfbench/child.py calls public functions on the root package.  Removing
or moving one of them breaks the benchmark, not the CLI, so these tests
read the names without installing the tracer.  The package also promises
to need only the standard library: importing the CLI loads no numpy,
nor the modules a process pool or a dataclass would pull in, and a
census with two workers loads no pool either.
Conversely, every public name of the package has a caller outside the
tests.  The prime alone picks the native format, and only gfp reads it.
The records (NamedTuples) keep their fields, are immutable, compare and
hash by value, pickle, and print as Name(field=value, ...); none has an
instance dict, so none carries state beyond its fields (a Graph caches
no adjacency).
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import koszulity
from koszulity import build_graph, classify, cli, elementary_type_decomposition, graphs
from koszulity.algebra import AlgebraContext
from koszulity.koszul import StrongPairFailure

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


def test_canonical_calls_match_the_traced_benchmark_closed_forms(monkeypatch):
    # perfbench/counts.py predicts canonical_graph.calls for the census6
    # and classes7 passes: 2**(k - 1) candidates for each class on k - 1
    # vertices, k = 2..n, then one canonical_form per class on n vertices
    calls = []
    real = graphs.canonical_graph
    monkeypatch.setattr(graphs, "canonical_graph", lambda g: calls.append(g) or real(g))
    graphs.nonisomorphic_graphs.cache_clear()
    try:
        assert cli.main(["census", "-n", "6", "-o", os.devnull]) == 0
        assert len(calls) == 1462
        graphs.nonisomorphic_graphs.cache_clear()
        del calls[:]
        classes = koszulity.nonisomorphic_graphs(7)
        assert len({koszulity.canonical_form(g) for g in classes}) == 1044
        assert len(calls) == 12334
    finally:
        graphs.nonisomorphic_graphs.cache_clear()


# loaded by a process pool (concurrent.futures pulls in logging) or by
# dataclasses (which pulls in inspect); the package uses neither
_NOT_AT_START = ("numpy", "dataclasses", "inspect", "concurrent.futures", "logging")


def _loaded_at_the_end(run: str, **env) -> list[str]:
    """The modules of _NOT_AT_START loaded after run, in a fresh
    interpreter that imports the package from this tree."""
    src = str(Path(koszulity.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"import os, sys, koszulity.cli as cli; {run}; " + (
        f"print(' '.join(m for m in {_NOT_AT_START!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_importing_the_cli_loads_no_numpy():
    loaded = _loaded_at_the_end("pass")
    assert loaded == [], f"koszulity.cli imported {loaded}"


def test_census_workers_load_no_pool():
    # the workers are os.fork children, so two of them load no pool
    run = "assert cli.main(['census', '-n', '3', '-o', os.devnull]) == 0"
    loaded = _loaded_at_the_end(run, KOSZUL_THREADS="2")
    assert loaded == [], f"census with two workers imported {loaded}"


def _definitions(tree):
    """(qualname, node) for each public top-level function and class, and
    each public method of a public class; dunders count as private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield f"{node.name}.{item.name}", item


def _references(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_name_has_a_product_caller():
    # package code outside the name's own body refers to it, the benchmark
    # traces it, the root package exports it or the benchmark child reads it
    src = Path(koszulity.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    child = PERFBENCH / "child.py"
    exempt = set(koszulity.__all__).union(*_traced().values())
    exempt |= _attributes_read(child, "kz") | _attributes_read(child, "cli")
    orphans = [
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if qualname not in exempt and used[node.name] == _references(node)[node.name]
    ]
    assert not orphans, f"only the tests call {orphans}; move them to tests/conftest.py"


def _is_prime(node) -> bool:
    # p, or an attribute p such as ctx.p and self.p
    return (isinstance(node, ast.Name) and node.id == "p") or (
        isinstance(node, ast.Attribute) and node.attr == "p"
    )


def _is_two(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_two(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value == 2


def test_only_gfp_compares_the_prime_with_two():
    src = Path(koszulity.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "gfp":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_prime, operands)) and any(map(_is_two, operands)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the p = 2 format decision belongs to gfp: {found}"


# every record type of the package, with its fields in order
_RECORD_FIELDS = {
    "Graph": ("n", "edges"),
    "DiagonalViolation": ("kind", "v1", "v2", "v3", "v4"),
    "LeafNode": ("vertex",),
    "UnionNode": ("children",),
    "ConeNode": ("apex", "base"),
    "Element": ("ctx", "degree", "coeffs"),
    "GradedIdeal": ("ctx", "pieces"),
    "RowSpace": ("p", "ambient_dim", "basis"),
    "StrongPairFailure": (
        "prefix", "divisor", "computed_generators", "predicted_generators",
        "discrepancy_degree",
    ),
    "StrongKoszulReport": ("passed", "pairs_checked", "failures"),
    "BruteFailure": ("ideal", "divisor", "degree"),
    "BruteResult": (
        "verdict", "failure", "ideals_enumerated", "divisors_checked",
        "divisors_tested",
    ),
    "NonUKWitness": (
        "violation", "b", "culprit", "culprit_annihilated",
        "culprit_outside_degree_one_part",
    ),
    "KoszulReport": (
        "graph", "p", "dims", "diagonal_property", "decomposition", "strong",
        "brute", "witness", "pbw", "dual_series_nonneg",
    ),
}


def _same(a, b) -> bool:
    """Equality, field by field, with algebra contexts (compared by
    identity) matched by their graph, prime and bases instead."""
    if type(a) is not type(b):
        return False
    if isinstance(a, AlgebraContext):
        return (a.graph, a.p, a.bases) == (b.graph, b.p, b.bases)
    fields = _RECORD_FIELDS.get(type(a).__name__)
    if fields:
        return all(_same(getattr(a, f), getattr(b, f)) for f in fields)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_records_are_immutable_values_that_pickle():
    path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    report = classify(path4, 2, brute="on")
    failure = report.brute.failure
    records = [
        report, report.graph, report.decomposition, report.strong, report.brute,
        failure, failure.ideal, failure.ideal.pieces[1], failure.divisor,
        report.witness,
        StrongPairFailure((0,), 2, ((0,),), ((0,), (1,)), None),
    ]
    cone = elementary_type_decomposition(build_graph(3, [(0, 1), (1, 2)]))
    records += [cone, cone.base, cone.base.children[0]]
    assert sorted(type(r).__name__ for r in records) == sorted(_RECORD_FIELDS)
    for r in records:
        name = type(r).__name__
        fields = _RECORD_FIELDS[name]
        values = [getattr(r, f) for f in fields]
        with pytest.raises(AttributeError):
            setattr(r, fields[0], values[0])
        assert not hasattr(r, "__dict__"), name
        for twin in (type(r)(*values), type(r)(**dict(zip(fields, values)))):
            assert twin == r and hash(twin) == hash(r) and twin is not r
        assert _same(pickle.loads(pickle.dumps(r)), r), name
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(r) == f"{name}({shown})"
