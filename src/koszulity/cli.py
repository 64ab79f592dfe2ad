"""Command-line interface.

Subcommands:

- analyze: classify one graph and write a JSON report;
- census: classify every isomorphism class on n vertices (or the classes of
  a supplied graph6 file) and write a CSV;
- witness: print the certified non-universal-Koszulity counterexample.

Exit codes: 0 success, 2 malformed input, 3 resource guard refused the
computation, 4 witness requested for a graph that has none.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time

from . import __version__
from .algebra import build_algebra, element_string, monomial_string
from .errors import InputError, ResourceLimitError
from .graphs import (
    ConeNode,
    DiagonalViolation,
    Graph,
    LeafNode,
    build_graph,
    canonical_form,
    diagonal_violation,
    nonisomorphic_graphs,
    parse_edge_list,
    parse_graph6,
)
from .koszul import KoszulReport, NonUKWitness, classify, non_universal_witness

CENSUS_MAX_VERTICES = 7


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path} is not ASCII text: byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start}"
        )


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "graph6":
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line)
        raise InputError("no graph6 line found in input")
    return parse_edge_list(text)


def _violation_json(w: DiagonalViolation) -> dict:
    return {
        "kind": "violation",
        "pattern": w.kind,
        "v1": w.v1,
        "v2": w.v2,
        "v3": w.v3,
        "v4": w.v4,
    }


def _tree_json(node) -> dict:
    if isinstance(node, DiagonalViolation):
        return _violation_json(node)
    if isinstance(node, LeafNode):
        return {"kind": "vertex", "vertex": node.vertex}
    if isinstance(node, ConeNode):
        return {"kind": "cone", "apex": node.apex, "base": _tree_json(node.base)}
    return {"kind": "union", "children": [_tree_json(c) for c in node.children]}


def _witness_json(w: NonUKWitness) -> dict:
    return {
        "violation": _violation_json(w.violation),
        "b": element_string(w.b),
        "culprit": monomial_string(w.culprit),
        "certificate": {
            "b_annihilates_culprit": w.culprit_annihilated,
            "culprit_outside_degree_one_part": w.culprit_outside_degree_one_part,
        },
    }


def report_json(report: KoszulReport, timing_ms: int) -> dict:
    uk: dict = {
        "fast": report.universal_fast,
        "brute": "skipped" if report.universal_brute is None else report.universal_brute,
    }
    if report.witness is not None:
        uk["witness"] = _witness_json(report.witness)
    g = report.graph
    return {
        "graph": {
            "n": g.n,
            "edges": [list(e) for e in sorted(g.edges)],
            "labels": list(g.labels) if g.labels is not None else None,
        },
        "p": report.p,
        "dims": list(report.dims),
        "diagonal_property": report.diagonal_property,
        "decomposition": _tree_json(report.decomposition),
        "strongly_koszul": {
            "pass": report.strong.passed,
            "pairs_checked": report.strong.pairs_checked,
        },
        "universally_koszul": uk,
        "pbw": report.pbw,
        "dual_series_nonneg": report.dual_series_nonneg,
        "tool_version": __version__,
        "timing_ms": timing_ms,
    }


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    g = _load_graph(args.input, args.format)
    start = time.perf_counter()
    report = classify(g, p=args.p, brute=args.brute, dual_order=args.dual_order)
    timing_ms = int((time.perf_counter() - start) * 1000)
    payload = report_json(report, timing_ms)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


CENSUS_COLUMNS = (
    "canonical_key",
    "n",
    "edges",
    "dims",
    "diagonal",
    "strong_pass",
    "universal_fast",
    "universal_brute",
    "pbw",
    "dual_nonneg",
)


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _census_row(task):
    key, n, edges, p, run_brute, dual_order = task
    g = build_graph(n, edges)
    report = classify(g, p=p, brute="on" if run_brute else "off", dual_order=dual_order)
    brute = report.universal_brute
    violation = (
        not report.strong.passed
        or not report.pbw
        or not report.dual_series_nonneg
        or (brute is not None and brute != report.universal_fast)
    )
    row = (
        key,
        str(n),
        str(len(edges)),
        " ".join(str(d) for d in report.dims),
        _bool(report.diagonal_property),
        _bool(report.strong.passed),
        _bool(report.universal_fast),
        "skipped" if brute is None else _bool(brute),
        _bool(report.pbw),
        _bool(report.dual_series_nonneg),
    )
    return row, violation


def _census_workers() -> int:
    raw = os.environ.get("KOSZUL_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InputError(f"KOSZUL_THREADS must be a positive integer, got {raw!r}")
    if workers < 1:
        raise InputError(f"KOSZUL_THREADS must be a positive integer, got {raw!r}")
    return workers


def cmd_census(args) -> int:
    if args.input is not None:
        classes: dict[str, Graph] = {}
        for line in _read_text(args.input).splitlines():
            if line.strip():
                g = parse_graph6(line)
                classes.setdefault(canonical_form(g), g)
        tasks = [
            (key, classes[key].n, tuple(sorted(classes[key].edges)))
            for key in sorted(classes)
        ]
    else:
        if not 1 <= args.n <= CENSUS_MAX_VERTICES:
            raise InputError(
                f"census self-generation supports 1 <= n <= {CENSUS_MAX_VERTICES}"
            )
        tasks = [
            (canonical_form(g), g.n, tuple(sorted(g.edges)))
            for g in nonisomorphic_graphs(args.n)
        ]
    work = [
        (key, n, edges, args.p, n <= args.brute_max_d, args.dual_order)
        for key, n, edges in tasks
    ]
    workers = _census_workers()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_census_row, work, chunksize=8))
    else:
        results = [_census_row(t) for t in work]
    lines = [",".join(CENSUS_COLUMNS)]
    offenders = []
    for (row, violation) in results:
        lines.append(",".join(row))
        if violation:
            offenders.append(row[0])
    summary = f"# classes={len(results)} theorem_violations={len(offenders)}"
    if offenders:
        summary += " offenders=" + " ".join(offenders)
    lines.append(summary)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_witness(args) -> int:
    g = _load_graph(args.input, args.format)
    if diagonal_violation(g) is None:
        sys.stderr.write(
            "no witness exists: graph has the diagonal property (elementary type)\n"
        )
        return 4
    ctx = build_algebra(g, args.p)
    w = non_universal_witness(ctx)
    v = w.violation
    sys.stdout.write(
        "\n".join([
            f"pattern: {v.kind}",
            f"v1={v.v1} v2={v.v2} v3={v.v3} v4={v.v4}",
            f"b = {element_string(w.b)}",
            f"culprit = {monomial_string(w.culprit)}",
            f"culprit in Ann(b) degree 2: {_bool(w.culprit_annihilated)}",
            f"culprit outside (Ann(b)_1)*A_1: {_bool(w.culprit_outside_degree_one_part)}",
        ]) + "\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszulity",
        description="Exact Koszulity checks for graph exterior algebras over F_p.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify one graph, write a JSON report")
    pa.add_argument("-i", "--input", required=True, help="input graph file")
    pa.add_argument(
        "--format", choices=("edgelist", "graph6"), default="edgelist"
    )
    pa.add_argument("-p", type=int, default=2, help="prime field characteristic")
    pa.add_argument("--brute", choices=("auto", "on", "off"), default="auto")
    pa.add_argument("--dual-order", type=int, default=12, dest="dual_order")
    pa.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("census", help="classify all classes on n vertices, write CSV")
    pc.add_argument("-n", type=int, default=4, help="vertex count (1..7)")
    pc.add_argument("-p", type=int, default=2)
    pc.add_argument(
        "--brute-max-d",
        type=int,
        default=4,
        dest="brute_max_d",
        help="run the brute universal check when the graph has at most this many vertices",
    )
    pc.add_argument(
        "--in",
        dest="input",
        default=None,
        help="classify the graph6 lines of this file instead of self-generating",
    )
    pc.add_argument("--dual-order", type=int, default=12, dest="dual_order")
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=cmd_census)

    pw = sub.add_parser("witness", help="print the non-universal-Koszulity witness")
    pw.add_argument("-i", "--input", required=True)
    pw.add_argument(
        "--format", choices=("edgelist", "graph6"), default="edgelist"
    )
    pw.add_argument("-p", type=int, default=2)
    pw.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
