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
import json
import os
import sys
import time

from . import __version__
from .algebra import build_algebra, element_string, monomial_string
from .errors import InputError, ResourceLimitError
from .gfp import Prime
from .graphs import (
    ConeNode,
    DiagonalViolation,
    Graph,
    LeafNode,
    canonical_form,
    class_share,
    diagonal_violation,
    nonisomorphic_graphs,
    parse_edge_list,
    parse_graph6,
)
from .koszul import KoszulReport, NonUKWitness, certify_witness, classify

CENSUS_MAX_VERTICES = 8


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
    """The decomposition as nested dicts, filled from an explicit stack of
    (node, its dict), so that a tree of any depth converts."""
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, out = stack.pop()
        if isinstance(node, DiagonalViolation):
            out.update(_violation_json(node))
        elif isinstance(node, LeafNode):
            out.update(kind="vertex", vertex=node.vertex)
        elif isinstance(node, ConeNode):
            out.update(kind="cone", apex=node.apex, base={})
            stack.append((node.base, out["base"]))
        else:
            out.update(kind="union", children=[{} for _ in node.children])
            stack += zip(node.children, out["children"])
    return root


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
        "fast": report.diagonal_property,
        "brute": "skipped" if report.brute is None else report.brute.verdict,
    }
    if report.witness is not None:
        uk["witness"] = _witness_json(report.witness)
    g = report.graph
    return {
        "graph": {
            "n": g.n,
            "edges": [list(e) for e in sorted(g.edges)],
            "labels": None,
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
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}")


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
    key, g, p, run_brute, dual_order = task
    report = classify(g, p=p, brute="on" if run_brute else "off", dual_order=dual_order)
    brute = report.brute
    violation = (
        not report.strong.passed
        or not report.pbw
        or not report.dual_series_nonneg
        or (brute is not None and brute.verdict != report.diagonal_property)
    )
    row = (
        key,
        str(g.n),
        str(len(g.edges)),
        " ".join(str(d) for d in report.dims),
        _bool(report.diagonal_property),
        _bool(report.strong.passed),
        _bool(report.diagonal_property),
        "skipped" if brute is None else _bool(brute.verdict),
        _bool(report.pbw),
        _bool(report.dual_series_nonneg),
    )
    return row, violation


def _census_workers() -> int:
    """KOSZUL_THREADS, validated; 1 where os.fork does not exist."""
    raw = os.environ.get("KOSZUL_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InputError(f"KOSZUL_THREADS must be a positive integer, got {raw!r}")
    if workers < 1:
        raise InputError(f"KOSZUL_THREADS must be a positive integer, got {raw!r}")
    return workers if hasattr(os, "fork") else 1


def _census_rows(tasks, args):
    """The census rows of (key, graph) tasks in order, up to the first
    failure: the rows so far, and (key, exception) or None."""
    rows = []
    for key, g in tasks:
        try:
            rows.append(_census_row(
                (key, g, args.p, g.n <= args.brute_max_d, args.dual_order)
            ))
        except Exception as exc:
            return rows, (key, exc)
    return rows, None


def _fork_map(fn, workers: int) -> list:
    """[fn(w) for w in range(workers)], fn(w) computed in worker w.
    Worker 0 is this process; the others are os.fork children, which is
    safe as census starts no threads.  Each child pickles its result into
    a pipe and leaves by os._exit, flushing none of this process's
    buffers and running no atexit handler.  A worker that os.pipe or
    os.fork cannot start is a ResourceLimitError.  Every child is reaped
    before this returns or raises."""
    if workers > 1:
        import pickle  # a serial run never pays for it
    children = []  # (pid, read end of its pipe) of each child not reaped
    try:
        for w in range(1, workers):
            fds = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError as exc:  # out of processes or descriptors
                for fd in fds:
                    os.close(fd)
                raise ResourceLimitError(
                    f"census worker {w} could not start: {exc}"
                ) from None
            if pid == 0:
                try:
                    data = pickle.dumps(fn(w))
                    with os.fdopen(write, "wb") as out:  # all or nothing
                        out.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        parts = [fn(0)]
        while children:
            pid, src = children.pop(0)
            try:
                with src:
                    data = src.read()
            finally:
                os.waitpid(pid, 0)
            if not data:
                raise RuntimeError(f"census worker {len(parts)} ended without a result")
            parts.append(pickle.loads(data))
    finally:
        if children:  # left only when this process failed
            import signal
        for pid, src in children:
            src.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts


def cmd_census(args) -> int:
    """The census CSV, its rows spread over KOSZUL_THREADS workers.  Each
    worker classifies one share of the rows: a stripe of the --in classes
    by key, or, with -n, the classes whose edge count is congruent to its
    index, which it also enumerates (graphs.class_share).  Every worker
    stops at its first failure, so the failure with the lowest key,
    raised here, is the one a serial run raises."""
    Prime(args.p)  # a bad prime exits 2 before any class is enumerated
    workers = _census_workers()
    if args.input is not None:
        classes: dict[str, Graph] = {}
        for line in _read_text(args.input).splitlines():
            if line.strip():
                g = parse_graph6(line)
                classes.setdefault(canonical_form(g), g)
        tasks = [(key, classes[key]) for key in sorted(classes)]
        shares = max(1, min(workers, len(tasks)))

        def share(w):
            return _census_rows(tasks[w::shares], args)
    else:
        n = args.n
        if not 1 <= n <= CENSUS_MAX_VERTICES:
            raise InputError(
                f"census self-generation supports 1 <= n <= {CENSUS_MAX_VERTICES}"
            )
        shares = min(workers, n * (n - 1) // 2 + 1)  # the edge counts 0..n(n-1)/2
        if shares > 1:
            nonisomorphic_graphs(n - 1)  # once, before any worker forks

        def share(w):
            tasks = [(canonical_form(g), g) for g in class_share(n, w, shares)]
            return _census_rows(tasks, args)
    parts = _fork_map(share, shares)
    failures = [failure for _, failure in parts if failure is not None]
    if failures:
        raise min(failures)[1]  # keys differ, so no exceptions compared
    results = sorted(row for rows, _ in parts for row in rows)  # by key, as keys differ
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
    p = Prime(args.p)  # a bad prime exits 2 even when no witness exists
    g = _load_graph(args.input, args.format)
    v = diagonal_violation(g)
    if v is None:
        sys.stderr.write(
            "no witness exists: graph has the diagonal property (elementary type)\n"
        )
        return 4
    w = certify_witness(build_algebra(g, p), v)
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
    pa.add_argument(
        "--dual-order", type=int, dest="dual_order", help="default: max(12, top degree)"
    )
    pa.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("census", help="classify all classes on n vertices, write CSV")
    pc.add_argument(
        "-n", type=int, default=4, help=f"vertex count (1..{CENSUS_MAX_VERTICES})"
    )
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
    pc.add_argument(
        "--dual-order", type=int, dest="dual_order", help="default: max(12, top degree)"
    )
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
