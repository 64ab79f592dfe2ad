"""One pass of a workload in a fresh process.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the workload, the seed, whether to trace, a work directory
for input files and the path of the result file.  PYTHONPATH must reach
the package source.

Protocol: set-up (import koszulity.cli, generate the inputs, install the
tracer if asked), print "ready", then wait for one line on stdin.  "go"
runs the pass and writes the result JSON; anything else exits.  The parent
releases concurrent children together, so their passes start at once.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _cli_call(main, argv) -> dict:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return {"code": code, "stdout": buf.getvalue()}


def _guarded(fn, *args) -> dict:
    try:
        return fn(*args)
    except Exception as exc:  # an item that raises counts as failed
        return {"error": repr(exc)}


def prepare(spec: dict):
    """Set-up: import the CLI and build this process's inputs.  Returns
    the pass as a function of no arguments and a post-processing step run
    after the timed region."""
    # Public callables are looked up on the package when the pass calls
    # them, so that a tracer installed after set-up sees every call.
    import koszulity as kz
    import koszulity.cli as cli

    workload = spec["workload"]
    items = workloads.items(workload, spec["seed"])

    if workload == "census6":
        (item,) = items
        argv = ["census", "-n", str(item["n"]), "-p", str(item["p"])]
        return lambda: [_guarded(_cli_call, cli.main, argv)], None

    if workload == "analyze":
        workdir = Path(spec["workdir"])
        argvs = []
        for k, item in enumerate(items):
            path = workdir / f"g{k}.txt"
            lines = [str(item["n"])] + [f"{u} {v}" for u, v in item["edges"]]
            path.write_text("\n".join(lines) + "\n", encoding="ascii")
            argvs.append(["analyze", "-i", str(path), "-p", str(item["p"]), "--brute", "off"])
        return lambda: [_guarded(_cli_call, cli.main, a) for a in argvs], None

    if workload == "brute":
        cases = [(kz.build_graph(it["n"], it["edges"]), it["p"]) for it in items]

        def brute_case(g, p):
            result = kz.universal_koszul_bruteforce(kz.build_algebra(g, p))
            return {
                "verdict": result.verdict,
                "fast": kz.universal_koszul_fast(g),
                "ideals": result.ideals_enumerated,
                "divisors": result.divisors_checked,
            }

        return lambda: [_guarded(brute_case, g, p) for g, p in cases], None

    if workload == "classes7":
        (item,) = items

        def classes():
            graphs = kz.nonisomorphic_graphs(item["n"])
            return {"classes": len(graphs), "graphs": graphs, "keys": [kz.canonical_form(g) for g in graphs]}

        def fingerprint(outs):
            for out in outs:
                graphs = out.pop("graphs", ())
                out["keys"] = [
                    [key, workloads.degree_sequence(g.n, g.edges)]
                    for key, g in zip(out.get("keys", ()), graphs)
                ]
            return outs

        return lambda: [_guarded(classes)], fingerprint

    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    run, post = prepare(spec)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
        run = tracer.span("pass", run)
    ready_ns = time.monotonic_ns()
    print("ready", ready_ns, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    t0 = time.monotonic_ns()
    outputs = run()
    t1 = time.monotonic_ns()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if post is not None:
        outputs = post(outputs)
    result = {
        "start_ns": t0,
        "end_ns": t1,
        "maxrss_kb": maxrss_kb,
        "outputs": outputs,
        "trace": tracer.summary() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
