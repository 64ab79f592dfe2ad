"""Outside-in benchmark of the koszulity package.

Usage (from the repository root):

    python3 perfbench/run.py --workload census6 --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh child process (perfbench/child.py) that imports
the package from ./src, because class enumeration is cached per process and
a CLI user pays it on every invocation.  One child runs at a time, except
for the two-worker pass behind wall_w2_s.

--trace 0 measures the end-to-end metrics; --trace 1 runs one untraced
serial pass (and, for census6, one with the pool) and one traced serial
pass, and reports the per-layer metrics.  Every pass's output is checked.  The last line of
stdout is the JSON result; the lines before it give provenance, quartiles
and sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import counts  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 170
NS = 1e9


class Runner:
    """Starts children one pass at a time and keeps every sample."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.items = workloads.items(workload, seed)
        self.deadline = deadline
        self.spawned = 0
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.census_outputs: list[str] = []

    def _env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["KOSZUL_THREADS"] = str(threads)
        env["PYTHONHASHSEED"] = "0"
        return env

    def children(self, specs: list[dict], threads: int = 1, go: bool = True) -> list[dict | None]:
        """Start one child per spec, release them together once all are set
        up, and return their results (None for a child that failed)."""
        procs = []
        try:
            for spec in specs:
                self.spawned += 1
                workdir = WORK / f"{os.getpid()}-{self.spawned}"
                workdir.mkdir(parents=True, exist_ok=True)
                spec = dict(spec, workload=self.workload, seed=self.seed,
                            workdir=str(workdir), result=str(workdir / "result.json"))
                spawn_ns = time.monotonic_ns()
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    cwd=ROOT, env=self._env(threads),
                )
                procs.append((proc, spawn_ns, workdir))
            ready_ns = []
            for proc, _, _ in procs:
                ready, _, _ = select.select([proc.stdout], [], [], self._left())
                line = proc.stdout.readline().split() if ready else []
                if len(line) != 2 or line[0] != b"ready":
                    raise RuntimeError("child did not finish set-up")
                ready_ns.append(int(line[1]))
            for proc, _, _ in procs:
                proc.stdin.write(b"go\n" if go else b"exit\n")
                proc.stdin.close()
            for proc, _, _ in procs:
                proc.wait(timeout=self._left())
            results = []
            for (proc, spawn_ns, workdir), ready in zip(procs, ready_ns):
                path = workdir / "result.json"
                if proc.returncode != 0 or (go and not path.exists()):
                    results.append(None)
                    continue
                result = json.loads(path.read_text()) if go else {}
                result["setup_s"] = (ready - spawn_ns) / NS
                results.append(result)
            return results
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"child error: {exc}", file=sys.stderr)
            return [None] * len(specs)
        finally:
            for proc, _, workdir in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
                shutil.rmtree(workdir, ignore_errors=True)

    def _left(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))

    # -- passes --------------------------------------------------------------

    def probe_setup(self) -> None:
        """A child that sets up and exits: one set-up sample."""
        (res,) = self.children([{}], go=False)
        if res is not None:
            self.setup_s.append(res["setup_s"])

    def serial(self, trace: bool = False) -> dict | None:
        """One serial pass over every item; returns the child's result."""
        (res,) = self.children([{"trace": trace}])
        self._check(res)
        if res is not None and not trace:
            self.setup_s.append(res["setup_s"])
        return res

    def two_workers(self) -> float | None:
        """The pass with two workers, as wall seconds.  census6 uses the
        CLI's own pool (KOSZUL_THREADS=2).  The other workloads have no
        parallel route, so two copies of the serial pass run at once, one
        per worker, as two users would run them."""
        if self.workload == "census6":
            results = self.children([{}], threads=2)
            if results[0] is not None:
                self.setup_s.append(results[0]["setup_s"])
        else:
            results = self.children([{}, {}])
        for res in results:
            self._check(res)
        if any(r is None for r in results):
            return None
        return (max(r["end_ns"] for r in results) - min(r["start_ns"] for r in results)) / NS

    def _check(self, res) -> None:
        """Add the pass's units to attempted and its failed units to failed."""
        check = workloads.CHECKS[self.workload]
        outs = res["outputs"] if res is not None else []
        for k, item in enumerate(self.items):
            n = workloads.units(self.workload, item)
            self.attempted += n
            try:
                self.failed += check(item, outs[k]) if k < len(outs) else n
            except (KeyError, TypeError, ValueError):  # malformed output
                self.failed += n
        if self.workload == "census6" and outs:
            self.census_outputs.append(outs[0].get("stdout"))


def wall(res) -> float | None:
    return None if res is None else (res["end_ns"] - res["start_ns"]) / NS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: serial and two-worker passes in turn, each kind
    at least once, while the next pass, taken to last as long as the
    previous one of its kind, still ends within the time.  Set-up-only
    children after each pass spread the set-up samples over the run."""
    runner.probe_setup()
    runner.setup_s.clear()  # the first child of a run warms the file cache
    end = time.monotonic() + seconds
    samples = {"setup_s": runner.setup_s, "wall_s": [], "wall_w2_s": [], "peak_rss_mb": []}
    took = {"wall_s": 0.0, "wall_w2_s": 0.0}
    for kind in itertools.cycle(took):
        if samples["wall_w2_s"] and time.monotonic() + took[kind] > end:
            break
        t = time.monotonic()
        if kind == "wall_s":
            res = runner.serial()
            if res is not None:
                samples["wall_s"].append(wall(res))
                samples["peak_rss_mb"].append(res["maxrss_kb"] / 1024)
        else:
            w2 = runner.two_workers()
            if w2 is not None:
                samples["wall_w2_s"].append(w2)
        if runner.failed:
            break
        for _ in range(PROBES_PER_PASS):
            runner.probe_setup()
        took[kind] = time.monotonic() - t
    values = {k: quartiles(v)[1] for k, v in samples.items() if v}
    values["pass_frac"] = 1 - runner.failed / runner.attempted
    samples["pass_frac"] = [values["pass_frac"]]
    return values, samples


def expected_counts(workload: str, items: list[dict]) -> dict:
    """Closed-form work counts of one serial pass."""
    if workload == "census6":
        n = items[0]["n"]
        return {
            "strong.pairs": counts.GRAPH_CLASSES[n] * counts.strong_pairs(n),
            "canonical_graph.calls": counts.canonical_graph_calls(n),
        }
    if workload == "analyze":
        return {"strong.pairs": sum(counts.strong_pairs(it["n"]) for it in items)}
    if workload == "brute":
        return {
            "brute.ideals": sum(counts.galois_number(it["n"], it["p"]) for it in items),
            "brute.divisors": sum(counts.brute_divisors(it["n"], it["p"]) for it in items),
        }
    return {"canonical_graph.calls": counts.canonical_graph_calls(items[0]["n"])}


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from one traced serial pass, plus the untraced
    passes they are compared with: a serial one and, for census6, one with
    the pool."""
    base = runner.serial()
    w2 = runner.two_workers() if runner.workload == "census6" else None
    traced = runner.serial(trace=True)
    if base is None or traced is None or (w2 is None and runner.workload == "census6"):
        return {}, {}
    tr = traced["trace"]
    sp, cnt, obs = tr["spans"], tr["counts"], tr["observed"]

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    def self_s(name):
        return sp.get(name, {}).get("self_ns", 0) / NS

    def frac(num, den):
        return num / den if den else 0.0

    traced_s = wall(traced)
    base_s = wall(base)
    classes = sum(
        counts.GRAPH_CLASSES[it["n"]] for it in runner.items if runner.workload in ("census6", "classes7")
    )
    classify_ms = [ns / 1e6 for ns in tr["classify_ns"]]
    brute_total = sp.get("universal_koszul_bruteforce", {}).get("total_ns", 0) / NS
    enumerate_s = tr["census_enumerate_ns"] / NS
    m = {
        "canonical_graph.calls": calls("canonical_graph"),
        "canonical_graph.self_s": self_s("canonical_graph"),
        "canonical_graph.share": frac(sp.get("canonical_graph", {}).get("total_ns", 0) / NS, traced_s),
        "candidates_per_class": frac(calls("canonical_graph"), classes),
        "diagonal_violation.calls": calls("diagonal_violation"),
        "elementary_type_decomposition.self_s": self_s("elementary_type_decomposition"),
        "enumerate_cliques.self_s": self_s("enumerate_cliques"),
        "build_algebra.self_s": self_s("build_algebra"),
        "basis_product.calls": cnt.get("AlgebraContext.basis_product", 0),
        "basis_product.distinct_frac": frac(
            cnt.get("AlgebraContext.basis_product.distinct", 0), cnt.get("AlgebraContext.basis_product", 0)
        ),
        "pbw_check.self_s": self_s("pbw_check"),
        "koszul_numerical_check.self_s": self_s("koszul_numerical_check"),
        "rref.calls": calls("rref"),
        "rref.self_s": self_s("rref"),
        "rref.cells": tr["cells"].get("rref", 0),
        "kernel.calls": calls("kernel"),
        "kernel.self_s": self_s("kernel"),
        "kernel.cells": tr["cells"].get("kernel", 0),
        "RowSpace.reduce.calls": calls("RowSpace.reduce"),
        "RowSpace.reduce.self_s": self_s("RowSpace.reduce"),
        "RowSpace.member.calls": cnt.get("RowSpace.member", 0),
        "enumerate_subspaces.yielded": cnt.get("enumerate_subspaces.yielded", 0),
        "enumerate_coset_reps_mod_scalar.yielded": cnt.get("enumerate_coset_reps_mod_scalar.yielded", 0),
        "colon_ideal.calls": calls("colon_ideal"),
        "colon_ideal.self_s": self_s("colon_ideal"),
        "monomial_ideal_basis.calls": calls("monomial_ideal_basis"),
        "monomial_ideal_basis.distinct_frac": frac(
            cnt.get("monomial_ideal_basis.distinct", 0), calls("monomial_ideal_basis")
        ),
        "ideal_from_degree_one.calls": calls("ideal_from_degree_one"),
        "ideal_from_degree_one.distinct_frac": frac(
            cnt.get("ideal_from_degree_one.distinct", 0), calls("ideal_from_degree_one")
        ),
        "ideal_from_degree_one.self_s": self_s("ideal_from_degree_one"),
        "is_one_generated.self_s": self_s("is_one_generated"),
        "strong_koszul_check.self_s": self_s("strong_koszul_check"),
        "strong_koszul_check.share": frac(sp.get("strong_koszul_check", {}).get("total_ns", 0) / NS, traced_s),
        "strong.pairs": obs.get("strong.pairs", 0),
        "universal_koszul_bruteforce.self_s": self_s("universal_koszul_bruteforce"),
        "brute.ideals": obs.get("brute.ideals", 0),
        "brute.divisors": obs.get("brute.divisors", 0),
        "brute.divisors_per_s": frac(obs.get("brute.divisors", 0), brute_total),
        "non_universal_witness.self_s": self_s("non_universal_witness"),
        "classify.p50_ms": percentile(classify_ms, 50),
        "classify.p90_ms": percentile(classify_ms, 90),
        "census.enumerate_s": enumerate_s,
        "census.serial_frac": frac(enumerate_s, base_s),
        "census.w2_speedup": frac(base_s, w2) if w2 else 0.0,
    }
    for layer, entries in spans.TRACED.items():
        m[f"layer.{layer}.self_s"] = sum(self_s(name) for name in entries)
    m["trace.overhead"] = frac(traced_s, base_s)
    want = expected_counts(runner.workload, runner.items)
    mismatches = {k: (m[k], v) for k, v in want.items() if m[k] != v}
    return m, {"expected_counts": want, "count_mismatches": mismatches,
               "traced_wall_s": traced_s, "untraced_wall_s": base_s, "w2_wall_s": w2}


def provenance(seed: int) -> dict:
    def git_commit():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_w2_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".yielded", ".cells", ".pairs", ".ideals", ".divisors")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "koszulity" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    prov = provenance(args.seed)
    runner = Runner(args.workload, args.seed, deadline=t_start + CHILD_TIMEOUT_S)
    if args.trace:
        values, detail = layer_metrics(runner)
        samples = {}
        units = {k: layer_unit(k) for k in values}
    else:
        values, samples = measure(runner, args.seconds)
        detail = {}
        units = END_TO_END_UNITS

    # census6: the serial and two-worker outputs of a run are byte-identical
    identical = len(set(runner.census_outputs)) <= 1
    correct = (
        runner.attempted > 0
        and runner.failed == 0
        and identical
        and not detail.get("count_mismatches")
        and set(values) >= set(units)
    )
    def spread(k):
        q1, med, q3 = quartiles(samples[k]) if samples.get(k) else (None, values.get(k), None)
        return {"median": med, "q1": q1, "q3": q3, "unit": units[k],
                "n": len(samples.get(k, [])) or 1, "samples": samples.get(k, [])}

    report = {
        "workload": args.workload,
        "provenance": prov,
        "census_outputs_identical": identical,
        "metrics": {k: spread(k) for k in units},
        **detail,
        "elapsed_s": time.monotonic() - t_start,
    }
    print(json.dumps(report, sort_keys=True))
    for k in units:
        print(f"{k:44s} {values.get(k)!s:>24} {units[k]}")
    result = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
