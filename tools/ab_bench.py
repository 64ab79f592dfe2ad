"""A/B benchmark of two git refs of this repository.

Usage (from the repository root):

    python3 tools/ab_bench.py --base <ref> --change <ref> --workload analyze \
        [--workload brute ...] --pairs 10 --seconds 20 [--seed 1] [--out BENCH_n.json]

Each ref is extracted once with `git archive <ref> | tar -x` into a
temporary directory, so the working tree, the index and HEAD are left
alone.  The workloads run one after another, in the order given.  Pair i
of workload W runs `perfbench/run.py --workload W --seed SEED+i --seconds
S --trace 0` once in each checkout, the base first in pairs 1, 3, 5, ...
and the change first in the others, so that drift does not favour either
side.  The end-to-end metrics and their directions come from the change's
BENCHMARK.json.

Prints, per workload, one line per pair, then per metric the base and change medians,
the base's quartiles, the number of pairs the change won (strictly
better) and a verdict:

- gain: at least ten pairs ran, every run of the change was correct, the
  change won at least nine tenths of the pairs, and its median is better
  than the base's by more than the base's interquartile range;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json, read as a fraction of the base median;
- unresolved: otherwise (a metric that did not move reads unresolved).

With --out, each workload's result is merged into that JSON file under
"workloads", next to the refs, their commits and the machine, so one
command can write a whole BENCH file.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def extract(ref: str, into: Path) -> str:
    """Write the tree of ref into the directory into; return its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {ref} failed")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in tree: its result line and report line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree}:\n{out.stderr}")
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[0])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


MIN_PAIRS = 10  # a gain needs at least this many pairs


def compare(
    base: list[float], change: list[float], better: str, bound: float, correct: bool
) -> dict:
    """One metric's summary: medians, the base's quartiles, the pairs the
    change won and the verdict, by the rule in the module docstring;
    correct says whether every run of the change was correct."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    gap = sign * (base_median - change_median)  # > 0: the change is better
    can_gain = correct and len(base) >= MIN_PAIRS
    if can_gain and 10 * wins >= 9 * len(base) and gap > q3 - q1:
        verdict = "gain"
    elif -gap > bound * abs(base_median):
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {
        "better": better,
        "base": base,
        "change": change,
        "base_median": base_median,
        "base_q1": q1,
        "base_q3": q3,
        "change_median": change_median,
        "change_wins": wins,
        "bound": bound,
        "verdict": verdict,
    }


def bench(trees: dict, workload: str, args, better: dict, bounds: dict) -> tuple[dict, dict]:
    """The pairs of one workload, printed as they run and summarised: its
    entry for --out, and the machine that the first run reported."""
    values = {side: {k: [] for k in better} for side in trees}
    correct = {side: [] for side in trees}
    machine = None
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(trees[side], workload, seed, args.seconds)
            metrics = run["result"]["metrics"]
            correct[side].append(run["result"]["correct"])
            for k in better:
                values[side][k].append(metrics[k]["value"] if k in metrics else None)
            if machine is None:
                prov = run["report"]["provenance"]
                machine = {k: prov.get(k) for k in ("python", "nproc", "cpu_model")}
        print(f"pair {i + 1} seed {seed}: " + "  ".join(
            f"{k} {values['base'][k][-1]} -> {values['change'][k][-1]}" for k in better
        ), flush=True)

    summary = {}
    for k, direction in better.items():
        base, change = values["base"][k], values["change"][k]
        if None in base or None in change:
            summary[k] = {"base": base, "change": change, "verdict": "unresolved"}
            print(f"{k:12s} missing in some runs  verdict unresolved")
            continue
        m = summary[k] = compare(base, change, direction, bounds[k], all(correct["change"]))
        print(f"{k:12s} median {m['base_median']:.4g} -> {m['change_median']:.4g}"
              f"  base IQR {m['base_q1']:.4g}..{m['base_q3']:.4g}"
              f"  change better in {m['change_wins']}/{len(base)} pairs  verdict {m['verdict']}")
    print(f"correct: base {correct['base']}, change {correct['change']}")
    entry = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "order": "base first in odd-numbered pairs, change first in even ones",
        "correct": correct,
        "metrics": summary,
    }
    return entry, machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the parent")
    ap.add_argument("--change", required=True, help="git ref of the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to run; give it more than once for several")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", help="JSON file to merge the results into")
    args = ap.parse_args(argv)

    results = {}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        commits = {side: extract(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for workload in args.workload:
            if len(args.workload) > 1:
                print(f"workload {workload}", flush=True)
            results[workload] = bench(trees, workload, args, better, bounds)

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update({
            "tool": "tools/ab_bench.py",
            "base": {"ref": args.base, "commit": commits["base"]},
            "change": {"ref": args.change, "commit": commits["change"]},
            "machine": next(iter(results.values()))[1],
        })
        for workload, (entry, _) in results.items():
            doc.setdefault("workloads", {})[workload] = entry
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    correct = [ok for entry, _ in results.values() for side in entry["correct"].values() for ok in side]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
