"""Write the golden outputs the benchmark checks against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs the fixed-input passes exactly as the benchmark's children do and
stores, under perfbench/golden/: the analyze JSON of K7, C8 and P10 with
timing_ms removed, the census -n 6 rows without their canonical_key, and
the multiset of degree sequences of the classes on 7 vertices.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload: str, workdir: str):
    spec = {"workload": workload, "seed": 0, "workdir": workdir}
    run, post = child.prepare(spec)
    outputs = run()
    return post(outputs) if post else outputs


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as workdir:
        for item, out in zip(workloads.items("analyze", 0), run_pass("analyze", workdir)):
            if item.get("golden"):
                assert out["code"] == 0, out
                (workloads.GOLDEN / item["golden"]).write_text(
                    workloads.strip_timing(out["stdout"]), encoding="ascii"
                )
        (census,) = run_pass("census6", workdir)
        assert census["code"] == 0, census
        rows = workloads.census_rows_without_key(census["stdout"])
        (workloads.GOLDEN / "census6_rows.txt").write_text("\n".join(rows) + "\n", encoding="ascii")
        (classes,) = run_pass("classes7", workdir)
        seqs = Counter(seq for _, seq in classes["keys"])
        (workloads.GOLDEN / "classes7_degrees.txt").write_text(
            "".join(f"{seq},{n}\n" for seq, n in sorted(seqs.items())), encoding="ascii"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
