"""tools/ab_bench.py runs every --workload given on trees extracted once
and merges all of them into --out; a single --workload works as before.
A gain needs at least ten pairs and a correct change in every run."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake(monkeypatch, module, change_correct=True):
    """Replace git extraction and perfbench runs, the change always faster;
    return the call log."""
    calls = []

    def extract(ref, into):
        calls.append(("extract", ref))
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
        ]}))
        return f"commit-{ref}"

    def run_once(tree, workload, seed, seconds):
        calls.append(("run", tree.name, workload, seed))
        value = 1.0 if tree.name == "base" else 0.5
        correct = tree.name == "base" or change_correct
        return {
            "result": {"correct": correct, "metrics": {"wall_s": {"value": value + seed / 100}}},
            "report": {"provenance": {"python": "3", "nproc": 2, "cpu_model": "cpu"}},
        }

    monkeypatch.setattr(module, "extract", extract)
    monkeypatch.setattr(module, "run_once", run_once)
    return calls


def test_several_workloads_share_one_extraction_and_one_out_file(monkeypatch, tmp_path):
    module = _load()
    calls = _fake(monkeypatch, module)
    out = tmp_path / "bench.json"
    argv = ["--base", "a", "--change", "b", "--workload", "brute", "--workload", "analyze",
            "--pairs", "2", "--seed", "7", "--out", str(out)]
    assert module.main(argv) == 0
    assert [c for c in calls if c[0] == "extract"] == [("extract", "a"), ("extract", "b")]
    runs = [c[1:] for c in calls if c[0] == "run"]
    assert runs == [
        ("base", "brute", 7), ("change", "brute", 7), ("change", "brute", 8), ("base", "brute", 8),
        ("base", "analyze", 7), ("change", "analyze", 7),
        ("change", "analyze", 8), ("base", "analyze", 8),
    ]
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["analyze", "brute"]
    assert doc["change"] == {"ref": "b", "commit": "commit-b"}
    # two pairs, both won, are too few for a gain
    assert doc["workloads"]["brute"]["metrics"]["wall_s"]["verdict"] == "unresolved"


def test_one_workload_merges_into_an_existing_file(monkeypatch, tmp_path):
    module = _load()
    _fake(monkeypatch, module)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"census6": {"pairs": 3}}, "note": "kept"}))
    argv = ["--base", "a", "--change", "b", "--workload", "brute", "--pairs", "1",
            "--out", str(out)]
    assert module.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["note"] == "kept"
    assert sorted(doc["workloads"]) == ["brute", "census6"]
    assert doc["workloads"]["brute"]["seeds"] == [1]


def test_ten_won_pairs_are_a_gain_unless_a_change_run_is_incorrect(monkeypatch, tmp_path):
    module = _load()
    argv = ["--base", "a", "--change", "b", "--workload", "brute", "--out"]
    _fake(monkeypatch, module)
    out = tmp_path / "default.json"
    assert module.main(argv + [str(out)]) == 0  # ten pairs by default
    entry = json.loads(out.read_text())["workloads"]["brute"]
    assert entry["pairs"] == 10 and entry["metrics"]["wall_s"]["change_wins"] == 10
    assert entry["metrics"]["wall_s"]["verdict"] == "gain"
    _fake(monkeypatch, module, change_correct=False)
    out = tmp_path / "incorrect.json"
    assert module.main(argv + [str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["brute"]
    assert entry["metrics"]["wall_s"]["change_wins"] == 10
    assert entry["metrics"]["wall_s"]["verdict"] == "unresolved"
