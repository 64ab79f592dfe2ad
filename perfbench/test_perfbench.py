"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools

import counts
import pytest
import spans
import workloads


@pytest.mark.parametrize(
    "d, p, ideals, divisors",
    [(6, 2, 2825, 23562), (5, 3, 2664, 25652), (4, 5, 1120, 9984), (3, 7, 116, 570)],
)
def test_brute_closed_forms(d, p, ideals, divisors):
    assert counts.galois_number(d, p) == ideals
    assert counts.brute_divisors(d, p) == divisors


def test_galois_number_counts_subspaces_by_brute_force():
    # every subspace of F_2^4 as the set of its vectors
    vectors = list(itertools.product(range(2), repeat=4))
    spaces = set()
    for gens in itertools.combinations_with_replacement(vectors, 4):
        span = {tuple(0 for _ in range(4))}
        for g in gens:
            span |= {tuple((a + b) % 2 for a, b in zip(g, s)) for s in span}
        spaces.add(frozenset(span))
    assert len(spaces) == counts.galois_number(4, 2) == 67


def test_strong_pairs_matches_the_loop_it_predicts():
    for d in range(7):
        pairs = sum(d - bin(mask).count("1") for mask in range(2**d))
        assert counts.strong_pairs(d) == pairs
    assert counts.strong_pairs(7) == 448


def test_canonical_graph_calls():
    assert counts.canonical_graph_calls(7) == 12334
    assert counts.canonical_graph_calls(6) == 1306 + 156


def test_self_times_on_a_synthetic_tree():
    # 0: root [0, 100]
    #   1: [10, 40]        2: [15, 25] inside 1
    #   3: [50, 70]        4: [60, 110] overlaps 3 and runs past the root
    parents = [spans.NO_PARENT, 0, 1, 0, 0]
    starts = [0, 10, 15, 50, 60]
    ends = [100, 40, 25, 70, 110]
    selfs = spans.self_times(parents, starts, ends)
    # root covered by [10, 40] and [50, 100] (clipped): 30 + 50
    assert selfs == [20, 20, 10, 20, 50]


def test_tracer_records_nesting_and_self_time():
    tracer = spans.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.span("leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    assert tracer.span("outer", outer)() == 2
    assert list(tracer.parents) == [spans.NO_PARENT, 0, 0]
    summary = tracer.summary()["spans"]
    assert summary["leaf"]["calls"] == 2
    outer_rec = summary["outer"]
    assert outer_rec["self_ns"] == outer_rec["total_ns"] - summary["leaf"]["total_ns"]


def _census_text(keys, rows):
    header = ",".join(["canonical_key", "n", "edges", "dims", "diagonal", "strong_pass",
                       "universal_fast", "universal_brute", "pbw", "dual_nonneg"])
    lines = [header] + [f"{k},{r}" for k, r in zip(keys, rows)]
    return "\n".join(lines + ["# classes=156 theorem_violations=0"]) + "\n"


def test_census_comparator_ignores_canonical_key_and_order():
    golden = workloads.golden_text("census6_rows.txt").splitlines()
    rows = golden[1:-1]
    item = {"n": 6, "p": 2}
    same = _census_text([f"K{i}" for i in range(len(rows))], rows[::-1])
    assert workloads.check_census(item, {"code": 0, "stdout": same}) == 0
    changed = list(rows)
    changed[3] = changed[3].replace("true", "false", 1)
    bad = _census_text(["x"] * len(rows), changed)
    assert workloads.check_census(item, {"code": 0, "stdout": bad}) == 1
    assert workloads.check_census(item, {"code": 2, "stdout": same}) == 156


def test_inputs_repeat_per_seed_and_brute_graphs_are_elementary():
    for seed in range(5):
        brute = workloads.items("brute", seed)
        assert brute == workloads.items("brute", seed)
        for it in brute:
            assert workloads.has_diagonal_property(it["n"], it["edges"])
        for it in workloads.items("analyze", seed)[3:]:
            assert tuple(workloads.clique_counts(9, it["edges"])) == workloads.G9M18_PROFILE
    assert workloads.items("analyze", 1) != workloads.items("analyze", 2)
    assert workloads.items("brute", 1) != workloads.items("brute", 2)


def test_independent_graph_facts():
    square = [[0, 1], [1, 2], [2, 3], [0, 3]]
    assert workloads.clique_counts(4, square) == [1, 4, 4]
    assert workloads.clique_counts(5, workloads._complete(5)) == [1, 5, 10, 10, 5, 1]
    assert workloads.induced_pattern(square, (0, 1, 2, 3)) == "C4"
    assert not workloads.has_diagonal_property(4, [[0, 1], [1, 2], [2, 3]])
    assert workloads.dual_series_nonneg([1, 4, 4])
    assert workloads.strip_timing('{\n  "p": 2,\n  "timing_ms": 17,\n  "x": 1\n}\n') == '{\n  "p": 2,\n  "x": 1\n}\n'
