import itertools
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import Mock

import pytest

from conftest import (
    complete,
    elementary_classes,
    graph_count,
    graph_of_code,
    path4,
    random_graph,
    square4,
)
from koszulity.algebra import build_algebra, koszul_numerical_check
from koszulity import cli, graphs, koszul
from koszulity.cli import main
from koszulity.errors import ResourceLimitError
from koszulity.graphs import (
    build_graph,
    canonical_form,
    diagonal_violation,
    nonisomorphic_graphs,
    to_graph6,
)

SQUARE = "4\n0 1\n1 2\n2 3\n3 0\n"
GOLDEN = "4\n0 1\n0 2\n0 3\n1 2\n2 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, tmp_path, text, *extra):
    path = write(tmp_path, "g.txt", text)
    code, out, err = run(capsys, "analyze", "-i", path, *extra)
    assert code == 0, err
    return json.loads(out)


def test_analyze_square(capsys, tmp_path):
    doc = analyze_json(capsys, tmp_path, SQUARE)
    assert doc["dims"] == [1, 4, 4]
    assert doc["p"] == 2
    assert doc["diagonal_property"] is False
    assert doc["strongly_koszul"] == {"pass": True, "pairs_checked": 32}
    uk = doc["universally_koszul"]
    assert uk["fast"] is False and uk["brute"] is False
    assert uk["witness"]["b"] == "a0+a1"
    assert uk["witness"]["culprit"] == "a2*a3"
    assert uk["witness"]["certificate"] == {
        "b_annihilates_culprit": True,
        "culprit_outside_degree_one_part": True,
    }
    assert doc["decomposition"]["kind"] == "violation"
    assert doc["decomposition"]["pattern"] == "C4"
    assert doc["pbw"] is True
    assert doc["dual_series_nonneg"] is True
    assert doc["graph"]["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_analyze_single_vertex(capsys, tmp_path):
    doc = analyze_json(capsys, tmp_path, "1\n")
    assert doc["dims"] == [1, 1]
    assert doc["decomposition"] == {"kind": "vertex", "vertex": 0}
    assert "witness" not in doc["universally_koszul"]


def test_analyze_golden_graph(capsys, tmp_path):
    doc = analyze_json(capsys, tmp_path, GOLDEN)
    assert doc["dims"] == [1, 4, 5, 2]
    assert doc["universally_koszul"]["brute"] is True
    assert doc["decomposition"]["kind"] == "cone"
    assert doc["decomposition"]["apex"] == 0


def test_analyze_is_deterministic(capsys, tmp_path):
    first = analyze_json(capsys, tmp_path, SQUARE)
    second = analyze_json(capsys, tmp_path, SQUARE)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_analyze_graph6_input(capsys, tmp_path):
    path = write(tmp_path, "g.g6", "C~\n")
    code, out, _ = run(capsys, "analyze", "-i", path, "--format", "graph6")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 4, 6, 4, 1]


def test_analyze_output_file(capsys, tmp_path):
    src = write(tmp_path, "g.txt", SQUARE)
    dst = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "-i", src, "-o", str(dst))
    assert code == 0 and out == ""
    assert json.loads(dst.read_text())["dims"] == [1, 4, 4]


def test_unwritable_output_exits_2(capsys, tmp_path):
    src = write(tmp_path, "g.txt", SQUARE)
    dst = str(tmp_path / "missing" / "out.txt")
    for argv in (["analyze", "-i", src], ["census", "-n", "3"]):
        code, out, err = run(capsys, *argv, "-o", dst)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dst}: ")


def test_analyze_bad_inputs(capsys, tmp_path):
    loops = write(tmp_path, "loops.txt", "3\n1 1\n")
    code, _, err = run(capsys, "analyze", "-i", loops)
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "analyze", "-i", str(tmp_path / "absent.txt"))
    assert code == 2
    square = write(tmp_path, "sq.txt", SQUARE)
    code, _, err = run(capsys, "analyze", "-i", square, "-p", "9")
    assert code == 2 and "prime" in err


def test_analyze_resource_guard(capsys, tmp_path):
    path = write(tmp_path, "empty9.txt", "9\n")
    code, _, err = run(capsys, "analyze", "-i", path, "-p", "5", "--brute", "on")
    assert code == 3 and "resource limit" in err


def test_analyze_strong_check_budget(capsys, tmp_path):
    # 24 * 2**23 strong pairs; without the budget this run never ends
    path24 = "24\n" + "".join(f"{i} {i + 1}\n" for i in range(23))
    code, out, err = run(capsys, "analyze", "-i", write(tmp_path, "p24.txt", path24))
    assert code == 3 and out == ""
    assert "resource limit" in err and "201326592" in err


def test_analyze_brute_budget(capsys, tmp_path):
    # predicted divisor counts 3,998,655,357,260,293 / 7,449,060 / 61,198,592
    for n, p, count in ((13, 2, "3998655357260293"), (8, 2, "7449060"), (4, 31, "61198592")):
        path = write(tmp_path, f"empty{n}.txt", f"{n}\n")
        code, out, err = run(capsys, "analyze", "-i", path, "-p", str(p), "--brute", "on")
        assert code == 3 and out == ""
        assert "resource limit" in err and count in err


def test_analyze_dual_order_budget(capsys, tmp_path):
    path = write(tmp_path, "empty3.txt", "3\n")
    code, out, err = run(capsys, "analyze", "-i", path, "--dual-order", "1000000000")
    assert code == 3 and out == ""
    assert "resource limit" in err and "4096" in err
    code, out, err = run(capsys, "analyze", "-i", path, "--dual-order", "4096")
    assert code == 0 and json.loads(out)["dual_series_nonneg"] is True
    code, out, err = run(capsys, "census", "-n", "2", "--dual-order", "4097")
    assert code == 3 and "resource limit" in err


K13 = "13\n" + "".join(f"{u} {v}\n" for u, v in itertools.combinations(range(13), 2))


def test_analyze_default_dual_order_follows_the_top_degree(capsys, tmp_path):
    # clique number 13 is above the old fixed default order of 12
    doc = analyze_json(capsys, tmp_path, K13, "--brute", "off")
    assert len(doc["dims"]) == 14 and doc["dual_series_nonneg"] is True


def test_explicit_dual_order_below_the_top_degree_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "k13.txt", K13)
    code, out, err = run(capsys, "analyze", "-i", path, "--dual-order", "5")
    assert code == 2 and out == ""
    assert "order 5 is below the top degree 13" in err


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("name,n,p,edges", [
    ("analyze_K7_p3.txt", 7, 3, list(itertools.combinations(range(7), 2))),
    ("analyze_C8_p5.txt", 8, 5, [sorted((i, (i + 1) % 8)) for i in range(8)]),
    ("analyze_P10_p7.txt", 10, 7, [(i, i + 1) for i in range(9)]),
])
def test_analyze_matches_odd_prime_golden(capsys, tmp_path, name, n, p, edges):
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path = write(tmp_path, "g.txt", text)
    code, out, err = run(capsys, "analyze", "-i", path, "-p", str(p), "--brute", "off")
    assert code == 0, err
    out, removed = re.subn(r'^  "timing_ms": \d+,\n', "", out, flags=re.MULTILINE)
    assert removed == 1
    assert out == (GOLDEN_DIR / name).read_text(encoding="ascii")


def test_analyze_json_is_self_consistent(capsys, tmp_path):
    texts = [SQUARE, GOLDEN, "4\n0 1\n1 2\n2 3\n", "3\n0 1\n1 2\n0 2\n"]
    for text in texts:
        doc = analyze_json(capsys, tmp_path, text)
        assert doc["diagonal_property"] is doc["universally_koszul"]["fast"]
        assert ("witness" in doc["universally_koszul"]) is (
            doc["universally_koszul"]["fast"] is False
        )
        assert doc["dual_series_nonneg"] is koszul_numerical_check(
            tuple(doc["dims"])
        )
        g = build_graph(doc["graph"]["n"], [tuple(e) for e in doc["graph"]["edges"]])
        assert list(build_algebra(g, doc["p"]).dims) == doc["dims"]


def census_lines(capsys, *argv):
    code, out, err = run(capsys, "census", *argv)
    assert code == 0, err
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("canonical_key,")
    assert lines[-1].startswith("# classes=")
    return lines


def test_tree_json_converts_a_cone_chain_5000_deep():
    # a cone over a cone ... over the union of two vertices, 5,000 cones
    # deep; such a tree cannot be compared or printed without recursion,
    # so the test walks it and the result with loops
    depth = 5000
    node = graphs.UnionNode((graphs.LeafNode(depth), graphs.LeafNode(depth + 1)))
    for apex in range(depth - 1, -1, -1):
        node = graphs.ConeNode(apex, node)
    doc = cli._tree_json(node)
    for apex in range(depth):
        assert list(doc) == ["kind", "apex", "base"]
        assert (doc["kind"], doc["apex"]) == ("cone", apex)
        doc = doc["base"]
    assert doc == {"kind": "union", "children": [
        {"kind": "vertex", "vertex": depth}, {"kind": "vertex", "vertex": depth + 1},
    ]}


def test_census_three_vertices(capsys):
    lines = census_lines(capsys, "-n", "3")
    assert len(lines) == 2 + 4  # header, four classes, summary
    assert lines[-1] == "# classes=4 theorem_violations=0"


def test_census_single_vertex(capsys):
    lines = census_lines(capsys, "-n", "1")
    row = lines[1].split(",")
    assert row[0] == "@" and row[1] == "1" and row[2] == "0"
    assert row[3] == "1 1"
    assert row[4:] == ["true"] * 6


def test_census_rejects_bad_n(capsys):
    for n in ("0", "9"):
        code, _, err = run(capsys, "census", "-n", n)
        assert code == 2 and "error:" in err


def test_census_deterministic(capsys):
    a = census_lines(capsys, "-n", "4")
    b = census_lines(capsys, "-n", "4")
    assert a == b


def test_census_from_file_dedups_classes(capsys, tmp_path):
    relabeled_square = build_graph(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    path = write(
        tmp_path,
        "graphs.g6",
        "\n".join([to_graph6(square4()), to_graph6(relabeled_square), to_graph6(path4())])
        + "\n",
    )
    lines = census_lines(capsys, "--in", path)
    assert len(lines) == 2 + 2
    assert lines[-1] == "# classes=2 theorem_violations=0"


def test_census_from_file_respects_canonical_guard(capsys, tmp_path):
    path = write(tmp_path, "big.g6", to_graph6(build_graph(9, [])) + "\n")
    code, _, err = run(capsys, "census", "--in", path)
    assert code == 3 and "resource limit" in err


def test_census_no_violations_through_five_vertices(capsys):
    for n in (4, 5):
        lines = census_lines(capsys, "-n", str(n))
        expected = len(nonisomorphic_graphs(n))
        assert lines[-1] == f"# classes={expected} theorem_violations=0"


def test_census_matches_the_class_and_grammar_oracles(capsys):
    # Burnside's count of the classes, and the grammar's elementary classes
    # as the rows with universal_fast=true, on every n the tests can run
    for n in range(1, 8):
        lines = census_lines(capsys, "-n", str(n))
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == graph_count(n)
        assert lines[-1] == f"# classes={graph_count(n)} theorem_violations=0"
        col = lines[0].split(",").index("universal_fast")
        fast = sorted(row[0] for row in rows if row[col] == "true")
        assert fast == sorted(canonical_form(graph_of_code(c)) for c in elementary_classes(n))
    # the largest census size, pinned through the oracle: a census -n 8 run
    # takes seconds
    assert cli.CENSUS_MAX_VERTICES == 8 and graph_count(8) == 12346


def test_census_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    # fewer classes than workers (n = 1, 2), shares of one or two classes
    # (n = 3), every class on 6 and on 7 vertices, another prime, and the
    # --in route with duplicates and mixed sizes
    graphs = [complete(4), square4(), path4(), build_graph(5, [(0, 1), (2, 3)])]
    graphs.append(build_graph(4, [(1, 2), (2, 0), (0, 3), (3, 1)]))  # square4 again
    path = write(tmp_path, "in.g6", "".join(to_graph6(g) + "\n" for g in graphs))
    serial = {}
    for argv in (
        ("-n", "1"), ("-n", "2"), ("-n", "3"), ("-n", "6"), ("-n", "7"),
        ("-n", "5", "-p", "3"), ("--in", path),
    ):
        monkeypatch.setenv("KOSZUL_THREADS", "1")
        serial[argv] = census_lines(capsys, *argv)
        for threads in ("2", "3"):
            monkeypatch.setenv("KOSZUL_THREADS", threads)
            assert census_lines(capsys, *argv) == serial[argv], (argv, threads)
    # where os.fork does not exist, census runs serially with the same bytes
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("KOSZUL_THREADS", "2")
    assert census_lines(capsys, "-n", "5", "-p", "3") == serial[("-n", "5", "-p", "3")]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_workers_raise_the_serial_error_and_leave_no_child(capsys, monkeypatch):
    # every row refuses brute at p = 97; the serial run reports the first
    argv = ("census", "-n", "5", "-p", "97", "--brute-max-d", "5")
    serial = run(capsys, *argv)
    assert serial[0] == 3 and serial[1] == "" and serial[2].startswith("resource limit:")
    monkeypatch.setenv("KOSZUL_THREADS", "2")
    assert run(capsys, *argv) == serial
    _no_child_left()
    # items 1 and 2 fail in different workers; item 1's error is the one
    keys = [to_graph6(g) for g in nonisomorphic_graphs(4)]
    census_row = cli._census_row

    def failing(key, *rest):
        item = keys.index(key)
        if item in (1, 2):
            raise ResourceLimitError(f"item {item} refused")
        return census_row(key, *rest)

    monkeypatch.setattr(cli, "_census_row", failing)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("KOSZUL_THREADS", threads)
        assert run(capsys, "census", "-n", "4") == (3, "", "resource limit: item 1 refused\n")
    _no_child_left()


def test_census_forks_no_more_children_than_items_beyond_the_first(capsys, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setenv("KOSZUL_THREADS", "8")
    census_lines(capsys, "-n", "1")  # one class on 1 vertex, one row
    assert forks == []
    census_lines(capsys, "-n", "2")  # two edge counts, so two shares
    assert forks == [1]
    census_lines(capsys, "-n", "6")  # 16 edge counts: eight shares, seven children
    assert len(forks) == 1 + 7
    _no_child_left()


def test_census_worker_killed_by_a_signal_exits_3(capsys, monkeypatch):
    # the one child sends itself SIGKILL, as the OOM killer would
    share = cli.class_share

    def killed(n, w, shares):
        if w:
            os.kill(os.getpid(), signal.SIGKILL)
        return share(n, w, shares)

    monkeypatch.setattr(cli, "class_share", killed)
    monkeypatch.setenv("KOSZUL_THREADS", "2")
    assert run(capsys, "census", "-n", "2") == (
        3, "", "resource limit: census worker 1 was killed by SIGKILL\n"
    )
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to count descriptors")
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_census_worker_that_cannot_start_exits_3(capsys, monkeypatch, call):
    # the second os.pipe or os.fork fails, so at most one real child starts
    real = getattr(os, call)
    calls = []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, call, second_fails)
    monkeypatch.setenv("KOSZUL_THREADS", "3")
    fds = len(os.listdir("/dev/fd"))
    code, out, err = run(capsys, "census", "-n", "4")
    assert (code, out) == (3, "") and len(calls) == 2
    assert err.startswith("resource limit: census worker 2 could not start:"), err
    _no_child_left()
    assert len(os.listdir("/dev/fd")) == fds


def test_census_six_matches_golden_rows(capsys):
    # canonical keys stripped and rows sorted, as the benchmark compares them
    lines = census_lines(capsys, "-n", "6")
    rows = [lines[0].split(",", 1)[1]] + sorted(
        line.split(",", 1)[1] for line in lines[1:-1]
    ) + [lines[-1]]
    assert rows == (GOLDEN_DIR / "census6_rows.txt").read_text(encoding="ascii").splitlines()


def test_census_bytes_do_not_depend_on_the_canonical_memo(capsys, monkeypatch):
    # the memo only saves searches: each worker inherits it from the census
    # process, where it starts empty, or holding every candidate key of
    # the classes on 6 vertices, and fills it with its own share
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("KOSZUL_THREADS", threads)
        for memo in ("cold", "warm"):
            monkeypatch.setattr(graphs, "_canonical_memo", {})
            nonisomorphic_graphs.cache_clear()
            if memo == "warm":
                nonisomorphic_graphs(6)
                nonisomorphic_graphs.cache_clear()
                assert len(graphs._canonical_memo) > 156
            code, out, err = run(capsys, "census", "-n", "6")
            assert code == 0, err
            outputs[threads, memo] = out
            _no_child_left()
    nonisomorphic_graphs.cache_clear()
    assert len(set(outputs.values())) == 1, sorted(outputs)


def test_census_rejects_a_bad_prime_before_enumerating(capsys, monkeypatch):
    def no_classes(n):
        raise AssertionError("classes enumerated before the prime check")

    monkeypatch.setattr(cli, "nonisomorphic_graphs", no_classes)
    code, out, err = run(capsys, "census", "-n", "7", "-p", "9")
    assert code == 2 and out == ""
    assert "9 is not prime" in err


def test_census_rejects_bad_thread_count(capsys, monkeypatch):
    for raw in ("zero", "0", "-3"):
        monkeypatch.setenv("KOSZUL_THREADS", raw)
        code, _, err = run(capsys, "census", "-n", "3")
        assert code == 2 and "KOSZUL_THREADS" in err


def test_witness_square(capsys, tmp_path):
    path = write(tmp_path, "sq.txt", SQUARE)
    code, out, _ = run(capsys, "witness", "-i", path)
    assert code == 0
    assert out.splitlines() == [
        "pattern: C4",
        "v1=1 v2=2 v3=3 v4=0",
        "b = a0+a1",
        "culprit = a2*a3",
        "culprit in Ann(b) degree 2: true",
        "culprit outside (Ann(b)_1)*A_1: true",
    ]


def test_witness_path_mod_three(capsys, tmp_path):
    path = write(tmp_path, "p4.txt", "4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "witness", "-i", path, "-p", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern: P4"
    assert lines[2] == "b = a0+a3"
    assert lines[3] == "culprit = a1*a2"


def test_witness_absent(capsys, tmp_path):
    path = write(tmp_path, "k5.txt", to_edgelist(complete(5)))
    code, out, err = run(capsys, "witness", "-i", path)
    assert code == 4 and out == ""
    assert "no witness exists" in err


def test_witness_rejects_a_bad_prime_before_the_diagonal_test(capsys, tmp_path):
    # P3 has the diagonal property, so a prime checked after the diagonal
    # test would exit 4 there; C4 has a violation
    for name, text in (("p3.txt", "3\n0 1\n1 2\n"), ("c4.txt", SQUARE)):
        path = write(tmp_path, name, text)
        for p, message in (("9", "9 is not prime"), ("1", "got 1")):
            code, out, err = run(capsys, "witness", "-i", path, "-p", p)
            assert code == 2 and out == ""
            assert message in err


def test_witness_scans_for_the_violation_once(capsys, tmp_path, monkeypatch):
    counting = Mock(wraps=diagonal_violation)
    for module in (cli, koszul):
        monkeypatch.setattr(module, "diagonal_violation", counting)
    code, _, _ = run(capsys, "witness", "-i", write(tmp_path, "sq.txt", SQUARE))
    assert code == 0 and counting.call_count == 1


def test_witness_on_a_2000_vertex_star_exits_4_within_a_second(capsys, tmp_path):
    # the scan over every 4-set ran past 30 s here
    text = "2000\n" + "".join(f"0 {v}\n" for v in range(1, 2000))
    path = write(tmp_path, "star.txt", text)
    start = time.perf_counter()
    code, out, err = run(capsys, "witness", "-i", path)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.startswith("no witness exists")


def test_witness_refuses_more_than_2_20_cliques(capsys, tmp_path):
    # K21 plus a disjoint P4 has a violation and 2**21 + 8 cliques; K20 plus
    # P4 ended in a MemoryError after listing its cliques
    edges = list(itertools.combinations(range(21), 2)) + [(21, 22), (22, 23), (23, 24)]
    path = write(tmp_path, "k21p4.txt", "25\n" + "".join(f"{u} {v}\n" for u, v in edges))
    start = time.perf_counter()
    code, out, err = run(capsys, "witness", "-i", path)
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "more than 2**20 cliques on 25 vertices" in err
    with pytest.raises(ResourceLimitError, match="2\\*\\*20 cliques"):
        build_algebra(complete(21), 2)


def to_edgelist(g):
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


def write_non_ascii(tmp_path, text):
    path = tmp_path / "accent.txt"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_analyze_non_ascii_input(capsys, tmp_path):
    path = write_non_ascii(tmp_path, "4\n0 1 # café\n")
    code, out, err = run(capsys, "analyze", "-i", path)
    assert code == 2 and out == ""
    assert "not ASCII" in err and "0xc3" in err


def test_witness_non_ascii_input(capsys, tmp_path):
    path = write_non_ascii(tmp_path, SQUARE + "é\n")
    code, out, err = run(capsys, "witness", "-i", path)
    assert code == 2 and out == ""
    assert "not ASCII" in err


def test_census_non_ascii_input(capsys, tmp_path):
    path = write_non_ascii(tmp_path, to_graph6(square4()) + "\né\n")
    code, out, err = run(capsys, "census", "--in", path)
    assert code == 2 and out == ""
    assert "not ASCII" in err


def run_cli_process(*argv, timeout=20, address_space=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "koszulity.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=None if address_space is None else limit,
    )


def test_analyze_refuses_a_huge_graph_before_any_stage(tmp_path):
    # 200,000 isolated vertices: splitting them into components alone took
    # over 100 s when the strong budget was checked last
    path = write(tmp_path, "empty200000.txt", "200000\n")
    out = run_cli_process("analyze", "-i", path, "--brute", "off", timeout=5)
    assert out.returncode == 3 and out.stdout == ""
    assert "more than 2**200016 (prefix set, divisor) pairs" in out.stderr


def test_refusals_with_huge_counts_exit_3(capsys, tmp_path):
    for n, brute in (("300", "on"), ("20000", "off")):
        path = write(tmp_path, f"empty{n}.txt", f"{n}\n")
        code, out, err = run(capsys, "analyze", "-i", path, "--brute", brute)
        assert code == 3 and out == ""
        assert "strong Koszulity check refused: more than 2**" in err


def test_analyze_refuses_a_trillion_vertices_at_once(capsys, tmp_path):
    # the strong budget used to build the pair count, 10**12 * 2**(10**12 - 1),
    # before comparing it: a MemoryError traceback
    path = write(tmp_path, "empty1e12.txt", "1000000000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "-i", path)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "more than 2**1000000000038 (prefix set, divisor) pairs" in err


def test_forty_vertex_graph_lists_its_cliques_without_testing_subsets(tmp_path):
    # K8 plus a path on 7..39: 60 edges and 310 cliques, but C(40, k) subsets
    # of each size k <= 9, which testing every subset never gets through
    edges = list(itertools.combinations(range(8), 2)) + [(i, i + 1) for i in range(7, 39)]
    path = write(tmp_path, "g40.txt", "40\n" + "".join(f"{u} {v}\n" for u, v in edges))
    out = run_cli_process("analyze", "-i", path, "--brute", "off")
    assert out.returncode == 3 and out.stdout == ""
    assert "21990232555520" in out.stderr
    out = run_cli_process("witness", "-i", path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("pattern: P4\nv1=0 v2=7 v3=8 v4=9\n")


def test_witness_at_odd_p_reads_only_the_low_degrees(tmp_path):
    # K16 plus a disjoint P4: 20 vertices, 65,544 cliques up to degree 16.
    # At p = 3 the certificate once built Ann(b) in every degree in dense
    # rows and exited 1 after about a minute under a 2 GB address-space
    # limit; it reads three rows of the generator maps in degrees 1 and 2,
    # and building the algebra takes about a second
    edges = list(itertools.combinations(range(16), 2)) + [(16, 17), (17, 18), (18, 19)]
    path = write(tmp_path, "k16p4.txt", "20\n" + "".join(f"{u} {v}\n" for u, v in edges))
    lines = {}
    for p in ("2", "3"):
        out = run_cli_process("witness", "-i", path, "-p", p, timeout=10, address_space=2**31)
        assert out.returncode == 0, out.stderr
        lines[p] = [line for line in out.stdout.splitlines() if not line.startswith("b = ")]
    assert lines["3"] == lines["2"] and len(lines["2"]) == 5
    assert lines["2"][:2] == ["pattern: P4", "v1=16 v2=17 v3=18 v4=19"]


def test_witness_on_a_20000_vertex_path_exits_0(tmp_path):
    # The dense generator maps held d entries per monomial: on this path,
    # a valid input, the algebra ended in a MemoryError traceback after
    # about a minute under a 1.5 GB address-space limit.  Its 3d - 2
    # nonzero products take well under a second.
    text = "20000\n" + "".join(f"{i} {i + 1}\n" for i in range(19999))
    path = write(tmp_path, "path20000.txt", text)
    out = run_cli_process("witness", "-i", path, timeout=10, address_space=2**30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("pattern: P4\nv1=0 v2=1 v3=2 v4=3\n")


def test_witness_on_a_million_isolated_vertices_exits_4_at_once(tmp_path):
    # one frozenset per vertex and one mask sum per vertex took 2.4 s and
    # over 300 MB before the exit; the masks come from the (empty) edge set
    path = write(tmp_path, "empty1000000.txt", "1000000\n")
    start = time.perf_counter()
    out = run_cli_process("witness", "-i", path, timeout=10, address_space=2**30)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.startswith("no witness exists")


def test_witness_on_a_trillion_vertices_exits_3_at_once(tmp_path):
    # the neighbour masks ([0] * n) ended in a MemoryError traceback; from
    # 2**20 vertices on the singleton cliques alone pass the guard
    for name, text in (("empty.txt", "1000000000000\n"), ("edge.txt", "1000000000000\n0 1\n")):
        path = write(tmp_path, name, text)
        start = time.perf_counter()
        out = run_cli_process("witness", "-i", path, timeout=10, address_space=2**30)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 3 and out.stdout == "", out.stderr
        assert "more than 2**20" in out.stderr


def test_witness_at_odd_p_eliminates_nothing_on_a_sparse_graph(tmp_path):
    # seeded G(300, 0.02), 951 edges: spanning A_1 Ann(b)_1 densely in A_2
    # at p = 3 took over 30 s and 671 MB; the certificate reads three rows
    g = random_graph(random.Random(1), 300, 0.02)
    edges = "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    path = write(tmp_path, "g300.txt", f"300\n{edges}")
    outs = {}
    for p in ("2", "3"):
        out = run_cli_process("witness", "-i", path, "-p", p, timeout=10, address_space=2**31)
        assert out.returncode == 0, out.stderr
        outs[p] = out.stdout
    assert outs["3"] == outs["2"]
    assert outs["2"].startswith("pattern: P4\nv1=0 v2=258 v3=90 v4=1\n")
