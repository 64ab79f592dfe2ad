import json

import pytest

from conftest import complete, path4, square4
from koszulity.algebra import build_algebra, hilbert_series, koszul_numerical_check
from koszulity.cli import main
from koszulity.graphs import build_graph, nonisomorphic_graphs, to_graph6

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
        assert list(hilbert_series(build_algebra(g, doc["p"]))) == doc["dims"]


def census_lines(capsys, *argv):
    code, out, err = run(capsys, "census", *argv)
    assert code == 0, err
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("canonical_key,")
    assert lines[-1].startswith("# classes=")
    return lines


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
    for n in ("0", "8"):
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


def test_census_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    serial = census_lines(capsys, "-n", "4")
    monkeypatch.setenv("KOSZUL_THREADS", "2")
    parallel = census_lines(capsys, "-n", "4")
    assert serial == parallel


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
