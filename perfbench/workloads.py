"""Workload inputs and output checks.

Nothing here imports the package: inputs are plain data made from the
seed, and every check compares an output with a stored golden output or
with a property recomputed here by independent code (clique counts, the
induced C4/P4 test, the series 1/H(-t), closed-form work counts).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import counts

WORKLOADS = ("census6", "analyze", "brute", "classes7")
GOLDEN = Path(__file__).resolve().parent / "golden"

# Clique counts the seeded graphs are drawn with: the most common profile
# of G(9, m=18) that has a K4, and common profiles of elementary-type graphs.
G9M18_PROFILE = (1, 9, 18, 9, 1)
ELEMENTARY_PROFILES = {4: (1, 4, 5, 2), 5: (1, 5, 7, 3)}


def _complete(n):
    return [list(e) for e in itertools.combinations(range(n), 2)]


def _cycle(n):
    return [sorted((i, (i + 1) % n)) for i in range(n)]


def _path(n):
    return [[i, i + 1] for i in range(n - 1)]


def _star(n):
    # n vertices: centre 0 and n - 1 leaves
    return [[0, i] for i in range(1, n)]


def _random_gnm(rng, n, m):
    return sorted(list(e) for e in rng.sample(list(itertools.combinations(range(n), 2)), m))


def _with_profile(draw, n, profile):
    """Draw graphs until one has the given clique counts.  The structure
    still varies with the seed, but the algebra's dimensions, and so the
    work, do not."""
    while True:
        edges = draw()
        if tuple(clique_counts(n, edges)) == profile:
            return edges


def _elementary(rng, verts):
    """Edges of a random graph built from single vertices by cones and
    disjoint unions, so it has no induced C4 or P4."""
    if len(verts) == 1:
        return []
    if rng.random() < 0.5:
        apex, rest = verts[0], verts[1:]
        return [sorted((apex, v)) for v in rest] + _elementary(rng, rest)
    k = rng.randint(1, len(verts) - 1)
    return _elementary(rng, verts[:k]) + _elementary(rng, verts[k:])


def _random_elementary(rng, n):
    verts = list(range(n))
    rng.shuffle(verts)
    return sorted(_elementary(rng, verts))


def items(workload: str, seed: int) -> list[dict]:
    """The units of work of one pass, in dispatch order.  census6 and
    classes7 are fixed inputs; the seed draws the random graphs of analyze
    and brute."""
    rng = random.Random(seed)
    if workload == "census6":
        return [{"name": "census-n6", "n": 6, "p": 2}]
    if workload == "classes7":
        return [{"name": "classes-n7", "n": 7}]
    if workload == "analyze":
        out = [
            {"name": "K7", "n": 7, "p": 3, "edges": _complete(7), "golden": "analyze_K7_p3.txt"},
            {"name": "C8", "n": 8, "p": 5, "edges": _cycle(8), "golden": "analyze_C8_p5.txt"},
            {"name": "P10", "n": 10, "p": 7, "edges": _path(10), "golden": "analyze_P10_p7.txt"},
        ]
        for p in (3, 5, 7):
            edges = _with_profile(lambda: _random_gnm(rng, 9, 18), 9, G9M18_PROFILE)
            out.append({"name": f"G9m18-p{p}", "n": 9, "p": p, "edges": edges})
        return out
    if workload == "brute":
        out = [
            {"name": "star-6v-p2", "n": 6, "p": 2, "edges": _star(6)},
            {"name": "star-5v-p3", "n": 5, "p": 3, "edges": _star(5)},
            {"name": "star-4v-p5", "n": 4, "p": 5, "edges": _star(4)},
            {"name": "K3-p7", "n": 3, "p": 7, "edges": _complete(3)},
        ]
        for i, n in enumerate((5, 4, 5)):
            edges = _with_profile(lambda: _random_elementary(rng, n), n, ELEMENTARY_PROFILES[n])
            out.append({"name": f"elem{i}-{n}v-p2", "n": n, "p": 2, "edges": edges})
        return out
    raise ValueError(f"unknown workload {workload!r}")


def units(workload: str, item: dict) -> int:
    """Items counted in attempted/failed: classes for census6 and classes7,
    graphs for analyze, brute cases for brute."""
    if workload in ("census6", "classes7"):
        return counts.GRAPH_CLASSES[item["n"]]
    return 1


# --- independent graph facts -------------------------------------------------


def _adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def clique_counts(n, edges) -> list[int]:
    """[#k-cliques for k = 0..clique number], by extending each clique
    with larger common neighbours."""
    adj = _adj(n, edges)
    out = [1]
    level = [(1 << v, adj[v] & ~((2 << v) - 1)) for v in range(n)]
    while level:
        out.append(len(level))
        nxt = []
        for members, cand in level:
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                cand ^= low
                nxt.append((members | low, cand & adj[v]))
        level = nxt
    return out


def induced_pattern(edges, quad) -> str | None:
    """'C4' or 'P4' if the 4 vertices induce a square or a path."""
    eset = {tuple(sorted(e)) for e in edges}
    inside = [e for e in itertools.combinations(sorted(quad), 2) if e in eset]
    deg = Counter(v for e in inside for v in e)
    degrees = sorted(deg.get(v, 0) for v in quad)
    if len(inside) == 4 and degrees == [2, 2, 2, 2]:
        return "C4"
    if len(inside) == 3 and degrees == [1, 1, 2, 2]:
        return "P4"
    return None


def has_diagonal_property(n, edges) -> bool:
    return all(
        induced_pattern(edges, q) is None
        for q in itertools.combinations(range(n), 4)
    )


def dual_series_nonneg(dims, order=12) -> bool:
    """Whether 1/H(-t) has nonnegative coefficients through t**order."""
    c = [(-1) ** k * h for k, h in enumerate(dims)]
    inv = [1]
    for m in range(1, order + 1):
        inv.append(-sum(c[k] * inv[m - k] for k in range(1, min(m, len(c) - 1) + 1)))
    return min(inv) >= 0


def _tree_edges(node):
    """(vertices, edges) of a decomposition tree in the analyze JSON."""
    if node["kind"] == "vertex":
        return {node["vertex"]}, set()
    if node["kind"] == "cone":
        verts, edges = _tree_edges(node["base"])
        a = node["apex"]
        return verts | {a}, edges | {tuple(sorted((a, v))) for v in verts}
    verts, edges = set(), set()
    for child in node["children"]:
        cv, ce = _tree_edges(child)
        verts |= cv
        edges |= ce
    return verts, edges


def _violation_ok(edges, v) -> bool:
    quad = (v["v1"], v["v2"], v["v3"], v["v4"])
    return len(set(quad)) == 4 and induced_pattern(edges, quad) == v["pattern"]


# --- output checks: each returns the number of failed units -----------------

_TIMING = re.compile(r'^  "timing_ms": -?\d+,\n', re.MULTILINE)


def strip_timing(text: str) -> str:
    return _TIMING.sub("", text, count=1)


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="ascii")


def census_rows_without_key(text: str) -> list[str]:
    """The census CSV with the canonical_key column removed: header, rows
    sorted, summary line.  The key may change when the canonical form does;
    every other column is an isomorphism invariant."""
    lines = text.splitlines()
    if len(lines) < 2:
        return lines
    body = sorted(line.split(",", 1)[-1] for line in lines[1:-1])
    return [lines[0].split(",", 1)[-1]] + body + [lines[-1]]


def check_census(item, out: dict) -> int:
    total = counts.GRAPH_CLASSES[item["n"]]
    if out.get("code") != 0:
        return total
    got = census_rows_without_key(out["stdout"])
    want = golden_text("census6_rows.txt").splitlines()
    if len(got) < 2 or got[0] != want[0]:
        return total
    g, w = Counter(got[1:-1]), Counter(want[1:-1])
    failed = max(sum((w - g).values()), sum((g - w).values()))
    m = re.fullmatch(r"# classes=(\d+) theorem_violations=(\d+).*", got[-1])
    if m is None or int(m.group(1)) != total:
        failed = max(failed, 1)
    else:
        failed += int(m.group(2))
    return min(failed, total)


def check_analyze(item, out: dict) -> int:
    if out.get("code") != 0:
        return 1
    text = out["stdout"]
    if item.get("golden"):
        return int(strip_timing(text) != golden_text(item["golden"]))
    n, edges, p = item["n"], item["edges"], item["p"]
    doc = json.loads(text)
    dims = clique_counts(n, edges)
    diag = has_diagonal_property(n, edges)
    uk = doc["universally_koszul"]
    ok = (
        doc["graph"]["n"] == n
        and doc["graph"]["edges"] == edges
        and doc["p"] == p
        and doc["dims"] == dims
        and doc["strongly_koszul"] == {"pass": True, "pairs_checked": counts.strong_pairs(n)}
        and doc["diagonal_property"] is diag
        and uk["fast"] is diag
        and uk["brute"] == "skipped"
        and doc["pbw"] is True
        and doc["dual_series_nonneg"] is dual_series_nonneg(dims)
    )
    if not ok:
        return 1
    tree = doc["decomposition"]
    if diag:
        verts, tree_edges = _tree_edges(tree)
        ok = "witness" not in uk and verts == set(range(n)) and tree_edges == {tuple(e) for e in edges}
    else:
        w = uk.get("witness")
        ok = (
            tree["kind"] == "violation"
            and _violation_ok(edges, tree)
            and w is not None
            and _violation_ok(edges, w["violation"])
            and all(w["certificate"].values())
        )
    return int(not ok)


def check_brute(item, out: dict) -> int:
    n, p = item["n"], item["p"]
    ok = (
        out.get("verdict") is True
        and out.get("fast") is True
        and has_diagonal_property(n, item["edges"])
        and out.get("ideals") == counts.galois_number(n, p)
        and out.get("divisors") == counts.brute_divisors(n, p)
    )
    return int(not ok)


def degree_sequence(n, edges) -> str:
    """Degrees in descending order: an isomorphism invariant of the class."""
    deg = Counter(v for e in edges for v in e)
    return " ".join(str(d) for d in sorted((deg[v] for v in range(n)), reverse=True))


def check_classes(item, out: dict) -> int:
    """Each class is a (canonical key, degree sequence) pair."""
    total = counts.GRAPH_CLASSES[item["n"]]
    if out.get("classes") != total or len(out["keys"]) != total:
        return total
    keys = [key for key, _ in out["keys"]]
    want = Counter()
    for line in golden_text("classes7_degrees.txt").splitlines():
        seq, count = line.rsplit(",", 1)
        want[seq] = int(count)
    got = Counter(seq for _, seq in out["keys"])
    failed = max(sum((want - got).values()), sum((got - want).values()))
    failed += len(keys) - len(set(keys))
    return min(failed, total)


CHECKS = {
    "census6": check_census,
    "analyze": check_analyze,
    "brute": check_brute,
    "classes7": check_classes,
}
