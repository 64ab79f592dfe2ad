import itertools
import random
import time

import pytest

from conftest import (
    adj,
    canonical_graph_by_levels,
    cliques_by_combinations,
    complete,
    cone,
    cone_over_path,
    decompose_by_single_peels,
    diagonal_violation_by_quads,
    disjoint_union,
    five_vertex_cone_like,
    graph_count,
    induced_subgraph,
    lexmin_by_permutations,
    path4,
    random_graph,
    random_trivially_perfect,
    reconstruct,
    relabel,
    square4,
    star,
    twin_classes,
)
from koszulity import graphs
from koszulity.errors import InputError, ResourceLimitError
from koszulity.graphs import (
    ConeNode,
    DiagonalViolation,
    Graph,
    LeafNode,
    UnionNode,
    build_graph,
    canonical_form,
    canonical_graph,
    diagonal_violation,
    elementary_type_decomposition,
    enumerate_cliques,
    nonisomorphic_graphs,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield build_graph(n, [e for k, e in enumerate(pairs) if (mask >> k) & 1])


def test_parse_edge_list_square():
    g = square4()
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_parse_edge_list_comments_blanks_duplicates():
    g = parse_edge_list("# header\n3\n\n0 1  # an edge\n1 0\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1)})


def test_parse_edge_list_single_vertex():
    g = parse_edge_list("1\n")
    assert g.n == 1 and not g.edges


def test_parse_edge_list_rejects_loops():
    with pytest.raises(InputError, match="loop"):
        parse_edge_list("3\n1 1\n")


def test_parse_edge_list_rejects_bad_input():
    for text in ("", "x\n", "3\n0\n", "3\n0 5\n", "3\n0 a\n", "-1\n"):
        with pytest.raises(InputError):
            parse_edge_list(text)


def test_graph6_decode_examples():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and len(k4.edges) == 6
    two = parse_graph6("A?")
    assert two.n == 2 and not two.edges
    assert parse_graph6("@").n == 1
    assert parse_graph6(">>graph6<<C~").edges == k4.edges


def test_graph6_rejects_malformed():
    for bad in ("", "C", "C~~", "~??", "A~", chr(62) + "?"):
        with pytest.raises(InputError):
            parse_graph6(bad)


def test_graph6_roundtrip_all_small_classes():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            assert parse_graph6(to_graph6(g)) == g
    # every short-form size, at densities from empty to complete
    rng = random.Random(6)
    for n in range(63):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, density)
            text = to_graph6(g)
            assert len(text) == 1 + -(-n * (n - 1) // 12)
            assert parse_graph6(text) == g


def clique_number(g):
    return len(enumerate_cliques(g)) - 1


def test_enumerate_cliques():
    assert enumerate_cliques(complete(3)) == (
        ((),),
        ((0,), (1,), (2,)),
        ((0, 1), (0, 2), (1, 2)),
        ((0, 1, 2),),
    )
    assert len(enumerate_cliques(square4())) == 3  # no 3-cliques
    assert [len(level) for level in enumerate_cliques(complete(4))] == [1, 4, 6, 4, 1]


def test_enumerate_cliques_refuses_past_the_guard(monkeypatch):
    # K4 has 16 cliques, () included; a fifth vertex is one clique too many
    monkeypatch.setattr(graphs, "ENUMERATION_GUARD", 16)
    assert sum(map(len, enumerate_cliques(complete(4)))) == 16
    with pytest.raises(ResourceLimitError, match="cliques on 5 vertices"):
        enumerate_cliques(build_graph(5, complete(4).edges))


def test_enumerate_cliques_matches_subset_oracle():
    rng = random.Random(1985)
    for n in range(11):
        for density in (0.2, 0.5, 0.8, 1.0):
            g = random_graph(rng, n, density)
            levels = enumerate_cliques(g)
            for k in range(n + 2):
                want = cliques_by_combinations(g, k)
                assert list(levels[k] if k < len(levels) else ()) == want


def test_neighbour_masks_match_the_adjacency_sets():
    rng = random.Random(1985)
    cases = [build_graph(0, []), build_graph(1, []), build_graph(5, [(1, 3)])]
    cases += [random_graph(rng, n, d) for n in range(11) for d in (0.2, 0.5, 0.8, 1.0)]
    for g in cases:
        assert graphs.neighbour_masks(g) == [sum(1 << w for w in nb) for nb in adj(g)]
    assert graphs.neighbour_masks(build_graph(3, [])) == [0, 0, 0]


def test_smaller_twins_match_the_twin_classes():
    # every class on <= 6 vertices and a seeded relabelling of each, with
    # vertex v at bit v and at bit 3v (the canonical search's fields)
    rng = random.Random(1252)
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for h in (g, relabel(g, rng.sample(range(n), n))):
                for width in (1, 3):
                    units = [1 << width * v for v in range(n)]
                    nbrs = [sum(units[w] for w in nb) for nb in adj(h)]
                    want = [0] * n
                    for c in twin_classes(h):
                        for v in c:
                            want[v] = sum(units[u] for u in c if u < v)
                    assert graphs.smaller_twins(nbrs, units) == want, (h.edges, width)


def test_graphs_with_2_to_the_20_vertices_are_refused_before_any_list():
    # n vertices give n + 1 cliques, () included
    assert graphs.neighbour_masks(Graph(2**20 - 1, frozenset())) == [0] * (2**20 - 1)
    for n in (2**20, 10**12):
        g = Graph(n, frozenset({(0, 1)}))
        for f in (graphs.neighbour_masks, enumerate_cliques):
            with pytest.raises(ResourceLimitError, match=r"more than 2\*\*20"):
                f(g)


def test_clique_number():
    # the clique number is the size of the last level enumerate_cliques lists
    assert clique_number(complete(4)) == 4
    assert clique_number(square4()) == 2
    assert clique_number(star(3)) == 2
    assert clique_number(build_graph(3, [])) == 1
    assert clique_number(build_graph(0, [])) == 0


def test_square_violation_labeling():
    w = diagonal_violation(square4())
    assert w == DiagonalViolation("C4", 1, 2, 3, 0)


def test_path_violation_labeling():
    w = diagonal_violation(path4())
    assert w == DiagonalViolation("P4", 0, 1, 2, 3)


def test_five_vertex_graph_violation():
    w = diagonal_violation(five_vertex_cone_like())
    assert w == DiagonalViolation("C4", 1, 2, 4, 0)


def test_small_graphs_have_diagonal_property():
    for n in range(1, 4):
        for g in all_labeled_graphs(n):
            assert diagonal_violation(g) is None
    assert diagonal_violation(cone_over_path()) is None
    assert diagonal_violation(star(4)) is None
    assert diagonal_violation(complete(5)) is None


def test_violation_pattern_is_induced():
    for n in (4, 5):
        for g in nonisomorphic_graphs(n):
            w = diagonal_violation(g)
            if w is None:
                continue
            edges = [(w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v4)]
            nonedges = [(w.v1, w.v3), (w.v2, w.v4)]
            (edges if w.kind == "C4" else nonedges).append((w.v4, w.v1))
            assert all(g.has_edge(a, b) for a, b in edges)
            assert not any(g.has_edge(a, b) for a, b in nonedges)


def test_diagonal_property_closed_under_induced_subgraphs():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            if diagonal_violation(g) is not None:
                continue
            for k in range(4, n + 1):
                for verts in itertools.combinations(range(n), k):
                    assert diagonal_violation(induced_subgraph(g, verts)) is None


def test_violation_search_matches_the_scan_over_4_sets():
    # every class on at most 7 vertices with three relabellings each, and
    # random graphs of random density on 4-16 vertices
    rng = random.Random(1962)
    cases = []
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            cases.append(g)
            cases += [relabel(g, rng.sample(range(n), n)) for _ in range(3)]
    for _ in range(3000):
        cases.append(random_graph(rng, rng.randint(4, 16), rng.random()))
    found = 0
    for g in cases:
        want = diagonal_violation_by_quads(g)
        assert diagonal_violation(g) == want
        found += want is not None
    assert 1000 < found < len(cases) - 1000


def test_decomposition_star():
    t = elementary_type_decomposition(star(3))
    assert t == ConeNode(0, UnionNode((LeafNode(1), LeafNode(2), LeafNode(3))))


def test_decomposition_complete_graph_is_nested_cones():
    t = elementary_type_decomposition(complete(4))
    assert t == ConeNode(0, ConeNode(1, ConeNode(2, LeafNode(3))))


def test_decomposition_failure_returns_violation():
    out = elementary_type_decomposition(path4())
    assert isinstance(out, DiagonalViolation) and out.kind == "P4"
    ring5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    out = elementary_type_decomposition(ring5)
    assert isinstance(out, DiagonalViolation)


def test_decomposition_orders_components_by_least_vertex():
    # components {0, 3, 4} and {1, 2}, interleaved
    g = build_graph(5, [(0, 3), (3, 4), (0, 4), (1, 2)])
    t = elementary_type_decomposition(g)
    assert t == UnionNode((
        ConeNode(0, ConeNode(3, LeafNode(4))),
        ConeNode(1, LeafNode(2)),
    ))


def test_decomposition_of_many_isolated_vertices_is_linear():
    # taking the least unseen vertex once per component made this quadratic
    g = build_graph(20_000, [])
    start = time.perf_counter()
    t = elementary_type_decomposition(g)
    assert time.perf_counter() - start < 2.0
    assert t == UnionNode(tuple(LeafNode(v) for v in range(20_000)))


def test_decomposition_matches_single_peels_on_small_classes():
    rng = random.Random(1978)
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for h in (g, relabel(g, rng.sample(range(n), n))):
                want = decompose_by_single_peels(h)
                got = elementary_type_decomposition(h)
                if want is None:
                    assert isinstance(got, DiagonalViolation)
                else:
                    assert got == want


def test_decomposition_of_a_large_clique_is_nested_cones():
    # one Python frame per cone ran past the recursion limit near K_1000
    t = elementary_type_decomposition(complete(1100))
    for apex in range(1099):
        assert isinstance(t, ConeNode) and t.apex == apex
        t = t.base
    assert t == LeafNode(1099)


def test_decomposition_of_random_trivially_perfect_graphs():
    # beyond the classes, up to 30 vertices; a disjoint P4 on the highest
    # labels fails the parent check after the rest of the forest is built
    rng = random.Random(1996)
    for k in range(400):
        n = rng.randint(1, 30)
        g = relabel(random_trivially_perfect(rng, n), rng.sample(range(n), n))
        tree = elementary_type_decomposition(g)
        assert tree == decompose_by_single_peels(g)
        assert reconstruct(tree, n) == g
        if k % 10 == 0:
            h = disjoint_union(g, path4())
            want = DiagonalViolation("P4", n, n + 1, n + 2, n + 3)
            assert diagonal_violation_by_quads(h) == want
            assert elementary_type_decomposition(h) == want


def test_decomposition_of_the_alternating_threshold_graph_is_fast():
    # vertex i is joined to every smaller vertex when i is odd: a union
    # under every cone, 1,440,000 edges.  Peeling level by level and
    # rescanning what is left took 8 s at 800 vertices.
    n = 2400
    g = Graph(n, frozenset((j, i) for i in range(1, n, 2) for j in range(i)))
    start = time.perf_counter()
    t = elementary_type_decomposition(g)
    assert time.perf_counter() - start < 2.0
    # == and repr recurse, so the tree is walked in a loop
    for apex in range(n - 1, 1, -2):
        assert isinstance(t, ConeNode) and t.apex == apex
        assert isinstance(t.base, UnionNode) and len(t.base.children) == 2
        t, isolated = t.base.children
        assert isolated == LeafNode(apex - 1)
    assert t == ConeNode(0, LeafNode(1))


def test_decomposition_empty_graph_rejected():
    with pytest.raises(InputError):
        elementary_type_decomposition(build_graph(0, []))


def test_decomposition_reconstructs_small_classes():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            out = elementary_type_decomposition(g)
            if isinstance(out, DiagonalViolation):
                assert diagonal_violation(g) is not None
            else:
                assert reconstruct(out, g.n) == g


def test_disjoint_union_and_cone():
    u = disjoint_union(build_graph(2, [(0, 1)]), build_graph(2, [(0, 1)]))
    assert u.n == 4 and u.edges == frozenset({(0, 1), (2, 3)})
    c = cone(build_graph(3, []))
    assert c.edges == frozenset({(0, 3), (1, 3), (2, 3)})
    assert clique_number(cone(complete(3))) == 4


def test_canonical_form_invariant_under_relabeling():
    path_a = parse_edge_list("3\n0 1\n1 2\n")
    path_b = parse_edge_list("3\n1 0\n0 2\n")  # same path through vertex 0
    assert canonical_form(path_a) == canonical_form(path_b)
    assert canonical_form(square4()) != canonical_form(path4())


def test_canonical_form_counts_classes_on_four_vertices():
    keys = {canonical_form(g) for g in all_labeled_graphs(4)}
    assert len(keys) == 11


def test_canonical_graph_idempotent():
    for g in (square4(), path4(), five_vertex_cone_like(), star(4)):
        c = canonical_graph(g)
        assert canonical_graph(c) == c
        assert to_graph6(c) == canonical_form(g)


def test_canonical_form_guard():
    with pytest.raises(ResourceLimitError):
        canonical_form(build_graph(9, []))


def complete_multipartite(*parts):
    part = [k for k, size in enumerate(parts) for _ in range(size)]
    return build_graph(len(part), [
        (u, v) for u, v in itertools.combinations(range(len(part)), 2)
        if part[u] != part[v]
    ])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def cube3():
    # the 3-cube: vertices 0..7, edges between labels one bit apart
    return build_graph(8, [
        (u, v) for u, v in itertools.combinations(range(8), 2)
        if bin(u ^ v).count("1") == 1
    ])


def complement(g):
    return build_graph(g.n, [
        (u, v) for u, v in itertools.combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    ])


# The oracle tests below call the search without the memo, so that a
# memo hit cannot hide a search bug.
search = graphs._canonical_search


def test_canonical_graph_matches_permutation_search_on_labeled_graphs():
    for n in range(6):
        for g in all_labeled_graphs(n):
            assert search(g) == lexmin_by_permutations(g)


def test_canonical_graph_matches_permutation_search_on_relabeled_classes():
    rng = random.Random(20140101)
    sample = nonisomorphic_graphs(6)[::8] + nonisomorphic_graphs(7)[::60]
    for g in sample:
        h = relabel(g, rng.sample(range(g.n), g.n))
        assert search(h) == lexmin_by_permutations(h)


def test_canonical_graph_matches_permutation_search_on_named_graphs():
    cube = cube3()
    moebius = build_graph(8, [(i, (i + 1) % 8) for i in range(8)]
                          + [(i, i + 4) for i in range(4)])
    # twin classes cover every vertex
    twin_heavy = [
        complete(7), complete(8), build_graph(8, []), star(6), star(7),
        complete_multipartite(2, 2, 3), complete_multipartite(1, 3, 4),
        complete_multipartite(4, 4),
    ]
    # vertex-transitive and free of twins, alone and complemented
    symmetric = [cycle(7), cycle(8), cube, moebius]
    symmetric += [complement(g) for g in symmetric]
    rng = random.Random(1998)
    for g in twin_heavy + symmetric:
        h = relabel(g, rng.sample(range(g.n), g.n))
        assert search(h) == lexmin_by_permutations(h)


def test_canonical_graph_invariant_and_idempotent_on_eight_vertices():
    rng = random.Random(8)
    for _ in range(60):
        g = random_graph(rng, 8, rng.random())
        c = search(g)
        assert search(c) == c
        for _ in range(2):
            assert search(relabel(g, rng.sample(range(8), 8))) == c


def test_class_counts():
    # OEIS A000088
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044
    ]
    # and the same counts by Burnside's lemma, which goes on past n = 7
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == [
        graph_count(n) for n in range(1, 8)
    ]
    assert [graph_count(n) for n in (8, 9, 10)] == [12346, 274668, 12005168]
    with pytest.raises(InputError):
        nonisomorphic_graphs(0)


def classes_candidates(n):
    """Every graph nonisomorphic_graphs(n) passes to canonical_graph: each
    class on n - 1 vertices plus a new last vertex with every neighbourhood."""
    for g in nonisomorphic_graphs(n - 1):
        for mask in range(2 ** (n - 1)):
            extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
            yield build_graph(n, list(g.edges) + extra)


def test_canonical_graph_matches_level_search_on_class_candidates():
    for n in range(2, 7):
        for g in classes_candidates(n):
            assert search(g) == canonical_graph_by_levels(g)


def test_canonical_graph_matches_level_search_on_relabeled_seven_classes():
    rng = random.Random(1981)
    for g in nonisomorphic_graphs(7):
        h = relabel(g, rng.sample(range(7), 7))
        assert search(h) == canonical_graph_by_levels(h)


def test_canonical_graph_matches_level_search_at_extreme_independence():
    cube = cube3()
    family = [
        complete(8),  # independence number 1
        build_graph(8, [(0, 1)]),  # 7
        build_graph(8, [(2 * i, 2 * i + 1) for i in range(4)]),  # 4
        star(7),  # 7
        cycle(8),  # 4
        cube,  # 4
    ]
    rng = random.Random(1234)
    for g in family + [complement(g) for g in family]:
        for _ in range(3):
            h = relabel(g, rng.sample(range(8), 8))
            assert search(h) == canonical_graph_by_levels(h)
            assert search(h) == search(g)


def count_searches(monkeypatch):
    """The calls canonical_graph makes to the search, on an empty memo."""
    searched = []
    monkeypatch.setattr(graphs, "_canonical_memo", {})
    monkeypatch.setattr(graphs, "_canonical_search", lambda g: searched.append(g) or search(g))
    return searched


def test_class_enumeration_makes_one_canonical_call_per_candidate(monkeypatch):
    # the closed form the classes7 and census6 benchmarks compare against
    calls = []
    real = graphs.canonical_graph

    def counted(g):
        calls.append(g)
        return real(g)

    searched = count_searches(monkeypatch)
    monkeypatch.setattr(graphs, "canonical_graph", counted)
    nonisomorphic_graphs.cache_clear()
    try:
        assert len(nonisomorphic_graphs(6)) == 156
        # 2**(k - 1) neighbourhoods for each class on k - 1 vertices, k = 2..6
        assert len(calls) == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 == 1306
        # the other 1,089 candidates share a memo key with an earlier one
        assert len(searched) == 217
        assert len(nonisomorphic_graphs(7)) == 1044
    finally:
        nonisomorphic_graphs.cache_clear()
    # and 64 neighbourhoods for each class on 6 vertices, of which 1,308
    # candidates search: a result is stored under itself, not under its
    # own key, so six candidates that share only a result's key search
    assert len(calls) == 1306 + 156 * 64 == 11290
    assert len(searched) == 217 + 1308 == 1525


def test_class_shares_split_the_classes_and_the_searches_by_edge_count(monkeypatch):
    # the census workers' shares: merged by key they are the whole set,
    # each class sits in the share of its edge count, and each share's
    # memo meets every candidate of its classes, so their searches on a
    # fresh memo add up to one share's
    for n in range(1, 8):
        whole = nonisomorphic_graphs(n)
        searches = {}
        for shares in range(1, 5):
            merged, searches[shares] = [], 0
            for share in range(shares):
                searched = count_searches(monkeypatch)
                part = graphs.class_share(n, share, shares)
                searches[shares] += len(searched)
                assert all(len(g.edges) % shares == share for g in part)
                assert [to_graph6(g) for g in part] == sorted(map(to_graph6, part))
                merged += part
            assert sorted(merged, key=to_graph6) == list(whole)
        assert len(set(searches.values())) == 1, (n, searches)
    assert searches[1] == 1308  # n = 7, as in the whole enumeration


def test_memoised_canonical_graph_matches_the_search(monkeypatch):
    # every candidate of nonisomorphic_graphs(6) under three relabellings,
    # and random graphs on 8 vertices under three relabellings each
    count_searches(monkeypatch)
    rng = random.Random(2014)
    cases = [g for n in range(2, 7) for g in classes_candidates(n)]
    cases += [random_graph(rng, 8, rng.random()) for _ in range(100)]
    for g in cases:
        for _ in range(3):
            h = relabel(g, rng.sample(range(g.n), g.n))
            assert canonical_graph(h) == search(h)


def test_canonical_memo_stays_within_its_bound(monkeypatch):
    searched = count_searches(monkeypatch)
    monkeypatch.setattr(graphs, "CANONICAL_MEMO_SIZE", 16)
    rng = random.Random(16)
    sizes = []
    for g in classes_candidates(6):
        h = relabel(g, rng.sample(range(6), 6))
        assert canonical_graph(h) == search(h)
        sizes.append(len(graphs._canonical_memo))
    assert max(sizes) == 16
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # cleared
    assert len(searched) < len(sizes)  # and hit in between


def test_class_representatives_are_keyed_without_a_search(monkeypatch):
    searched = count_searches(monkeypatch)
    keyed = []
    key = graphs._invariant_key
    monkeypatch.setattr(graphs, "_invariant_key", lambda g: keyed.append(g) or key(g))
    nonisomorphic_graphs.cache_clear()
    try:
        classes = nonisomorphic_graphs(6)
    finally:
        nonisomorphic_graphs.cache_clear()
    del keyed[:], searched[:]
    # a stored result, or a new Graph equal to one, is found under itself
    assert len({canonical_form(g) for g in classes}) == 156
    assert keyed == [] and searched == []
    # each class is one Graph object, whatever candidate reached it
    assert all(canonical_graph(g) is g for g in classes)
    assert all(canonical_graph(Graph(g.n, frozenset(g.edges))) is g for g in classes)
    assert keyed == [] and searched == []
    # a miss keys its input once, and not the result it stores
    graphs._canonical_memo.clear()
    g = relabel(classes[100], [5, 3, 1, 0, 2, 4])
    assert canonical_graph(g) is canonical_graph(classes[100])
    assert keyed == [g] and searched == [g]


def test_memo_keys_equal_only_on_isomorphic_graphs():
    # the key is a relabelled copy of the graph, so a memo hit never
    # returns the class of a graph that is not isomorphic to the input
    by_key = {}
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            by_key.setdefault(graphs._invariant_key(g), set()).add(canonical_form(g))
    assert all(len(forms) == 1 for forms in by_key.values())
