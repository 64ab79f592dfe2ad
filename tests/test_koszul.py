import collections
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    adj,
    brute_by_all_subspaces,
    brute_cases,
    complete,
    cone,
    cone_over_path,
    disjoint_union,
    elementary_classes,
    failure_degree_by_images,
    first_divisors_by_stabiliser,
    five_vertex_cone_like,
    gaussian_binomial,
    graph_of_code,
    monomial_element,
    multiply,
    path4,
    product_image,
    random_graph,
    reconstruct,
    relabel,
    rooted_trees,
    sparse_rows,
    span,
    square4,
    star,
    strong_koszul_by_colons,
    subspace_count,
    twin_classes,
)
from koszulity import gfp, graphs, ideals, koszul
from koszulity.algebra import build_algebra, element_string, from_coeffs, monomial_string
from koszulity.errors import InputError, ResourceLimitError
from koszulity.gfp import (
    count_text,
    enumerate_coset_reps_mod_scalar,
    enumerate_subspaces,
    rref,
)
from koszulity.graphs import (
    ConeNode,
    DiagonalViolation,
    build_graph,
    canonical_form,
    diagonal_violation,
    elementary_type_decomposition,
    nonisomorphic_graphs,
)
from koszulity.ideals import (
    annihilator,
    colon_ideal,
    element_in_ideal,
    ideal_from_degree_one,
    is_one_generated,
    monomial_ideal_basis,
)
from koszulity.koszul import (
    StrongPairFailure,
    classify,
    non_universal_witness,
    strong_koszul_check,
    universal_koszul_bruteforce,
    universal_koszul_fast,
)


def test_strong_check_pair_count():
    for g, expected in ((square4(), 4 * 2**3), (complete(3), 3 * 2**2), (star(4), 5 * 2**4)):
        report = strong_koszul_check(build_algebra(g, 2))
        assert report.pairs_checked == expected


def test_strong_check_square_passes():
    report = strong_koszul_check(build_algebra(square4(), 2))
    assert report.passed and not report.failures


def test_strong_check_one_pair_by_hand():
    # square graph, prefix {} and divisor a1: 0:(a1) must be generated by
    # a1 together with a1's non-neighbor a3
    ctx = build_algebra(square4(), 2)
    colon = annihilator(ctx, monomial_element(ctx, (1,)))
    expected = monomial_ideal_basis(ctx, {1, 3})
    assert colon.pieces == expected.pieces


def test_strong_check_passes_on_small_classes():
    for p in (2, 3):
        for n in range(1, 5):
            for g in nonisomorphic_graphs(n):
                assert strong_koszul_check(build_algebra(g, p)).passed


def test_strong_check_independent_of_characteristic():
    # Monomial colons do not depend on p, so the packed F_2 route and the
    # dense odd-p route must produce the same coordinate subspaces.
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx2, ctx3 = build_algebra(g, 2), build_algebra(g, 3)
            r2, r3 = strong_koszul_check(ctx2), strong_koszul_check(ctx3)
            assert (r2.passed, r2.pairs_checked) == (r3.passed, r3.pairs_checked)
            for r in range(n):
                for prefix in itertools.combinations(range(n), r):
                    i2 = monomial_ideal_basis(ctx2, prefix)
                    i3 = monomial_ideal_basis(ctx3, prefix)
                    for u in set(range(n)) - set(prefix):
                        c2 = colon_ideal(ctx2, i2, monomial_element(ctx2, (u,)))
                        c3 = colon_ideal(ctx3, i3, monomial_element(ctx3, (u,)))
                        assert [s.pivots for s in c2.pieces] == [
                            s.pivots for s in c3.pieces
                        ]
                        assert [s.rows for s in c2.pieces] == [s.rows for s in c3.pieces]


def test_strong_check_matches_colon_oracle():
    cases = [(g, 2) for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    cases += [(g, p) for p in (3, 5) for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    rng = random.Random(20)
    cases += [(random_graph(rng, n), 2) for n in (7, 7, 8, 8, 9, 9)]
    cases += [(random_graph(rng, n), 3) for n in (7, 8)]
    # the top degree at its largest (D = d) and smallest (D = 1)
    cases += [(complete(8), 2), (build_graph(8, []), 2)]
    for g, p in cases:
        ctx = build_algebra(g, p)
        report = strong_koszul_check(ctx)
        assert report == strong_koszul_by_colons(ctx)
        assert report.passed


def with_image(ctx, n, u, i, image):
    """ctx with a_u times basis monomial i of degree n replaced by image,
    a sparse vector, in ctx.products; the generator maps gen_maps,
    derived from them, are dropped so that they see the same
    corruption."""
    level = list(ctx.products[n])
    kept = [prod for prod in level[i] if prod[0] != u]
    # entries stay ordered by generator, the image's terms in its order
    level[i] = tuple(sorted(kept + [(u, k, sign) for k, sign in image], key=lambda t: t[0]))
    ctx.products = ctx.products[:n] + (tuple(level),) + ctx.products[n + 1:]
    vars(ctx).pop("gen_maps", None)
    return ctx


def test_generated_ideal_reads_the_contexts_current_maps():
    # on P3 at p = 2, (a0) holds a1 a0 = a0 a1 in degree 2 until a1 a0 is
    # replaced by zero: a second call on the same context must see that,
    # as a fresh corrupted context does
    ctx = build_algebra(build_graph(3, [(0, 1), (1, 2)]), 2)
    a0 = span(2, 3, [((0, 1),)])
    assert ideal_from_degree_one(ctx, a0).piece(2).rank == 1
    with_image(ctx, 1, 1, 0, ())
    fresh = with_image(build_algebra(build_graph(3, [(0, 1), (1, 2)]), 2), 1, 1, 0, ())
    assert ideal_from_degree_one(fresh, a0).piece(2).rank == 0
    assert ideal_from_degree_one(ctx, a0).piece(2).rank == 0


def test_strong_check_reports_the_oracles_failures_on_a_broken_map():
    # a_u m = +-m' replaced by zero puts m into every colon by a_u whose
    # prefix misses m'; a_u m = 0 replaced by a monomial that a_u does not
    # reach drops m from such colons (for m = a_j, j leaves the computed
    # generators, which can show first in the top degree).  The prediction
    # or the regenerated ideal contradicts each.
    for g, p in ((cone_over_path(), 2), (square4(), 3), (complete(4), 5), (path4(), 2)):
        plain = build_algebra(g, p)
        for n in range(1, plain.D):
            for u in range(plain.dim(1)):
                images = [product_image(plain, n, u, i) for i in range(plain.dim(n))]
                reached = {k for image in images for k, _ in image}
                spare = sorted(set(range(plain.dim(n + 1))) - reached)
                for i, image in enumerate(images):
                    if image:
                        broken = ()
                    elif spare:
                        broken = ((spare[0], 1),)
                    else:
                        continue
                    ctx = with_image(build_algebra(g, p), n, u, i, broken)
                    report = strong_koszul_check(ctx)
                    assert report.failures
                    assert report == strong_koszul_by_colons(ctx)


def test_strong_check_keeps_the_oracles_failure_order_across_masks():
    # a0 a1 and a1 a0 both replaced by zero put a1 into the colon by a0,
    # and a0 into the one by a1, of every prefix that misses both, so one
    # mask holds two failing divisors and several masks fail
    plain = build_algebra(path4(), 3)
    ctx = with_image(build_algebra(path4(), 3), 1, 0, 1, ())
    ctx = with_image(ctx, 1, 1, 0, ())
    assert product_image(plain, 1, 0, 1) and product_image(plain, 1, 1, 0)
    report = strong_koszul_check(ctx)
    oracle = strong_koszul_by_colons(ctx)
    assert report.failures == oracle.failures
    assert report == oracle
    prefixes = [f.prefix for f in report.failures]
    assert len(set(prefixes)) >= 2
    assert any(prefixes.count(s) >= 2 for s in prefixes)


def test_strong_check_reports_a_failure_seen_only_in_the_top_degree():
    # With true adjacency every top monomial meets S' or a non-neighbour
    # of u, so the closed form fills the top degree and that comparison
    # only fails when adjacency and maps disagree.  Here P3's maps and
    # bases meet triangle adjacency, and a0 a2 (zero in P3) is sent to
    # a1 a2: the colon 0:(a0) has the predicted generator a0 alone in
    # degree one but the whole top degree, which a0 does not generate.
    ctx = build_algebra(build_graph(3, [(0, 1), (1, 2)]), 2)
    assert ctx.D == 2 and not product_image(ctx, 1, 0, 2)
    ctx = with_image(ctx, 1, 0, 2, ((ctx.index[2][(1, 2)], 1),))
    ctx.graph = complete(3)
    report = strong_koszul_check(ctx)
    assert report == strong_koszul_by_colons(ctx)
    assert StrongPairFailure((), 0, (0,), (0,), 2) in report.failures


def test_strong_check_refuses_maps_that_are_not_signed_injections():
    ctx = build_algebra(complete(4), 3)
    (k, _), = product_image(ctx, 1, 0, 1)
    (other, _), = product_image(ctx, 1, 0, 2)
    for image in (((k, 1), (other, 1)), ((other, -1),), ((k, 2),)):
        with pytest.raises(RuntimeError, match="signed injection"):
            strong_koszul_check(with_image(build_algebra(complete(4), 3), 1, 0, 1, image))
    assert strong_koszul_check(ctx).passed
    # degree 0 is checked too, though no colon piece is read there: a0 * 1
    # sent to a0 + a1 on P3
    p3 = build_algebra(build_graph(3, [(0, 1), (1, 2)]), 2)
    with pytest.raises(RuntimeError, match="a0 in degree 0"):
        strong_koszul_check(with_image(p3, 0, 0, 0, ((0, 1), (1, 1))))


def corruptions(rng, g, p):
    """Corrupted algebras of g over F_p, as (new image, ctx) with slots
    and images drawn by rng, keyed by kind: one image of degree >= 1
    zeroed, or sent to a target its generator does not reach (sign +-1),
    or to one it reaches from another monomial; a_u * 1 replaced by zero,
    by +-a_v or by a_u + a_v; and the maps kept while one adjacency pair
    is toggled."""
    plain = build_algebra(g, p)
    d = g.n
    def image(n, u, i):
        return product_image(plain, n, u, i)

    used = {
        (n, u): {k for i in range(plain.dim(n)) for k, _ in image(n, u, i)}
        for n in range(plain.D) for u in range(d)
    }
    slots = [(n, u, i) for n, u in used if n for i in range(plain.dim(n))]

    choices = {
        "zeroed": [(s, ()) for s in slots if image(*s)],
        "unused": [
            (s, ((k, rng.choice((1, -1))),))
            for s in slots for k in range(plain.dim(s[0] + 1)) if k not in used[s[:2]]
        ],
        "reused": [
            (s, ((k, 1),)) for s in slots for k in sorted(used[s[:2]])
            if image(*s) not in (((k, 1),), ((k, -1),))
        ],
        "degree 0": [
            ((0, u, 0), im) for u in range(d) for im in (
                (), ((rng.randrange(d), rng.choice((1, -1))),), ((u, 1), ((u + 1) % d, 1))
            )
        ],
    }
    out = {}
    for kind, cands in choices.items():
        if cands:
            s, im = rng.choice(cands)
            out[kind] = im, with_image(build_algebra(g, p), *s, im)
    i, j = sorted(rng.sample(range(d), 2))
    toggled = build_algebra(g, p)
    toggled.graph = build_graph(d, g.edges ^ {(i, j)})
    out["toggled"] = None, toggled
    return out


def test_strong_check_matches_the_colon_oracle_on_corrupted_algebras():
    # Every class on 3-5 vertices at p = 2 and 3: the reused target must
    # raise, and one other kind per class, in turn, goes to the oracle
    # (which keeps the test near a second).  A zeroed or unused image, or
    # a toggled pair, always breaks some (divisor, monomial) test; a
    # one-term a_u * 1 is never read by a colon.
    rng = random.Random(26)
    kinds = ("zeroed", "unused", "degree 0", "toggled")
    contexts = [(g, p) for p in (2, 3) for n in (3, 4, 5) for g in nonisomorphic_graphs(n)]
    assert len(contexts) == 98
    seen = collections.Counter()
    for turn, (g, p) in enumerate(contexts):
        corrupt = corruptions(rng, g, p)
        if "reused" in corrupt:
            with pytest.raises(RuntimeError, match="signed injection"):
                strong_koszul_check(corrupt["reused"][1])
            seen["reused"] += 1
        kind = kinds[turn % len(kinds)]
        if kind not in corrupt:
            continue
        image, ctx = corrupt[kind]
        if kind == "degree 0" and len(image) > 1:
            with pytest.raises(RuntimeError, match="in degree 0"):
                strong_koszul_check(ctx)
            seen["degree 0 raised"] += 1
            continue
        report = strong_koszul_check(ctx)
        assert report == strong_koszul_by_colons(ctx)
        assert report.passed == (kind == "degree 0")
        seen[kind] += 1
    assert min(seen.values()) >= 4 and len(seen) == 6, seen


def test_elementary_grammar_gives_the_diagonal_classes():
    # the graphs with the diagonal property, built from points by cones and
    # disjoint unions: rooted forests, counted by A000081(n + 1)
    counts = [len(elementary_classes(n)) for n in range(1, 9)]
    assert counts == [1, 2, 4, 9, 20, 48, 115, 286]
    assert counts == [rooted_trees(n + 1) for n in range(1, 9)]
    for n in range(1, 8):
        keys = sorted(canonical_form(graph_of_code(code)) for code in elementary_classes(n))
        assert keys == [
            canonical_form(g) for g in nonisomorphic_graphs(n) if diagonal_violation(g) is None
        ]
    for n in range(1, 9):
        for code in elementary_classes(n):
            g = graph_of_code(code)
            assert reconstruct(elementary_type_decomposition(g), n) == g
            for p in (2, 3):
                assert strong_koszul_check(build_algebra(g, p)).passed


def test_fast_verdicts():
    assert universal_koszul_fast(star(3)) is True
    assert universal_koszul_fast(cone_over_path()) is True
    assert universal_koszul_fast(complete(5)) is True
    assert universal_koszul_fast(square4()) is False
    assert universal_koszul_fast(path4()) is False
    assert universal_koszul_fast(five_vertex_cone_like()) is False


def test_brute_square_fails_with_frozen_counterexample():
    ctx = build_algebra(square4(), 2)
    out = universal_koszul_bruteforce(ctx)
    assert out.verdict is False and out.failure is not None
    f = out.failure
    assert f.ideal.piece(1).rank == 0  # the zero ideal fails first
    assert element_string(f.divisor) == "a0+a3"
    assert f.degree == 2


def test_brute_golden_graph_passes_with_exact_counts():
    ctx = build_algebra(cone_over_path(), 2)
    out = universal_koszul_bruteforce(ctx)
    assert out.verdict is True and out.failure is None
    assert out.ideals_enumerated == subspace_count(2, 4)
    # each proper subspace U of rank k contributes the 2**(4-k) - 1 nonzero
    # classes of A1/U
    total = sum(gaussian_binomial(2, 4, k) * (2 ** (4 - k) - 1) for k in range(4))
    assert out.divisors_checked == total


def test_brute_agrees_with_fast_on_small_classes():
    for p in (2, 3):
        for n in range(1, 4):
            for g in nonisomorphic_graphs(n):
                ctx = build_algebra(g, p)
                assert universal_koszul_bruteforce(ctx).verdict is universal_koszul_fast(g)


def test_brute_star_both_primes():
    for p in (2, 3):
        ctx = build_algebra(star(2), p)
        out = universal_koszul_bruteforce(ctx)
        assert out.verdict is True
        assert out.ideals_enumerated == subspace_count(p, 3)


def test_witness_square():
    ctx = build_algebra(square4(), 2)
    w = non_universal_witness(ctx)
    assert w.violation == DiagonalViolation("C4", 1, 2, 3, 0)
    assert element_string(w.b) == "a0+a1"
    assert monomial_string(w.culprit) == "a2*a3"
    assert w.culprit_annihilated and w.culprit_outside_degree_one_part


def test_witness_path():
    ctx = build_algebra(path4(), 3)
    w = non_universal_witness(ctx)
    assert w.violation == DiagonalViolation("P4", 0, 1, 2, 3)
    assert element_string(w.b) == "a0+a3"
    assert monomial_string(w.culprit) == "a1*a2"


def test_witness_five_vertex_graph():
    ctx = build_algebra(five_vertex_cone_like(), 2)
    w = non_universal_witness(ctx)
    assert w.violation == DiagonalViolation("C4", 1, 2, 4, 0)
    assert monomial_string(w.culprit) == "a2*a4"


def _annihilator_route(ctx, ends):
    """b = the sum of a_v over ends, Ann(b) by annihilator, and the ideal
    Ann(b)_1 generates by ideal_from_degree_one."""
    b = from_coeffs(ctx, 1, [int(j in ends) for j in range(ctx.dim(1))])
    ann = annihilator(ctx, b)
    return b, ann, ideal_from_degree_one(ctx, ann.piece(1))


def _witness_facts(route, culprit):
    """Whether Ann(b) holds the culprit monomial (also decided by multiply)
    and whether the ideal Ann(b)_1 generates misses it."""
    b, ann, regen = route
    culprit = monomial_element(b.ctx, tuple(sorted(culprit)))
    in_ann = element_in_ideal(culprit, ann)
    assert in_ann is not any(multiply(b, culprit).coeffs)
    return in_ann, not element_in_ideal(culprit, regen)


def test_witness_certificate_is_exact():
    # every class on <= 7 vertices without the diagonal property, p = 2, 3
    cases = 0
    for n in range(4, 8):
        for g in nonisomorphic_graphs(n):
            v = graphs.diagonal_violation(g)
            if v is None:
                continue
            for p in (2, 3):
                ctx = build_algebra(g, p)
                w = koszul.certify_witness(ctx, v)
                facts = (w.culprit_annihilated, w.culprit_outside_degree_one_part)
                route = _annihilator_route(ctx, (v.v1, v.v4))
                assert w.b == route[0]
                assert facts == _witness_facts(route, (v.v2, v.v3)) == (True, True)
                cases += 1
    assert cases == 2106


def test_certificate_of_a_mislabelled_violation_raises():
    # every ordered 4-tuple of distinct vertices whose middle pair is an
    # edge, labelled as a violation, on every class on <= 5 vertices at
    # p = 2, 3: certify_witness raises iff a fact fails by the annihilator
    # route, and otherwise returns the facts
    named = [
        (complete(4), DiagonalViolation("C4", 0, 1, 2, 3), (False, True)),
        (path4(), DiagonalViolation("P4", 1, 2, 3, 0), (True, False)),
    ]
    outcomes = collections.Counter()
    for p in (2, 3):
        for g, w, facts in named:
            ctx = build_algebra(g, p)
            assert _witness_facts(_annihilator_route(ctx, (w.v1, w.v4)), (w.v2, w.v3)) == facts
            with pytest.raises(RuntimeError, match="failed exact verification"):
                koszul.certify_witness(ctx, w)
        for n in range(4, 6):
            for g in nonisomorphic_graphs(n):
                ctx, routes, nbrs = build_algebra(g, p), {}, adj(g)
                for v1, v2, v3, v4 in itertools.permutations(range(n), 4):
                    if v3 not in nbrs[v2]:
                        continue
                    w = DiagonalViolation("C4" if v4 in nbrs[v1] else "P4", v1, v2, v3, v4)
                    ends = frozenset((v1, v4))
                    if ends not in routes:
                        routes[ends] = _annihilator_route(ctx, ends)
                    facts = _witness_facts(routes[ends], (v2, v3))
                    outcomes[facts] += 1
                    if facts != (True, True):
                        with pytest.raises(RuntimeError, match="failed exact verification"):
                            koszul.certify_witness(ctx, w)
                        continue
                    out = koszul.certify_witness(ctx, w)
                    assert (out.culprit_annihilated, out.culprit_outside_degree_one_part) == facts
    # (False, False) cannot occur: an end adjacent to v2 and v3 (which
    # b a_{v2} a_{v3} != 0 needs) keeps both a_{v2} and a_{v3} out of Ann(b)
    assert outcomes == {(False, True): 2248, (True, False): 1608, (True, True): 488}


def test_classify_scans_for_a_violation_once_and_keeps_the_witness(monkeypatch):
    calls = []
    original = graphs.diagonal_violation

    def counted(g, *nbrs):
        calls.append(g)
        return original(g, *nbrs)

    monkeypatch.setattr(graphs, "diagonal_violation", counted)
    monkeypatch.setattr(koszul, "diagonal_violation", counted)
    for n in (4, 5):
        for g in nonisomorphic_graphs(n):
            if original(g) is None:
                continue
            expected = non_universal_witness(build_algebra(g, 2))
            calls.clear()
            w = classify(g, p=2, brute="off").witness
            assert len(calls) == 1
            assert (w.violation, w.b.coeffs, w.culprit) == (
                expected.violation, expected.b.coeffs, expected.culprit
            )
            assert w.culprit_annihilated and w.culprit_outside_degree_one_part


def test_witness_requires_violation():
    with pytest.raises(InputError):
        non_universal_witness(build_algebra(cone_over_path(), 2))


def test_classify_star_runs_brute():
    report = classify(star(3), p=2)
    assert report.diagonal_property is True
    assert report.strong.passed and report.witness is None
    assert report.brute.verdict is True and report.brute.failure is None
    assert report.pbw is True and report.dual_series_nonneg is True
    assert isinstance(report.decomposition, ConeNode)
    assert report.dims == (1, 4, 3)


def test_classify_brute_gating():
    # auto skips brute when the enumeration would be too large
    assert classify(complete(5), p=2, brute="auto").brute is None
    assert classify(complete(5), p=2, brute="off").brute is None
    assert classify(complete(3), p=3, brute="auto").brute.verdict is True
    assert classify(complete(4), p=3, brute="auto").brute is None
    forced = classify(complete(5), p=2, brute="on")
    assert forced.brute.verdict is True
    assert forced.brute == universal_koszul_bruteforce(build_algebra(complete(5), 2))
    with pytest.raises(InputError):
        classify(square4(), brute="sometimes")


def test_classify_square_carries_witness():
    report = classify(square4(), p=2)
    assert report.diagonal_property is False
    assert report.witness is not None
    assert monomial_string(report.witness.culprit) == "a2*a3"
    assert isinstance(report.decomposition, DiagonalViolation)
    assert report.brute.verdict is False
    assert report.brute.failure is not None


def test_classify_empty_graph_rejected():
    with pytest.raises(InputError):
        classify(build_graph(0, []))


def forbid(monkeypatch, module, name, what):
    def refuse(*args):
        raise AssertionError(f"{what} before the budget check")

    monkeypatch.setattr(module, name, refuse)


def forbid_colons(monkeypatch):
    # koszul no longer binds colon_ideal; its definition is forbidden
    forbid(monkeypatch, ideals, "colon_ideal", "colon computed")


def test_strong_check_refuses_over_budget_before_any_colon(monkeypatch):
    forbid_colons(monkeypatch)

    def no_table(*args):
        raise AssertionError("product table built before the budget check")

    monkeypatch.setattr(koszul, "_product_table", no_table)
    path17 = build_graph(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(ResourceLimitError, match="1114112"):
        strong_koszul_check(build_algebra(path17, 2))


def test_classify_refuses_past_the_strong_budget_before_any_stage(monkeypatch):
    def no_algebra(*args):
        raise AssertionError("algebra built before the strong budget check")

    monkeypatch.setattr(koszul, "build_algebra", no_algebra)
    empty17 = build_graph(17, [])
    with pytest.raises(ResourceLimitError, match="strong Koszulity check refused: 1114112"):
        classify(empty17, brute="on")
    with pytest.raises(InputError, match="9 is not prime"):
        classify(empty17, p=9)


def test_refusals_bound_counts_too_long_to_print():
    # 20000 * 2**19999 strong pairs; the brute count on 300 vertices has
    # 6,820 digits, past the 4,300 Python writes in decimal
    with pytest.raises(ResourceLimitError, match="refused: more than 2\\*\\*20013 "):
        koszul._strong_budget(20000)
    ctx = build_algebra(build_graph(300, []), 2)
    with pytest.raises(ResourceLimitError, match="refused: more than 2\\*\\*22653 "):
        universal_koszul_bruteforce(ctx)


def test_strong_refusal_wording_matches_the_exact_count():
    # past 64 vertices the count is not built; the wording must be the one
    # count_text gives for the exact count
    for d in (17, 60, 64, 65, 66, 127, 128, 129, 1000, 4097):
        with pytest.raises(ResourceLimitError) as err:
            koszul._strong_budget(d)
        assert f"refused: {count_text(d * 2**(d - 1))} (prefix" in str(err.value)


def test_brute_divisor_count_is_exact():
    # the last five settle whole blocks of subspaces at a row prefix; the
    # empty graph has A_2 = 0, so every block is settled at its root and
    # no divisor is tested
    cases = (
        (star(2), 2, 13), (star(2), 3, 13), (cone_over_path(), 2, 98),
        (complete(3), 5, 19), (star(5), 2, 453), (star(4), 3, 174),
        (star(3), 5, 51), (complete(3), 7, 21), (build_graph(5, []), 3, 0),
    )
    for g, p, tested in cases:
        out = universal_koszul_bruteforce(build_algebra(g, p))
        assert out.verdict is True
        assert out.ideals_enumerated == subspace_count(p, g.n)
        assert out.divisors_checked == koszul._brute_divisor_count(p, g.n)
        assert out.divisors_tested == tested, (g.edges, p)
    # the benchmark's largest case, the largest admitted p = 2 case, refusals
    assert koszul._brute_divisor_count(3, 5) == 25652
    assert koszul._brute_divisor_count(2, 7) == 358775
    assert koszul._brute_divisor_count(2, 8) == 7449060
    assert koszul._brute_divisor_count(31, 4) == 61198592


def test_brute_divisor_count_matches_the_product_formula():
    # the count comes from the Goldman-Rota recurrences, with no binomial
    for p in (2, 3, 5, 7, 97):
        for d in range(13):
            want = sum(
                gaussian_binomial(p, d, r) * ((p ** (d - r) - 1) // (p - 1))
                for r in range(d + 1)
            )
            assert koszul._brute_divisor_count(p, d) == want, (p, d)


def test_brute_refusal_is_cheap_and_keeps_its_wording():
    # 300 isolated vertices at p = 97 took about 10 s with a product
    # formula per rank; the count's wording is the one the exact count gives
    ctx = build_algebra(build_graph(300, []), 97)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        universal_koszul_bruteforce(ctx)
    assert time.perf_counter() - start < 0.5
    count = count_text(koszul._brute_divisor_count(97, 300))
    assert count.startswith("more than 2**")
    assert str(err.value) == (
        f"brute-force universal check refused: {count} (ideal, divisor) "
        "pairs over F_97 with 300 vertices exceed 2**20"
    )
    want = sum(
        gaussian_binomial(97, 20, r) * ((97 ** (20 - r) - 1) // 96) for r in range(21)
    )
    with pytest.raises(ResourceLimitError) as err:
        universal_koszul_bruteforce(build_algebra(build_graph(20, []), 97))
    assert f"refused: {count_text(want)} (ideal" in str(err.value)


def test_brute_refuses_over_budget_before_any_colon(monkeypatch):
    forbid_colons(monkeypatch)
    forbid(monkeypatch, koszul, "_quotient_maps", "quotient maps built")
    forbid(monkeypatch, koszul, "first_subspaces", "subspaces walked")
    # the row-prefix walk behind every subspace enumeration
    forbid(monkeypatch, gfp, "_row_prefixes", "subspaces enumerated")
    for n, p in ((8, 2), (4, 31), (13, 2)):
        with pytest.raises(ResourceLimitError, match="exceed 2\\*\\*20"):
            universal_koszul_bruteforce(build_algebra(build_graph(n, []), p))


def test_brute_verdict_independent_of_prime():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            verdicts = {
                universal_koszul_bruteforce(build_algebra(g, p)).verdict for p in (2, 3, 5, 7)
            }
            assert len(verdicts) == 1, g.edges


# -- brute route up to twin symmetry ------------------------------------------


def test_brute_matches_all_subspaces_oracle():
    failing = 0
    for g, p in brute_cases():
        out = universal_koszul_bruteforce(build_algebra(g, p))
        ref = brute_by_all_subspaces(build_algebra(g, p))
        key = (g.edges, p)
        assert out.verdict is ref.verdict, key
        assert out.ideals_enumerated == ref.ideals_enumerated, key
        assert out.divisors_checked == ref.divisors_checked, key
        assert out.divisors_tested <= ref.divisors_tested, key
        if ref.failure is None:
            assert out.failure is None, key
            continue
        failing += 1
        f, r = out.failure, ref.failure
        assert f.ideal.pieces == r.ideal.pieces, key
        assert f.divisor.coeffs == r.divisor.coeffs, key
        assert f.degree == r.degree, key
    # 16 failing classes on <= 5 vertices at p = 2, and P4 and C4 at p = 3, 5 and 7
    assert failing == 22


def _transposition(u, v, n):
    perm = list(range(n))
    perm[u], perm[v] = v, u
    return tuple(perm)


def _generated_group(perms, n):
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        q = frontier.pop()
        for s in perms:
            r = tuple(s[q[i]] for i in range(n))
            if r not in group:
                group.add(r)
                frontier.append(r)
    return group


def _twin_group(g):
    # every permutation that maps each twin class onto itself
    classes = twin_classes(g)
    group = set()
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm = list(range(g.n))
        for c, image in zip(classes, images):
            for v, w in zip(c, image):
                perm[v] = w
        group.add(tuple(perm))
    return group


def _elementary():
    # a cone over K2 + 3K1
    return cone(disjoint_union(complete(2), build_graph(3, [])))


def _cycle(members, n):
    perm = list(range(n))
    for u, v in zip(members, members[1:] + members[:1]):
        perm[u] = v
    return tuple(perm)


def test_twin_generators_give_the_symmetric_group_on_each_twin_class():
    elementary = _elementary()
    graphs_ = [star(k) for k in range(1, 6)] + [complete(n) for n in range(1, 6)]
    graphs_ += [build_graph(5, [(i, j) for i in range(2) for j in range(2, 5)]), elementary]
    rng = random.Random(1252)
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            graphs_ += [g, relabel(g, rng.sample(range(n), n))]
    for g in graphs_:
        want = _twin_group(g)
        # the brute route's generators: the transposition of the two least
        # members of each class, then the cycle through a class of three or more
        gens = koszul._twin_generators(g)
        assert _generated_group(gens, g.n) == want, g.edges
        assert gens == [
            perm
            for c in twin_classes(g) if len(c) > 1
            for perm in [_transposition(c[0], c[1], g.n)] + [_cycle(c, g.n)] * (len(c) > 2)
        ], g.edges
    # the elementary graph has twin classes {0, 1}, {2, 3, 4} and the apex {5}
    assert twin_classes(elementary) == [[0, 1], [2, 3, 4], [5]]
    assert koszul._twin_generators(elementary) == [
        (1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 3, 4, 2, 5),
    ]


def test_twin_generators_close_the_orbits_of_every_transposition(monkeypatch):
    # for every first member met, closing with the two generators per
    # twin class gives the same set as closing with every transposition
    # inside each class, each followed by the scaling to the first member
    met = []
    orbit_rest = koszul._orbit_rest

    def record(basis, actions):
        got = orbit_rest(basis, actions)
        met.append((basis, got))
        return got

    monkeypatch.setattr(koszul, "_orbit_rest", record)
    for g, p, closed in ((star(5), 2, 31), (star(4), 3, 16), (_elementary(), 2, 151)):
        met.clear()
        assert universal_koszul_bruteforce(build_algebra(g, p)).verdict is True
        _, first, _ = gfp.scale_first(p)
        actions = [
            lambda basis, act=gfp.permute_coordinates(p, _transposition(u, v, g.n)):
                first(act(basis))
            for c in twin_classes(g)
            for u, v in itertools.combinations(c, 2)
        ]
        assert len(met) == closed, (g.edges, p, len(met))
        for basis, got in met:
            assert got == orbit_rest(basis, actions), (g.edges, p, basis)


def test_twin_generators_are_checked_against_the_edges(monkeypatch):
    g = build_graph(3, [(0, 1), (1, 2)])
    assert koszul._twin_generators(g) == [(2, 1, 0)]
    # masks that disagree with the edge set make any two vertices look like twins
    monkeypatch.setattr(koszul, "neighbour_masks", lambda g: [0] * g.n)
    with pytest.raises(RuntimeError, match="not a graph automorphism"):
        koszul._twin_generators(g)


def test_brute_tests_exactly_the_first_member_of_each_orbit(monkeypatch):
    # the orbits come from the whole twin group and, at odd p, every
    # diagonal scaling; the loop closes the orbit of, and builds an ideal
    # for, only a first member whose ideal is smaller than A_2 in degree 2
    # (the others pass on A_1 U = A_2, which holds for all of an orbit or
    # none), and tests those of its divisors that are first under the
    # scalings that fix it.  The divisors_tested pins are the real guard
    # on that last step: every failing graph fails at U = 0, where those
    # scalings are the whole torus, so the oracle comparisons of verdict
    # and failure cannot see a wrong class scan at U != 0
    tested, closed = [], []
    original, orbit_rest = koszul.ideal_from_degree_one, koszul._orbit_rest

    def record(ctx, u):
        tested.append(u)
        return original(ctx, u)

    def record_orbit(basis, actions):
        closed.append(basis)
        return orbit_rest(basis, actions)

    monkeypatch.setattr(koszul, "ideal_from_degree_one", record)
    monkeypatch.setattr(koszul, "_orbit_rest", record_orbit)
    cases = (
        (star(5), 2, 157, 31, 453),
        (complete(4), 5, 17, 12, 103),
        (_elementary(), 2, None, None, None),
    )
    for g, p, orbits, live, divisors in cases:
        tested.clear()
        closed.clear()
        ctx = build_algebra(g, p)
        out = universal_koszul_bruteforce(ctx)
        assert out.verdict is True
        group = _twin_group(g)
        scalings = list(itertools.product(range(1, p), repeat=g.n))
        firsts, seen = [], set()
        for u in enumerate_subspaces(p, g.n):
            if u in seen:
                continue
            rows = sparse_rows(u)
            seen |= {
                span(p, g.n, [[(perm[j], c * t[perm[j]]) for j, c in row] for row in rows])
                for perm in group
                for t in scalings
            }
            firsts.append(u)
        nonvanishing = [u for u in firsts if original(ctx, u).piece(2).rank < ctx.dim(2)]
        assert tested == nonvanishing, g.edges
        assert closed == [u.basis for u in nonvanishing], g.edges
        assert orbits is None or len(firsts) == orbits
        assert live is None or len(nonvanishing) == live
        # the divisor classes of each live first member that are first
        # under its stabilising scalings are tested, every class at p = 2
        want = sum(len(first_divisors_by_stabiliser(u)) for u in nonvanishing)
        assert out.divisors_tested == want, g.edges
        assert divisors is None or want == divisors


def test_graph_without_twins_tests_every_divisor():
    p5 = build_graph(5, [(i, i + 1) for i in range(4)])
    assert koszul._twin_generators(p5) == []
    out = universal_koszul_bruteforce(build_algebra(p5, 2))
    assert out.verdict is False
    assert out.divisors_tested == out.divisors_checked


def test_brute_tests_one_subspace_per_twin_orbit():
    out = universal_koszul_bruteforce(build_algebra(star(5), 2))
    assert out.verdict is True
    assert (out.ideals_enumerated, out.divisors_checked) == (2825, 23562)
    # twin orbits leave 1,498 divisors; 1,045 of them belong to subspaces
    # U with (U)_2 = A_2, which pass untested
    assert out.divisors_tested == 453


def test_brute_star7_completes_under_a_time_bound():
    # 358,775 divisors; testing every one takes about 16 s on a 2-vCPU VM.
    # One subspace per twin orbit leaves 5,715, and skipping the subspaces
    # U with (U)_2 = A_2 leaves 1,461, tested in well under a second
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(q for q in (src, os.environ.get("PYTHONPATH")) if q)
    code = (
        "from koszulity import build_algebra, build_graph, universal_koszul_bruteforce\n"
        "g = build_graph(7, [(0, i) for i in range(1, 7)])\n"
        "r = universal_koszul_bruteforce(build_algebra(g, 2))\n"
        "print(r.verdict, r.ideals_enumerated, r.divisors_checked, r.divisors_tested)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=12,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "29212", "358775", "1461"]


def test_vanishing_quotient_passes_by_the_colon_route():
    # every divisor b outside U passes when (U)_2 = A_2: I:(b) = A_{>=1},
    # checked with colon_ideal and is_one_generated on random graphs on
    # <= 6 vertices with an induced C4 or P4, at p = 2, 3, 5; each graph
    # still fails for the witness divisor at U = 0, so none is vacuous
    rng = random.Random(14)
    graphs_seen, colons = 0, 0
    while graphs_seen < 24:
        p = (2, 3, 5)[graphs_seen % 3]
        g = random_graph(rng, rng.randint(4, 6), rng.choice((0.5, 0.7)))
        if universal_koszul_fast(g):
            continue
        graphs_seen += 1
        ctx = build_algebra(g, p)
        w = non_universal_witness(ctx)
        ok, _, _ = is_one_generated(ctx, annihilator(ctx, w.b))
        assert not ok, g.edges
        found = 0
        while found < 2:
            rows = [[rng.randrange(p) for _ in range(g.n)] for _ in range(rng.randrange(1, g.n))]
            u = rref(rows, p, ambient_dim=g.n)
            ideal = ideal_from_degree_one(ctx, u)
            if u.rank == g.n or ideal.piece(2).rank < ctx.dim(2):
                continue
            found += 1
            for vec in enumerate_coset_reps_mod_scalar(u):
                # a scaled and translated representative of the same class
                shift = [rng.randrange(p) for _ in range(u.rank)]
                c = rng.randrange(1, p)
                b = [
                    (c * x + sum(s * row[j] for s, row in zip(shift, u.rows))) % p
                    for j, x in enumerate(vec)
                ]
                for coeffs in (vec, b):
                    colon = colon_ideal(ctx, ideal, from_coeffs(ctx, 1, coeffs))
                    assert is_one_generated(ctx, colon)[0], (g.edges, p, u.rows, coeffs)
                    colons += 1
    assert colons >= 200, colons


def test_brute_builds_no_quotient_for_a_vanishing_one(monkeypatch):
    # the shortcut: no quotient maps for U with (U)_2 = A_2, and the
    # divisors tested are exactly those of the subspaces that get them
    # that are first under the scalings fixing the subspace (all at p = 2)
    built = []
    original = koszul._quotient_maps

    def record(ctx, ideal):
        assert ideal.piece(2).rank < ctx.dim(2)
        built.append(ideal.piece(1))
        return original(ctx, ideal)

    monkeypatch.setattr(koszul, "_quotient_maps", record)
    for g, p, want in ((star(5), 2, 453), (complete(3), 7, 21), (star(4), 3, 174)):
        built.clear()
        ctx = build_algebra(g, p)
        out = universal_koszul_bruteforce(ctx)
        assert out.verdict is True
        # first divisors of the subspaces that reached the quotient test
        assert out.divisors_tested == want == sum(
            len(first_divisors_by_stabiliser(u)) for u in built
        )
        assert len(set(built)) == len(built)
        assert out.divisors_tested < out.divisors_checked, g.edges


def test_quotient_divisor_test_matches_the_colon_route():
    # Ann_{A/I}(b) tested in the quotient against is_one_generated of
    # colon_ideal, verdict and failure degree: random graphs on <= 6
    # vertices with an induced C4 or P4, sparse random U and b outside U,
    # at p = 2, 3, 5, and the octahedron's failure in degree 3 at U = 0,
    # which the brute route never reaches (it fails in degree 2 first)
    rng = random.Random(5)
    cases = []
    while len(cases) < 240:
        p = (2, 3, 5)[len(cases) % 3]
        g = random_graph(rng, rng.randint(4, 6), rng.choice((0.6, 0.8)))
        if universal_koszul_fast(g):
            continue

        def sparse(q):
            return [rng.randrange(1, p) if rng.random() < q else 0 for _ in range(g.n)]

        u = rref([sparse(0.3) for _ in range(rng.randrange(3))], p, ambient_dim=g.n)
        b = sparse(0.4)
        if any(u.reduce(b)):
            cases.append((g, p, u, b))
    pairs = itertools.combinations(range(6), 2)
    octahedron = build_graph(6, [e for e in pairs if e not in ((0, 1), (2, 3), (4, 5))])
    for p in (2, 3, 5):
        cases.append((octahedron, p, rref([], p, ambient_dim=6), [1, 0, 0, 1, 0, 1]))
    seen = collections.Counter()
    for g, p, u, b in cases:
        ctx = build_algebra(g, p)
        ideal = ideal_from_degree_one(ctx, u)
        ok, degree, _ = is_one_generated(ctx, colon_ideal(ctx, ideal, from_coeffs(ctx, 1, b)))
        dims, maps = koszul._quotient_maps(ctx, ideal)
        residue = u.reduce(b)
        coords = [residue[c] for c in range(g.n) if c not in set(u.pivots)]
        got = koszul._failure_degree(p, dims, maps, coords)
        assert got == (None if ok else degree), (g.edges, p, u.rows, b)
        seen[degree, u.rank > 0] += 1
    assert seen[2, True] >= 10 and seen[None, True] >= 50 and seen[3, False] == 3, seen


def test_divisor_shortcuts_match_the_images_in_every_degree(monkeypatch):
    # koszul._failure_degree against the ideal spanned by images in every
    # degree, on every divisor class of every subspace whose quotient is
    # not zero in degree 2; each shortcut (b B_{n-1} = B_n, and J = (b)
    # when Ann_B(b)_1 = <b>) saves image_basis calls on some input
    calls, kernels = collections.Counter(), []
    original, kernel_of = gfp.image_basis, gfp.map_kernel

    def counted(route):
        def image_basis(*args):
            calls[route] += 1
            return original(*args)
        return image_basis

    def map_kernel(*args):
        kernel = kernel_of(*args)
        kernels.append(len(kernel))  # the dimension of Ann_B(b)_1
        return kernel

    monkeypatch.setattr(koszul, "image_basis", counted("shortcut"))
    monkeypatch.setattr(gfp, "image_basis", counted("reference"))
    monkeypatch.setattr(koszul, "map_kernel", map_kernel)
    inputs = [(g, p) for n in range(1, 5) for g in nonisomorphic_graphs(n) for p in (2, 3)]
    inputs += [(star(4), 5), (complete(3), 7), (square4(), 7)]
    inputs += [(build_graph(5, [(i, i + 1) for i in range(4)]), 2)]
    saved = set()  # the shortcuts that saved calls, and where
    failing = set()
    for g, p in inputs:
        ctx = build_algebra(g, p)
        if ctx.D < 2:
            continue
        fills = gfp.image_fills(p, ctx.gen_maps[1], ctx.dim(2))
        for u in enumerate_subspaces(p, g.n):
            if fills({}, u.basis) is None:
                continue  # A_1 U = A_2: the quotient is zero in degree 2
            dims, maps = koszul._quotient_maps(ctx, ideal_from_degree_one(ctx, u))
            pivots = set(u.pivots)
            free = [c for c in range(g.n) if c not in pivots]
            for vec in enumerate_coset_reps_mod_scalar(u):
                b = [vec[c] for c in free]
                calls.clear()
                got = koszul._failure_degree(p, dims, maps, b)
                want = failure_degree_by_images(p, dims, maps, b)
                assert got == want, (g.edges, p, u.basis, vec)
                if want is not None:
                    failing.add((g, p))
                if calls["shortcut"] < calls["reference"]:
                    saved.add(("principal" if kernels[-1] == 1 else "onto", g, p))
    # P4 and C4 at p = 2 and 3, C4 at p = 7 and P5 fail; nothing else does
    assert failing == {(g, p) for g, p in inputs if not universal_koszul_fast(g)}
    assert len(failing) == 6
    for shortcut in ("principal", "onto"):
        assert any(key[0] == shortcut for key in saved), saved
