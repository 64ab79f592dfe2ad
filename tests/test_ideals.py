import gc
import itertools
import math
import random
import tracemalloc
import weakref

import pytest

from conftest import (
    add,
    complete,
    cone_over_path,
    contains,
    degree_one_span,
    ideal_from_degree_one_by_sparse_vectors,
    monomial_element,
    random_graph,
    multiply,
    scale,
    space_of_rows,
    square4,
)
from koszulity.algebra import build_algebra, from_coeffs
from koszulity.errors import InputError
from koszulity.gfp import rref
from koszulity.graphs import build_graph, nonisomorphic_graphs
from koszulity.ideals import (
    annihilator,
    colon_ideal,
    element_in_ideal,
    ideal_from_degree_one,
    is_one_generated,
    monomial_ideal_basis,
    unit_ideal,
    zero_ideal,
)


def span_of(ctx, vectors):
    return rref(list(vectors), ctx.p, ambient_dim=ctx.dim(1))


def test_zero_and_unit_ideals():
    ctx = build_algebra(square4(), 2)
    z, u = zero_ideal(ctx), unit_ideal(ctx)
    assert all(z.piece(n).rank == 0 for n in range(3))
    assert all(u.piece(n).rank == ctx.dim(n) for n in range(3))


def test_ideal_from_degree_one_triangle():
    ctx = build_algebra(complete(3), 2)
    ideal = ideal_from_degree_one(ctx, degree_one_span(ctx, (0,)))
    # (a0) in degree 2: a0*a1 and a0*a2, i.e. basis slots (0,1) and (0,2)
    assert ctx.basis(2) == ((0, 1), (0, 2), (1, 2))
    assert ideal.piece(2).rows == ((1, 0, 0), (0, 1, 0))
    assert ideal.piece(3).rank == 1  # a0*a1*a2 spans the top degree
    assert ideal.piece(0).rank == 0


def test_ideal_from_degree_one_edge_cases():
    ctx = build_algebra(square4(), 3)
    z = ideal_from_degree_one(ctx, span_of(ctx, []))
    assert all(z.piece(n).rank == 0 for n in range(3))
    everything = ideal_from_degree_one(
        ctx, span_of(ctx, [[1 if i == j else 0 for i in range(4)] for j in range(4)])
    )
    assert everything.piece(1).rank == 4 and everything.piece(2).rank == 4
    assert everything.piece(0).rank == 0  # degree-one generators never reach degree 0


def test_monomial_ideal_golden_graph():
    ctx = build_algebra(cone_over_path(), 2)
    ideal = monomial_ideal_basis(ctx, {2})
    assert ctx.basis(2) == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert ideal.piece(1).rank == 1
    rows = ideal.piece(2).rows
    expected = tuple(
        tuple(1 if j == i else 0 for j in range(5)) for i in (1, 3, 4)
    )
    assert rows == expected
    assert ideal.piece(3).rank == 2  # both triangles contain vertex 2


def test_monomial_ideal_matches_generated_ideal():
    for p in (2, 3):
        for n in range(1, 5):
            for g in nonisomorphic_graphs(n):
                ctx = build_algebra(g, p)
                for r in range(g.n + 1):
                    for s in itertools.combinations(range(g.n), r):
                        direct = monomial_ideal_basis(ctx, s)
                        u = degree_one_span(ctx, *[(v,) for v in s])
                        generated = ideal_from_degree_one(ctx, u)
                        assert direct.pieces == generated.pieces


def test_native_ideal_matches_the_sparse_oracle():
    # random graphs and random degree-one subspaces at p = 2, 3, 5, 7; the
    # pieces must be the same canonical RowSpaces
    rng = random.Random(14)
    ranks = set()
    for p, top in ((2, 7), (3, 6), (5, 5), (7, 5)):
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, top), rng.choice((0.4, 0.7, 0.9)))
            ctx = build_algebra(g, p)
            for _ in range(6):
                rows = [
                    [rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(g.n)]
                    for _ in range(rng.randrange(g.n + 1))
                ]
                u = span_of(ctx, rows)
                want = ideal_from_degree_one_by_sparse_vectors(ctx, u)
                assert ideal_from_degree_one(ctx, u).pieces == want.pieces, (g.edges, p, u)
                ranks.add((p, u.rank > 0, ctx.D > 2))
    assert len(ranks) == 16, ranks


def test_colon_of_edge_algebra():
    ctx = build_algebra(build_graph(2, [(0, 1)]), 2)
    ideal = monomial_ideal_basis(ctx, {0})
    out = colon_ideal(ctx, ideal, monomial_element(ctx, (1,)))
    # (a0):(a1) picks up a1 as well (a1*a1 = 0) so it is all of (a0, a1)
    assert out.pieces == monomial_ideal_basis(ctx, {0, 1}).pieces


def test_colon_by_member_is_unit():
    ctx = build_algebra(square4(), 2)
    ideal = monomial_ideal_basis(ctx, {0})
    out = colon_ideal(ctx, ideal, monomial_element(ctx, (0,)))
    assert out.piece(0).rank == 1


def test_colon_rejects_wrong_degree():
    ctx = build_algebra(square4(), 2)
    with pytest.raises(InputError):
        colon_ideal(ctx, zero_ideal(ctx), monomial_element(ctx, (0, 1)))


def test_colon_by_zero_is_unit():
    # x*0 = 0 lies in every ideal, so I:(0) is everything
    ctx = build_algebra(square4(), 2)
    out = colon_ideal(ctx, zero_ideal(ctx), from_coeffs(ctx, 1, (0, 0, 0, 0)))
    assert out.piece(0).rank == 1


def test_colon_contains_ideal_and_annihilator():
    for n in range(1, 4):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 2)
            subsets = [
                s for r in range(g.n + 1) for s in itertools.combinations(range(g.n), r)
            ]
            for s in subsets:
                ideal = monomial_ideal_basis(ctx, s)
                for coeffs in itertools.product(range(2), repeat=g.n):
                    if not any(coeffs):
                        continue
                    b = from_coeffs(ctx, 1, coeffs)
                    out = colon_ideal(ctx, ideal, b)
                    ann = annihilator(ctx, b)
                    for k in range(len(ctx.dims)):
                        assert contains(out.piece(k), ideal.piece(k))
                        assert contains(out.piece(k), ann.piece(k))


def test_colon_scale_invariance():
    ctx = build_algebra(cone_over_path(), 3)
    ideal = monomial_ideal_basis(ctx, {1})
    b = from_coeffs(ctx, 1, (1, 0, 1, 0))
    doubled = scale(b, 2)
    assert colon_ideal(ctx, ideal, b).pieces == colon_ideal(ctx, ideal, doubled).pieces


def test_colon_shift_by_ideal_member_invariance():
    ctx = build_algebra(cone_over_path(), 2)
    ideal = monomial_ideal_basis(ctx, {1})
    b = from_coeffs(ctx, 1, (0, 0, 1, 0))
    shifted = add(b, monomial_element(ctx, (1,)))
    assert (
        colon_ideal(ctx, ideal, b).pieces == colon_ideal(ctx, ideal, shifted).pieces
    )


def test_annihilator_square_graph():
    ctx = build_algebra(square4(), 2)
    b = from_coeffs(ctx, 1, (1, 1, 0, 0))  # a0 + a1
    ann = annihilator(ctx, b)
    culprit = monomial_element(ctx, (2, 3))
    assert not any(multiply(b, culprit).coeffs)
    assert element_in_ideal(culprit, ann)
    regen = ideal_from_degree_one(ctx, ann.piece(1))
    assert not element_in_ideal(culprit, regen)


def test_ideal_pieces_are_multiplicatively_closed():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 3)
            for r in range(g.n + 1):
                for s in itertools.combinations(range(g.n), r):
                    ideal = monomial_ideal_basis(ctx, s)
                    for k in range(len(ctx.dims) - 1):
                        for row in ideal.piece(k).rows:
                            x = from_coeffs(ctx, k, row)
                            for v in range(g.n):
                                y = multiply(monomial_element(ctx, (v,)), x)
                                assert element_in_ideal(y, ideal)


def test_element_in_ideal_goldens():
    ctx = build_algebra(cone_over_path(), 2)
    principal = monomial_ideal_basis(ctx, {2})
    assert element_in_ideal(monomial_element(ctx, (2, 3)), principal)
    other = monomial_ideal_basis(ctx, {1})
    assert not element_in_ideal(monomial_element(ctx, (0, 2)), other)
    top_plus = multiply(
        monomial_element(ctx, (0, 1, 2)), monomial_element(ctx, (3,))
    )  # degree 4 > top, identically zero
    assert element_in_ideal(top_plus, zero_ideal(ctx))


def test_is_one_generated_positive_cases():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 2)
            for r in range(g.n + 1):
                for s in itertools.combinations(range(g.n), r):
                    ideal = monomial_ideal_basis(ctx, s)
                    ok, deg, witness = is_one_generated(ctx, ideal)
                    assert ok and deg is None and witness is None


def test_is_one_generated_detects_square_annihilator():
    ctx = build_algebra(square4(), 2)
    b = from_coeffs(ctx, 1, (1, 1, 0, 0))
    ok, deg, witness = is_one_generated(ctx, annihilator(ctx, b))
    assert not ok and deg == 2
    assert not any(multiply(b, witness).coeffs)
    regen = ideal_from_degree_one(ctx, annihilator(ctx, b).piece(1))
    assert not element_in_ideal(witness, regen)


def test_is_one_generated_unit_ideal():
    ctx = build_algebra(square4(), 2)
    ok, deg, witness = is_one_generated(ctx, unit_ideal(ctx))
    assert not ok and deg == 0 and witness.degree == 0


def test_caches_are_consistent():
    ctx = build_algebra(cone_over_path(), 2)
    u = degree_one_span(ctx, (0,), (2,))
    first = ideal_from_degree_one(ctx, u)
    again = ideal_from_degree_one(ctx, space_of_rows(ctx.p, ctx.dim(1), u.rows))
    assert first.pieces == again.pieces
    assert monomial_ideal_basis(ctx, (0, 2)).pieces == monomial_ideal_basis(
        ctx, frozenset({2, 0})
    ).pieces


def test_ideal_cache_shares_pieces_and_lets_contexts_go():
    ctx = build_algebra(cone_over_path(), 2)
    u = degree_one_span(ctx, (0,), (2,))
    first, again = ideal_from_degree_one(ctx, u), ideal_from_degree_one(ctx, u)
    assert again == first
    gone = weakref.ref(ctx)
    del ctx, u, first, again
    gc.collect()
    assert gone() is None


def test_annihilator_reads_the_products_not_the_generator_maps():
    # the annihilator of a0 + ... + a9 in the exterior algebra on ten
    # generators is (b), of dimension C(9, n - 1) in degree n; built from
    # the d dense generator maps at p = 3 it peaked at 15.7 MB, from the
    # stored products at 2.0 MB
    ctx = build_algebra(complete(10), 3)
    b = from_coeffs(ctx, 1, [1] * 10)
    tracemalloc.start()
    try:
        ann = annihilator(ctx, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [ann.piece(n).rank for n in range(1, 11)] == [math.comb(9, n - 1) for n in range(1, 11)]
    assert "gen_maps" not in vars(ctx)
    assert peak < 5 * 10**6, peak
