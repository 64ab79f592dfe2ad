import copy
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    add,
    cliques_by_combinations,
    complete,
    cone,
    cone_over_path,
    disjoint_union,
    dual_dims_by_traces,
    generator_map,
    monomial_element,
    multiply,
    path4,
    product_law_checks,
    scale,
    square4,
    star,
)
from koszulity import algebra
from koszulity.algebra import (
    build_algebra,
    element_string,
    from_coeffs,
    koszul_numerical_check,
    monomial_string,
    pbw_check,
)
from koszulity.errors import InputError
from koszulity.graphs import build_graph, enumerate_cliques, nonisomorphic_graphs


def inverse_series_oracle(h, order):
    """Invert a power series with rational arithmetic, term by term."""
    coeffs = [Fraction(h[k]) if k < len(h) else Fraction(0) for k in range(order + 1)]
    inv = [Fraction(1)]
    for k in range(1, order + 1):
        inv.append(-sum(coeffs[j] * inv[k - j] for j in range(1, k + 1)))
    return inv


def plus_minus_alternating(h):
    return tuple(c if k % 2 == 0 else -c for k, c in enumerate(h))


def test_dims_golden_graph():
    ctx = build_algebra(cone_over_path(), 2)
    assert ctx.dims == (1, 4, 5, 2)


def test_dims_examples():
    assert build_algebra(square4(), 2).dims == (1, 4, 4)
    assert build_algebra(star(3), 3).dims == (1, 4, 3)
    assert build_algebra(build_graph(4, []), 2).dims == (1, 4)
    assert build_algebra(complete(5), 2).dims == (1, 5, 10, 10, 5, 1)


def test_basis_is_sorted_cliques():
    ctx = build_algebra(cone_over_path(), 2)
    assert ctx.basis(0) == ((),)
    assert ctx.basis(1) == ((0,), (1,), (2,), (3,))
    assert ctx.basis(2) == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert ctx.basis(3) == ((0, 1, 2), (0, 2, 3))


def test_generator_maps_agree_with_basis_product():
    graphs = [g for n in range(1, 5) for g in nonisomorphic_graphs(n)]
    for g in graphs + [complete(6), cone_over_path()]:
        ctx = build_algebra(g, 3)
        assert len(ctx.gen_maps) == ctx.D
        for n in range(ctx.D):
            for gen in range(ctx.dim(1)):
                images = ctx.gen_maps[n][gen]
                assert len(images) == ctx.dim(n)
                for i, image in enumerate(images):
                    hit = ctx.basis_product(1, gen, n, i)
                    assert image == (() if hit is None else ((hit[1], hit[0]),))


def test_dense_view_equals_the_inserted_vertex_maps():
    # gen_maps, derived from the stored products, against the maps found
    # by inserting each generator into each monomial, on every class of at
    # most 6 vertices
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for p in (2, 3):
                ctx = build_algebra(g, p)
                assert ctx.gen_maps == tuple(
                    tuple(generator_map(ctx, gen, k) for gen in range(n)) for k in range(ctx.D)
                )


def test_stored_products_number_n_plus_one_per_clique_of_size_n_plus_one():
    # a_g m is nonzero iff m + {g} is a clique, so each (n+1)-clique is a
    # product n + 1 times: d + 2(d - 1) on a tree such as the path or the
    # star on d vertices, d * 2**(d-1) on K_d, and the count from cliques
    # listed by k-subsets on seeded G(n, m)
    def stored(g):
        return sum(len(prods) for level in build_algebra(g, 2).products for prods in level)

    for d in (1, 2, 5, 40):
        assert stored(build_graph(d, [(i, i + 1) for i in range(d - 1)])) == 3 * d - 2
        assert stored(build_graph(d, [(0, v) for v in range(1, d)])) == 3 * d - 2
    for d in range(1, 9):
        assert stored(complete(d)) == d * 2 ** (d - 1)
    rng = random.Random(31)
    for d, m in ((8, 10), (10, 25), (12, 40), (14, 60)):
        g = build_graph(d, rng.sample(list(itertools.combinations(range(d), 2)), m))
        assert stored(g) == sum(
            k * len(cliques_by_combinations(g, k)) for k in range(1, d + 1)
        )


def test_multiply_vanishing_cases():
    ctx = build_algebra(square4(), 2)
    a1, a3 = monomial_element(ctx, (1,)), monomial_element(ctx, (3,))
    assert not any(multiply(a1, a3).coeffs)
    assert not any(multiply(a1, a1).coeffs)


def test_multiply_sign_convention():
    ctx = build_algebra(complete(3), 3)
    a1, a2 = monomial_element(ctx, (1,)), monomial_element(ctx, (2,))
    prod = multiply(a2, a1)
    # a2*a1 = -a1*a2; mod 3 the coefficient is 2 on the (1, 2) slot
    idx = ctx.basis(2).index((1, 2))
    assert prod.coeffs[idx] == 2
    assert multiply(a1, a2).coeffs[idx] == 1
    assert not any(add(multiply(a1, a2), prod).coeffs)


def test_unit_is_identity():
    ctx = build_algebra(cone_over_path(), 5)
    one = monomial_element(ctx, ())
    for n in range(len(ctx.dims)):
        for i in range(ctx.dim(n)):
            e = monomial_element(ctx, ctx.basis(n)[i])
            assert multiply(one, e).coeffs == e.coeffs
            assert multiply(e, one).coeffs == e.coeffs


def test_degree_one_squares_vanish():
    for p in (2, 3):
        for n in range(1, 5):
            for g in nonisomorphic_graphs(n):
                ctx = build_algebra(g, p)
                vecs = itertools.product(range(p), repeat=ctx.dim(1))
                for coeffs in vecs:
                    x = from_coeffs(ctx, 1, coeffs)
                    assert not any(multiply(x, x).coeffs)


def test_graded_commutativity_on_basis():
    for p in (2, 3):
        for n in range(1, 5):
            for g in nonisomorphic_graphs(n):
                ctx = build_algebra(g, p)
                top = len(ctx.dims) - 1
                for d1 in range(top + 1):
                    for d2 in range(top + 1):
                        for m1 in ctx.basis(d1):
                            for m2 in ctx.basis(d2):
                                x = monomial_element(ctx, m1)
                                y = monomial_element(ctx, m2)
                                sign = (-1) ** (d1 * d2)
                                lhs = multiply(x, y)
                                rhs = scale(multiply(y, x), sign % p)
                                assert lhs.coeffs == rhs.coeffs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graded_commutativity_random_elements(data):
    p = data.draw(st.sampled_from([2, 3]), label="p")
    n = data.draw(st.integers(2, 4), label="n")
    graphs = nonisomorphic_graphs(n)
    g = data.draw(st.sampled_from(graphs), label="graph")
    ctx = build_algebra(g, p)
    top = len(ctx.dims) - 1
    d1 = data.draw(st.integers(0, top), label="d1")
    d2 = data.draw(st.integers(0, top), label="d2")
    cs1 = data.draw(st.tuples(*[st.integers(0, p - 1)] * ctx.dim(d1)))
    cs2 = data.draw(st.tuples(*[st.integers(0, p - 1)] * ctx.dim(d2)))
    x, y = from_coeffs(ctx, d1, cs1), from_coeffs(ctx, d2, cs2)
    sign = (-1) ** (d1 * d2)
    assert multiply(x, y).coeffs == scale(multiply(y, x), sign % p).coeffs


def test_associativity_on_basis_triples():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 3)
            gens = [monomial_element(ctx, (v,)) for v in range(g.n)]
            for x, y, z in itertools.product(gens, repeat=3):
                lhs = multiply(multiply(x, y), z)
                rhs = multiply(x, multiply(y, z))
                assert lhs.degree == rhs.degree and lhs.coeffs == rhs.coeffs


def test_hilbert_series_counts_cliques():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 2)
            h = ctx.dims
            assert h == tuple(
                len(cliques_by_combinations(g, k)) for k in range(len(h))
            )
            assert cliques_by_combinations(g, len(h)) == []
            assert h[0] == 1 and h[1] == g.n


def test_build_algebra_lists_cliques_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_cliques(*args)

    monkeypatch.setattr(algebra, "enumerate_cliques", counting)
    ctx = build_algebra(complete(5), 2)
    assert ctx.D == 5 and len(calls) == 1


def test_numerical_check_point_algebra():
    assert koszul_numerical_check((1, 1)) is True


def test_numerical_check_square_series_coefficients():
    h = (1, 4, 4)
    assert koszul_numerical_check(h) is True
    # independent rational-arithmetic inversion of H(-t): 1/(1 - 4t + 4t^2)
    inv = inverse_series_oracle(plus_minus_alternating(h), 12)
    assert all(c == int(c) and c >= 0 for c in inv)
    assert [int(c) for c in inv[:5]] == [1, 4, 12, 32, 80]  # (k+1)*2^k


def test_numerical_check_detects_negative_coefficient():
    # 1/(1 - t + t^2) has a -1 at t^3
    assert koszul_numerical_check((1, 1, 1)) is False
    inv = inverse_series_oracle(plus_minus_alternating((1, 1, 1)), 3)
    assert inv[3] == -1
    # the kept decision is per (H, order), whatever sequence H comes in
    assert koszul_numerical_check([1, 1, 1], order=2) is True
    assert koszul_numerical_check([1, 1, 1], order=3) is False
    assert koszul_numerical_check((1, 1, 1), order=2) is True


def test_numerical_check_matches_oracle_on_small_classes():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            h = build_algebra(g, 2).dims
            inv = inverse_series_oracle(plus_minus_alternating(h), 12)
            expect = all(c >= 0 for c in inv)
            assert koszul_numerical_check(h, order=12) is expect


def _dual_series_matches_traces(g, h) -> bool:
    """Whether 1/H(-t), through the default order, is the trace count of
    g's Koszul dual, coefficient by coefficient."""
    order = max(12, len(h) - 1)
    inv = inverse_series_oracle(plus_minus_alternating(h), order)
    return inv == dual_dims_by_traces(g, order)


def _golden_graphs():
    """The graphs of perfbench/golden/analyze_*.txt: K7, C8 and P10."""
    return [
        build_graph(7, itertools.combinations(range(7), 2)),
        build_graph(8, [(i, (i + 1) % 8) for i in range(8)]),
        build_graph(10, [(i, i + 1) for i in range(9)]),
    ]


def test_dual_series_counts_the_traces_of_the_koszul_dual():
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [complete(n) for n in range(1, 15)] + _golden_graphs()
    for g in graphs:
        h = build_algebra(g, 2).dims
        assert _dual_series_matches_traces(g, h), (g, h)
        assert koszul_numerical_check(h) is True


def test_dual_series_comparison_sees_one_changed_coefficient():
    for g in [square4(), cone_over_path(), complete(5)] + _golden_graphs():
        h = build_algebra(g, 3).dims
        assert _dual_series_matches_traces(g, h)
        for k in range(1, len(h)):
            for delta in (1, -1):
                changed = h[:k] + (h[k] + delta,) + h[k + 1:]
                assert not _dual_series_matches_traces(g, changed), (g, k, delta)


def test_numerical_check_default_order_covers_the_top_degree():
    # K13: H = (1 + t)**13, top degree 13 above the floor of 12
    h = tuple(math.comb(13, k) for k in range(14))
    assert koszul_numerical_check(h) is True


def test_numerical_check_input_validation():
    with pytest.raises(InputError):
        koszul_numerical_check((2, 1))
    with pytest.raises(InputError):
        koszul_numerical_check((1, 4, 5, 2), order=2)
    # the errors come before the kept decision, on lists too
    assert koszul_numerical_check([1, 4, 5, 2], order=3) is True
    with pytest.raises(InputError):
        koszul_numerical_check([1, 4, 5, 2], order=2)
    with pytest.raises(InputError):
        koszul_numerical_check([2, 1])


def test_pbw_on_small_classes():
    for p in (2, 3):
        for n in range(1, 6):
            for g in nonisomorphic_graphs(n):
                assert pbw_check(build_algebra(g, p)) is True


def with_bases(ctx, bases):
    """A copy of ctx whose bases are replaced, with index and dims rebuilt."""
    out = copy.copy(ctx)
    out.bases = bases
    out.D = len(bases) - 1
    out.index = tuple({m: i for i, m in enumerate(basis)} for basis in bases)
    out.dims = tuple(len(basis) for basis in bases)
    return out


def test_pbw_rejects_a_basis_that_is_not_the_cliques():
    # cone over the path 1-2-3: degree 2 is ((0, 1), (0, 2), (0, 3), (1, 2),
    # (2, 3)); (0, 2) and the non-edge (1, 3) both have two common
    # neighbours, and (0, 1) and (0, 3) one each, so the swaps below keep
    # every count and only the entry checks can catch them
    ctx = build_algebra(cone_over_path(), 3)
    b = ctx.bases
    assert pbw_check(with_bases(ctx, b)) is True

    def replaced(old, *new):
        """The bases with the degree-2 entry old replaced by the entries new."""
        two = tuple(x for m in b[2] for x in (new if m == old else (m,)))
        return b[:2] + (two,) + b[3:]

    corrupted = {
        "drops a clique": replaced((0, 1)),
        "gains the non-edge (1, 3)": replaced((2, 3), (2, 3), (1, 3)),
        "repeats an entry": replaced((0, 1), (0, 1), (0, 1)),
        "swaps (0, 2) for the non-edge (1, 3)": replaced((0, 2), (1, 3)),
        "repeats (0, 3) in place of (0, 1)": replaced((0, 1), (0, 3)),
        "lists (0, 1) as (1, 0)": replaced((0, 1), (1, 0)),
        "repeats a vertex": replaced((2, 3), (2, 2)),
        "stops below the top degree": b[:3],
        "lists nothing, not even the unit": ((),),
    }
    for what, bases in corrupted.items():
        assert pbw_check(with_bases(ctx, bases)) is False, what


def test_pbw_on_k14_is_fast():
    # 16,384 cliques; testing all of them as words took seconds
    ctx = build_algebra(complete(14), 2)
    start = time.perf_counter()
    assert pbw_check(ctx) is True
    assert time.perf_counter() - start < 1.0


def test_product_laws_union_and_cone():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    k1 = build_graph(1, [])
    assert product_law_checks(p3, k1, p=2) is True
    assert build_algebra(disjoint_union(p3, k1), 2).dims == (1, 4, 2)
    assert build_algebra(cone(p3), 2).dims == (1, 4, 5, 2)


def test_product_laws_on_class_pairs():
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            for g1 in nonisomorphic_graphs(n1):
                for g2 in nonisomorphic_graphs(n2):
                    assert product_law_checks(g1, g2, p=3) is True


def test_element_and_monomial_strings():
    ctx = build_algebra(square4(), 2)
    assert element_string(from_coeffs(ctx, 1, (1, 1, 0, 0))) == "a0+a1"
    assert element_string(from_coeffs(ctx, 1, (0,) * 4)) == "0"
    assert element_string(monomial_element(ctx, ())) == "1"
    assert monomial_string((2, 3)) == "a2*a3"
    assert monomial_string(()) == "1"
    ctx3 = build_algebra(square4(), 3)
    assert element_string(from_coeffs(ctx3, 1, (0, 2, 0, 1))) == "2*a1+a3"


def test_zero_element_with_degree_past_top():
    ctx = build_algebra(path4(), 2)
    a0, a1 = monomial_element(ctx, (0,)), monomial_element(ctx, (1,))
    cubed = multiply(multiply(a0, a1), monomial_element(ctx, (2,)))
    assert not any(cubed.coeffs) and cubed.degree == 3
