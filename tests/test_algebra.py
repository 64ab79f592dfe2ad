import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, cone_over_path, path4, square4, star
from koszulity.algebra import (
    build_algebra,
    element_string,
    from_coeffs,
    generator,
    hilbert_series,
    koszul_numerical_check,
    monomial_element,
    monomial_string,
    multiply,
    normal_form,
    pbw_check,
    product_law_checks,
    unit,
    zero,
)
from koszulity.errors import InputError
from koszulity.graphs import (
    build_graph,
    cone,
    disjoint_union,
    enumerate_cliques,
    nonisomorphic_graphs,
)


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


def test_multiply_vanishing_cases():
    ctx = build_algebra(square4(), 2)
    a1, a3 = generator(ctx, 1), generator(ctx, 3)
    assert multiply(a1, a3).is_zero()
    assert multiply(a1, a1).is_zero()


def test_multiply_sign_convention():
    ctx = build_algebra(complete(3), 3)
    a1, a2 = generator(ctx, 1), generator(ctx, 2)
    prod = multiply(a2, a1)
    # a2*a1 = -a1*a2; mod 3 the coefficient is 2 on the (1, 2) slot
    idx = ctx.basis(2).index((1, 2))
    assert prod.coeffs[idx] == 2
    assert multiply(a1, a2).coeffs[idx] == 1
    assert (multiply(a1, a2) + prod).is_zero()


def test_unit_is_identity():
    ctx = build_algebra(cone_over_path(), 5)
    one = unit(ctx)
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
                    assert multiply(x, x).is_zero()


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
                                rhs = multiply(y, x).scale(sign % p)
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
    assert multiply(x, y).coeffs == multiply(y, x).scale(sign % p).coeffs


def test_associativity_on_basis_triples():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 3)
            gens = [generator(ctx, v) for v in range(g.n)]
            for x, y, z in itertools.product(gens, repeat=3):
                lhs = multiply(multiply(x, y), z)
                rhs = multiply(x, multiply(y, z))
                assert lhs.degree == rhs.degree and lhs.coeffs == rhs.coeffs


def coeff_of(ctx, element, mono):
    return element.coeffs[ctx.basis(element.degree).index(mono)]


def test_normal_form_examples():
    ctx = build_algebra(cone_over_path(), 3)
    assert coeff_of(ctx, normal_form(ctx, (0, 1)), (0, 1)) == 1
    # one transposition flips the sign: -1 = 2 mod 3
    assert coeff_of(ctx, normal_form(ctx, (1, 0)), (0, 1)) == 2
    assert normal_form(ctx, (1, 1)).is_zero()
    assert normal_form(ctx, (1, 3)).is_zero()  # not an edge
    assert coeff_of(ctx, normal_form(ctx, (2, 0, 3)), (0, 2, 3)) == 2
    assert normal_form(ctx, ()).coeffs == (1,)


def test_normal_form_agrees_with_multiplication():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 3)
            for length in range(1, 5):
                for word in itertools.product(range(g.n), repeat=length):
                    out = normal_form(ctx, word)
                    prod = unit(ctx)
                    for v in word:
                        prod = multiply(prod, generator(ctx, v))
                    assert out.degree == prod.degree
                    assert out.coeffs == prod.coeffs


def test_hilbert_series_counts_cliques():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 2)
            h = hilbert_series(ctx)
            assert h == tuple(
                len(enumerate_cliques(g, k)) for k in range(len(h))
            )
            assert h[0] == 1 and h[1] == g.n


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


def test_numerical_check_matches_oracle_on_small_classes():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            h = hilbert_series(build_algebra(g, 2))
            inv = inverse_series_oracle(plus_minus_alternating(h), 12)
            expect = all(c >= 0 for c in inv)
            assert koszul_numerical_check(h, order=12) is expect


def test_numerical_check_input_validation():
    with pytest.raises(InputError):
        koszul_numerical_check((2, 1))
    with pytest.raises(InputError):
        koszul_numerical_check((1, 4, 5, 2), order=2)


def test_pbw_on_small_classes():
    for p in (2, 3):
        for n in range(1, 6):
            for g in nonisomorphic_graphs(n):
                assert pbw_check(build_algebra(g, p)) is True


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
    assert element_string(zero(ctx, 1)) == "0"
    assert element_string(unit(ctx)) == "1"
    assert monomial_string((2, 3)) == "a2*a3"
    assert monomial_string(()) == "1"
    ctx3 = build_algebra(square4(), 3)
    assert element_string(from_coeffs(ctx3, 1, (0, 2, 0, 1))) == "2*a1+a3"


def test_zero_element_with_degree_past_top():
    ctx = build_algebra(path4(), 2)
    a0, a1 = generator(ctx, 0), generator(ctx, 1)
    cubed = multiply(multiply(a0, a1), generator(ctx, 2))
    assert cubed.is_zero() and cubed.degree == 3
