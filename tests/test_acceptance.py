"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a single PASS or FAIL
line through the shared recorder, printed again in the terminal summary.
All values are computed exactly over F_p; timed criteria assert their
stated budget.
"""

import functools
import itertools
import time

from conftest import (
    add,
    cone,
    degree_one_span,
    disjoint_union,
    monomial_element,
    multiply,
    product_law_checks,
    reconstruct,
    record_criterion,
    star,
    subspace_count,
)
from koszulity.algebra import build_algebra, from_coeffs, koszul_numerical_check, pbw_check
from koszulity.gfp import rref
from koszulity.graphs import (
    DiagonalViolation,
    build_graph,
    diagonal_violation,
    elementary_type_decomposition,
    nonisomorphic_graphs,
)
from koszulity.ideals import (
    annihilator,
    element_in_ideal,
    ideal_from_degree_one,
    monomial_ideal_basis,
)
from koszulity.koszul import (
    strong_koszul_check,
    universal_koszul_bruteforce,
    universal_koszul_fast,
)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                record_criterion(f"[criterion {number}] FAIL - {label}")
                raise
            record_criterion(f"[criterion {number}] PASS - {detail}")

        return run

    return wrap


SQUARE = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PATH = build_graph(4, [(0, 1), (1, 2), (2, 3)])
GOLDEN = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


@criterion(1, "strong Koszulity on all small isomorphism classes")
def test_criterion_1_strong_koszul():
    start = time.perf_counter()
    cases = 0
    classes_le4 = [g for n in range(1, 5) for g in nonisomorphic_graphs(n)]
    assert len(classes_le4) == 18
    classes_5 = nonisomorphic_graphs(5)
    assert len(classes_5) == 34
    jobs = [(g, p) for g in classes_le4 for p in (2, 3)]
    jobs += [(g, 2) for g in classes_5]
    pairs_total = 0
    for g, p in jobs:
        report = strong_koszul_check(build_algebra(g, p))
        assert report.passed, (g, p, report.failures[:1])
        assert report.pairs_checked == g.n * 2 ** (g.n - 1)
        pairs_total += report.pairs_checked
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return (
        f"{cases} graph/prime cases, {pairs_total} colon pairs, "
        f"all generator sets matched the closed form, {elapsed:.1f}s"
    )


@criterion(2, "brute-force universal Koszulity matches the graph criterion")
def test_criterion_2_universal_equivalence():
    start = time.perf_counter()
    jobs = [
        (g, p) for n in range(1, 5) for g in nonisomorphic_graphs(n) for p in (2, 3)
    ]
    jobs += [(g, 2) for g in nonisomorphic_graphs(5)]
    mismatches = 0
    for g, p in jobs:
        brute = universal_koszul_bruteforce(build_algebra(g, p)).verdict
        if brute is not universal_koszul_fast(g):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    return f"{len(jobs)} graph/prime cases, 0 mismatches, {elapsed:.1f}s"


@criterion(3, "square and path witness certificates")
def test_criterion_3_witness_reproduction():
    for g in (SQUARE, PATH):
        for p in (2, 3):
            ctx = build_algebra(g, p)
            b = add(monomial_element(ctx, (0,)), monomial_element(ctx, (3,)))
            culprit = monomial_element(ctx, (1, 2))
            assert not any(multiply(b, culprit).coeffs)
            ann = annihilator(ctx, b)
            assert element_in_ideal(culprit, ann)
            # independent route: span the degree-2 multiples of Ann(b)_1
            # directly and check the culprit vector stays outside
            products = []
            for row in ann.piece(1).rows:
                x = from_coeffs(ctx, 1, row)
                for v in range(g.n):
                    products.append(multiply(x, monomial_element(ctx, (v,))).coeffs)
            span = rref(products, p, ambient_dim=ctx.dim(2))
            assert not span.member(culprit.coeffs)
            regen = ideal_from_degree_one(ctx, ann.piece(1))
            assert not element_in_ideal(culprit, regen)
    return "b*a1a2 = 0 and a1a2 outside (Ann(b)_1)*A_1 on both graphs, p in {2,3}"


@criterion(4, "golden cone-over-path example")
def test_criterion_4_golden_example():
    ctx = build_algebra(GOLDEN, 2)
    assert ctx.dims == (1, 4, 5, 2)
    assert annihilator(ctx, monomial_element(ctx, (2,))).piece(1).rows == ((0, 0, 1, 0),)
    ann3 = annihilator(ctx, monomial_element(ctx, (3,)))
    assert ann3.piece(1).rows == ((0, 1, 0, 0), (0, 0, 0, 1))
    assert ctx.basis(2) == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    expected = tuple(
        tuple(1 if j == i else 0 for j in range(5)) for i in (0, 2, 3, 4)
    )  # a0a1, a0a3, a1a2, a2a3
    assert ann3.piece(2).rows == expected
    out = universal_koszul_bruteforce(ctx)
    assert out.verdict is True
    return "dims (1,4,5,2), both annihilators exact, brute-force verdict true"


@criterion(5, "stars with two and three leaves are universally Koszul")
def test_criterion_5_stars():
    checked = []
    for leaves in (2, 3):
        for p in (2, 3):
            out = universal_koszul_bruteforce(build_algebra(star(leaves), p))
            assert out.verdict is True and out.failure is None
            assert out.ideals_enumerated == subspace_count(p, leaves + 1)
            checked.append(out.divisors_checked)
    return (
        "every colon over the full ideal enumeration is 1-generated; "
        f"divisor counts {checked}"
    )


@criterion(6, "closed-form monomial ideals equal generated ideals")
def test_criterion_6_monomial_ideal_equivalence():
    start = time.perf_counter()
    subsets_checked = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            ctx = build_algebra(g, 2)
            for r in range(g.n + 1):
                for s in itertools.combinations(range(g.n), r):
                    direct = monomial_ideal_basis(ctx, s)
                    u = degree_one_span(ctx, *[(v,) for v in s])
                    generated = ideal_from_degree_one(ctx, u)
                    assert direct.pieces == generated.pieces
                    subsets_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return f"{subsets_checked} generator subsets across 208 classes, {elapsed:.1f}s"


@criterion(7, "PBW property on all classes through six vertices")
def test_criterion_7_pbw():
    cases = 0
    for p in (2, 3):
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                assert pbw_check(build_algebra(g, p)) is True
                cases += 1
    return f"ordered clique monomials form bases in {cases} graph/prime cases"


@criterion(8, "inverted alternating Hilbert series stays nonnegative")
def test_criterion_8_dual_series():
    cases = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            h = build_algebra(g, 2).dims
            assert koszul_numerical_check(h, order=12) is True
            cases += 1
    return f"1/H(-t) nonnegative through order 12 for all {cases} classes"


@criterion(9, "decomposition succeeds exactly on diagonal-property graphs")
def test_criterion_9_decomposition():
    start = time.perf_counter()
    built = failed = 0
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            out = elementary_type_decomposition(g)
            if isinstance(out, DiagonalViolation):
                assert diagonal_violation(g) is not None
                quad = (out.v1, out.v2, out.v3, out.v4)
                assert len(set(quad)) == 4
                failed += 1
            else:
                assert diagonal_violation(g) is None
                assert reconstruct(out, g.n) == g
                built += 1
    assert built + failed == 1252
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return (
        f"{built} graphs rebuilt exactly, {failed} rejected with a violation, "
        f"{elapsed:.1f}s"
    )


@criterion(10, "union and cone dimension laws")
def test_criterion_10_product_laws():
    pairs = 0
    for n1 in range(1, 4):
        for n2 in range(1, 4 - n1 + 1):
            for g1 in nonisomorphic_graphs(n1):
                for g2 in nonisomorphic_graphs(n2):
                    for p in (2, 3):
                        assert product_law_checks(g1, g2, p=p) is True
                        pairs += 1
    return f"additivity and cone recurrence hold for {pairs} pair/prime cases"


@criterion(11, "brute-force union conjunction and cone preservation")
def test_criterion_11_composites():
    unions = 0
    for n1 in range(1, 4):
        for n2 in range(1, 4 - n1 + 1):
            for g1 in nonisomorphic_graphs(n1):
                for g2 in nonisomorphic_graphs(n2):
                    u = disjoint_union(g1, g2)
                    vu = universal_koszul_bruteforce(build_algebra(u, 2)).verdict
                    v1 = universal_koszul_bruteforce(build_algebra(g1, 2)).verdict
                    v2 = universal_koszul_bruteforce(build_algebra(g2, 2)).verdict
                    assert vu is (v1 and v2)
                    unions += 1
    # the conjunction law also holds when one side genuinely fails
    square_plus_point = disjoint_union(SQUARE, build_graph(1, []))
    assert universal_koszul_bruteforce(
        build_algebra(square_plus_point, 2)
    ).verdict is False
    cones = 0
    for n in range(1, 4):
        for g in nonisomorphic_graphs(n):
            base = universal_koszul_bruteforce(build_algebra(g, 2)).verdict
            assert base is True
            lifted = universal_koszul_bruteforce(build_algebra(cone(g), 2)).verdict
            assert lifted is True
            cones += 1
    return (
        f"{unions} unions follow the conjunction law (plus one failing case), "
        f"{cones} cones preserve a true verdict"
    )
