import itertools

import pytest

from conftest import complete, cone_over_path, five_vertex_cone_like, path4, square4, star
from koszulity.algebra import (
    build_algebra,
    element_string,
    generator,
    monomial_element,
    monomial_string,
    multiply,
)
from koszulity.errors import InputError
from koszulity.graphs import (
    ConeNode,
    DiagonalViolation,
    build_graph,
    nonisomorphic_graphs,
)
from koszulity.ideals import (
    annihilator,
    colon_ideal,
    element_in_ideal,
    ideal_from_degree_one,
    monomial_ideal_basis,
)
from koszulity.koszul import (
    classify,
    non_universal_witness,
    strong_koszul_check,
    universal_koszul_bruteforce,
    universal_koszul_fast,
)


def gaussian_number(p, d):
    """Total number of subspaces of F_p^d, all dimensions combined."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def projective_points(p, d):
    return (p**d - 1) // (p - 1)


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
    colon = annihilator(ctx, generator(ctx, 1))
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
                        c2 = colon_ideal(ctx2, i2, generator(ctx2, u))
                        c3 = colon_ideal(ctx3, i3, generator(ctx3, u))
                        assert [s.pivots for s in c2.pieces] == [
                            s.pivots for s in c3.pieces
                        ]
                        assert [s.rows for s in c2.pieces] == [s.rows for s in c3.pieces]


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
    assert out.ideals_enumerated == gaussian_number(2, 4)
    # each proper subspace U contributes the nonzero classes of A1/U
    total = sum(
        projective_points(2, 4 - k)
        for k in range(4)
        for _ in range(_subspace_count_of_rank(2, 4, k))
    )
    assert out.divisors_checked == total


def _subspace_count_of_rank(p, d, k):
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (k - i) - 1
    return num // den


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
        assert out.ideals_enumerated == gaussian_number(p, 3)


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


def test_witness_certificate_is_exact():
    for n in (4, 5):
        for g in nonisomorphic_graphs(n):
            if universal_koszul_fast(g):
                continue
            for p in (2, 3):
                ctx = build_algebra(g, p)
                w = non_universal_witness(ctx)
                culprit = monomial_element(ctx, w.culprit)
                assert multiply(w.b, culprit).is_zero()
                ann = annihilator(ctx, w.b)
                regen = ideal_from_degree_one(ctx, ann.piece(1))
                assert element_in_ideal(culprit, ann)
                assert not element_in_ideal(culprit, regen)


def test_witness_requires_violation():
    with pytest.raises(InputError):
        non_universal_witness(build_algebra(cone_over_path(), 2))


def test_classify_star_runs_brute():
    report = classify(star(3), p=2)
    assert report.diagonal_property is True
    assert report.strong.passed and report.universal_fast is True
    assert report.universal_brute is True and report.witness is None
    assert report.pbw is True and report.dual_series_nonneg is True
    assert isinstance(report.decomposition, ConeNode)
    assert report.dims == (1, 4, 3)


def test_classify_brute_gating():
    # auto skips brute when the enumeration would be too large
    assert classify(complete(5), p=2, brute="auto").universal_brute is None
    assert classify(complete(5), p=2, brute="off").universal_brute is None
    assert classify(complete(3), p=3, brute="auto").universal_brute is True
    assert classify(complete(4), p=3, brute="auto").universal_brute is None
    forced = classify(complete(5), p=2, brute="on")
    assert forced.universal_brute is True
    with pytest.raises(InputError):
        classify(square4(), brute="sometimes")


def test_classify_square_carries_witness():
    report = classify(square4(), p=2)
    assert report.universal_fast is False
    assert report.witness is not None
    assert monomial_string(report.witness.culprit) == "a2*a3"
    assert isinstance(report.decomposition, DiagonalViolation)
    assert report.universal_brute is False
    assert report.brute_failure is not None


def test_classify_empty_graph_rejected():
    with pytest.raises(InputError):
        classify(build_graph(0, []))


def test_brute_verdict_independent_of_prime():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            v2 = universal_koszul_bruteforce(build_algebra(g, 2)).verdict
            v3 = universal_koszul_bruteforce(build_algebra(g, 3)).verdict
            assert v2 is v3
