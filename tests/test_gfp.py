import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulity.errors import InputError, ResourceLimitError
from koszulity.gfp import (
    Prime,
    RowSpace,
    _dense_pivots,
    _eliminate,
    _kernel_dense,
    _reduce_dense,
    contains,
    coordinate_space,
    enumerate_coset_reps_mod_scalar,
    enumerate_subspaces,
    enumerate_vectors_mod_scalar,
    full_space,
    image_kernel,
    kernel,
    member,
    rref,
    span,
    subspace_sum,
    zero_space,
)


def gaussian_subspace_count(p, d):
    # independent oracle: sum of Gaussian binomials via the product formula
    total = 0
    for r in range(d + 1):
        num = den = 1
        for i in range(r):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def test_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 97):
        assert Prime(p) == p


def test_prime_rejects_nonprimes_and_range():
    for bad in (0, 1, 4, 6, 9, 91, 98, 100, -3):
        with pytest.raises(InputError):
            Prime(bad)


def test_rref_mod3_example():
    s = rref([(2, 1, 0), (0, 1, 1)], 3)
    assert s.rows == ((1, 0, 1), (0, 1, 1))


def test_rref_duplicates_mod2():
    s = rref([(1, 1, 0), (1, 1, 0)], 2)
    assert s.rows == ((1, 1, 0),)
    assert s.rank == 1


def test_rref_empty_matrix():
    s = rref([], 2, ambient_dim=3)
    assert s.rank == 0 and s.ambient_dim == 3


def test_rref_rejects_ragged_rows():
    with pytest.raises(InputError):
        rref([(1, 0), (1,)], 2)
    with pytest.raises(InputError):
        rref([], 2)  # ambient dimension unknown


matrices = st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, 5).flatmap(
            lambda w: st.lists(
                st.lists(st.integers(0, p - 1), min_size=w, max_size=w),
                min_size=1,
                max_size=6,
            )
        ),
    )
)


@given(matrices)
@settings(max_examples=120)
def test_rref_idempotent_and_span_preserving(case):
    p, rows = case
    s = rref(rows, p)
    again = rref(s.rows, p, s.ambient_dim)
    assert again == s
    for r in rows:
        assert s.member(r)


@given(matrices, st.randoms(use_true_random=False))
@settings(max_examples=120)
def test_rref_canonical_under_row_operations(case, rng):
    p, rows = case
    s = rref(rows, p)
    mixed = [list(r) for r in rows]
    for _ in range(6):
        i = rng.randrange(len(mixed))
        j = rng.randrange(len(mixed))
        c = rng.randrange(1, p)
        if i == j:
            mixed[i] = [(c * x) % p for x in mixed[i]]
        else:
            mixed[i] = [(a + c * b) % p for a, b in zip(mixed[i], mixed[j])]
    rng.shuffle(mixed)
    assert rref(mixed, p) == s


def test_kernel_examples():
    # x0 + x1 = 0 over F2
    k = kernel([(1,), (1,)], 2)
    assert k.rows == ((1, 1),)
    # identity map on F3^2 has trivial kernel
    assert kernel([(1, 0), (0, 1)], 3).rank == 0
    # zero map on F2^4 has full kernel
    assert kernel([(0,), (0,), (0,), (0,)], 2).rank == 4
    # empty domain
    assert kernel([], 2, codomain_dim=3).rank == 0


def test_kernel_rank_nullity_exhaustive_f2():
    for a in range(1, 5):
        for b in range(1, 5):
            for bits in range(2 ** (a * b)):
                m = [
                    [(bits >> (i * b + j)) & 1 for j in range(b)]
                    for i in range(a)
                ]
                assert rref(m, 2).rank + kernel(m, 2).rank == a


@given(
    st.integers(2, 5).filter(lambda p: p in (2, 3, 5)),
    st.integers(1, 4),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80)
def test_kernel_rank_nullity_random(p, a, b, rng):
    m = [[rng.randrange(p) for _ in range(b)] for _ in range(a)]
    k = kernel(m, p)
    assert rref(m, p).rank + k.rank == a
    for row in k.rows:
        image = [
            sum(row[i] * m[i][j] for i in range(a)) % p for j in range(b)
        ]
        assert not any(image)


def test_subspace_counts_match_gaussian_binomials():
    for p in (2, 3):
        for d in range(5):
            spaces = list(enumerate_subspaces(p, d))
            assert len(spaces) == gaussian_subspace_count(p, d)
            assert len({s.rows for s in spaces}) == len(spaces)


def test_subspace_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        next(enumerate_subspaces(2, 21))
    with pytest.raises(ResourceLimitError):
        next(enumerate_vectors_mod_scalar(3, 13))


def test_membership_agrees_with_explicit_span_f2():
    for d in range(4):
        vectors = list(itertools.product(range(2), repeat=d))
        for s in enumerate_subspaces(2, d):
            span = set()
            for coeffs in itertools.product(range(2), repeat=s.rank):
                v = tuple(
                    sum(c * row[i] for c, row in zip(coeffs, s.rows)) % 2
                    for i in range(d)
                )
                span.add(v)
            assert {v for v in vectors if member(v, s)} == span


def test_vectors_mod_scalar_counts_and_normalization():
    for p in (2, 3):
        for d in range(5):
            reps = list(enumerate_vectors_mod_scalar(p, d))
            assert len(reps) == (p**d - 1) // (p - 1)
            seen = set()
            for v in reps:
                lead = next(x for x in v if x)
                assert lead == 1
                orbit = frozenset(
                    tuple((c * x) % p for x in v) for c in range(1, p)
                )
                assert orbit not in seen
                seen.add(orbit)


def test_coset_reps_mod_scalar():
    for p in (2, 3):
        for s in enumerate_subspaces(p, 3):
            reps = list(enumerate_coset_reps_mod_scalar(s))
            k = s.rank
            assert len(reps) == (p ** (3 - k) - 1) // (p - 1)
            for v in reps:
                assert s.reduce(v) == v  # already reduced
                assert not s.member(v)


def test_sum_and_contains():
    a = rref([(1, 0, 0)], 2)
    b = rref([(0, 1, 0)], 2)
    s = subspace_sum(a, b)
    assert s.rank == 2
    assert contains(s, a) and contains(s, b)
    assert not contains(a, b)
    assert contains(full_space(2, 3), s)
    assert contains(s, zero_space(2, 3))


def test_dimension_mismatch_errors():
    a = rref([(1, 0)], 2)
    b = rref([(1, 0, 0)], 2)
    with pytest.raises(InputError):
        subspace_sum(a, b)
    with pytest.raises(InputError):
        a.member((1, 0, 0))
    with pytest.raises(InputError):
        subspace_sum(a, rref([(1, 0)], 3))


def test_rowspace_equality_is_span_equality():
    s1 = rref([(1, 1, 0), (0, 1, 1)], 2)
    s2 = rref([(1, 0, 1), (0, 1, 1)], 2)  # same span, different spanning set
    assert s1 == s2
    assert isinstance(s1, RowSpace)


# -- the packed p = 2 route against the dense reference run at p = 2 ----------


def dense_rref(rows, width):
    return tuple(_eliminate([[x % 2 for x in r] for r in rows], width, 2))


def dense_reduce(ref_rows, vec):
    v = [x % 2 for x in vec]
    return tuple(_reduce_dense(ref_rows, _dense_pivots(ref_rows), v, 2))


def sparse(vec):
    return [(j, x) for j, x in enumerate(vec) if x]


# Widths run past 64, the size of one machine word (dim A_4 of K8 is 70).
# Rows are sums of a few random base rows, so that dependent rows and
# nonzero kernels are common.
f2_cases = st.tuples(
    st.integers(1, 80), st.integers(0, 14), st.randoms(use_true_random=False)
)


def f2_matrix(width, nrows, rng):
    base = [[rng.randrange(2) for _ in range(width)] for _ in range(rng.randint(1, 6))]
    rows = []
    for _ in range(nrows):
        row = [0] * width
        for b in base:
            if rng.randrange(2):
                row = [x ^ y for x, y in zip(row, b)]
        rows.append(row)
    return rows


@given(f2_cases)
@settings(max_examples=150, deadline=None)
def test_packed_f2_matches_dense_reference(case):
    width, nrows, rng = case
    rows = f2_matrix(width, nrows, rng)
    ref = dense_rref(rows, width)
    s = rref(rows, 2, width)
    assert s.rows == ref and s.rank == len(ref)
    assert s.pivots == _dense_pivots(ref)
    assert span(2, width, [sparse(r) for r in rows]) == s
    # equality and hash agree between trusted rows and elimination
    trusted = RowSpace(2, width, ref)
    assert trusted == s and hash(trusted) == hash(s)
    assert RowSpace(2, width, s.rows) == s
    # members (rows and sums of two rows) and, mostly, non-members
    probes = rows[:3] + [[x ^ y for x, y in zip(a, b)] for a, b in zip(rows, rows[1:4])]
    probes += f2_matrix(width, 4, rng)
    for v in probes:
        assert s.reduce(v) == dense_reduce(ref, v)
        assert s.member(v) == (not any(dense_reduce(ref, v)))
        assert s.member_sparse(sparse(v)) == s.member(v)
    if rows:
        k = kernel(rows, 2)
        assert k.rows == tuple(_kernel_dense(rows, len(rows), width, 2))
        assert k.rank + s.rank == len(rows)


@given(f2_cases, st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_packed_image_kernel_matches_dense_quotient(case, nmod):
    width, nrows, rng = case
    images = f2_matrix(width, nrows, rng)
    target = rref(f2_matrix(width, nmod, rng), 2, width)
    got = image_kernel(2, nrows, [sparse(v) for v in images], target)
    # reference: reduce against the target, keep its non-pivot columns
    ref_rows = tuple(tuple(r) for r in target.rows)
    keep = [c for c in range(width) if c not in set(target.pivots)]
    matrix = [[dense_reduce(ref_rows, v)[c] for c in keep] for v in images]
    assert got.rows == tuple(_kernel_dense(matrix, nrows, len(keep), 2))
    for x in got.rows:
        image = [sum(x[i] * images[i][j] for i in range(nrows)) % 2 for j in range(width)]
        assert target.member(image)


def test_sparse_interface_at_odd_p():
    s = span(3, 4, [[(0, 1), (2, 2)], [(1, 1), (1, 1)], [(0, 2), (2, 1)]])
    assert s == rref([(1, 0, 2, 0), (0, 2, 0, 0)], 3)
    assert s.sparse_rows() == (((0, 1), (2, 2)), ((1, 1),))
    assert s.member_sparse([(0, 2), (2, 1)]) and not s.member_sparse([(3, 1)])
    assert coordinate_space(3, 4, [2, 0, 2]).rows == ((1, 0, 0, 0), (0, 0, 1, 0))
    # x -> (x0 + x1) e_0 modulo span(e_0) is zero, modulo nothing it is not
    assert image_kernel(3, 2, [[(0, 1)], [(0, 1)]], zero_space(3, 1)).rows == ((1, 2),)
    assert image_kernel(3, 2, [[(0, 1)], [(0, 1)]], full_space(3, 1)).rank == 2


def test_rowspace_is_immutable_and_picklable():
    import copy
    import pickle

    for p in (2, 3):
        s = rref([(1, 1, 0), (0, 1, 1)], p)
        with pytest.raises(AttributeError):
            s.p = 5
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.deepcopy(s) == s
