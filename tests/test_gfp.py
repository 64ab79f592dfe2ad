import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cases,
    complete,
    contains,
    first_divisors_by_stabiliser,
    space_of_rows,
    sparse_rows,
    span,
    star,
    subspace_count,
)
from koszulity.algebra import build_algebra
from koszulity.errors import InputError, ResourceLimitError
from koszulity.gfp import (
    Prime,
    RowSpace,
    _eliminate,
    _reduce_dense,
    combine_maps,
    coordinate_space,
    enumerate_coset_reps_mod_scalar,
    enumerate_subspaces,
    enumerate_vectors_mod_scalar,
    first_subspaces,
    full_space,
    image_basis,
    image_fills,
    image_kernel,
    image_span,
    kernel,
    map_kernel,
    map_rank,
    native_vectors,
    permute_coordinates,
    quotient_maps,
    rref,
    scale_first,
    zero_space,
)
from koszulity.graphs import build_graph
from koszulity.ideals import ideal_from_degree_one


def test_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 97):
        assert Prime(p) == p


def test_prime_rejects_nonprimes_and_range():
    for bad in (0, 1, 4, 6, 9, 91, 98, 100, -3):
        with pytest.raises(InputError):
            Prime(bad)
    # a non-integer is refused, not truncated to a prime
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(InputError, match="integer"):
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
            assert len(spaces) == subspace_count(p, d)
            assert len({s.rows for s in spaces}) == len(spaces)


def _subspaces_by_dense_rows(p, d):
    # the enumeration order built from dense rows, one RowSpace each
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, d)
                if j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * d for _ in range(r)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield space_of_rows(p, d, rows)


def test_subspace_enumeration_matches_the_dense_construction():
    # at p = 2 the packed rows are built directly; the order must not move
    for p, top in ((2, 6), (3, 4), (5, 3)):
        for d in range(top + 1):
            got = list(enumerate_subspaces(p, d))
            want = list(_subspaces_by_dense_rows(p, d))
            assert [s.basis for s in got] == [s.basis for s in want], (p, d)
            assert got == want and len(got) == subspace_count(p, d)
            # each is a canonical RREF: re-eliminating its rows changes nothing
            assert all(rref(s.rows, p, ambient_dim=d) == s for s in got)


def test_subspace_enumeration_guard():
    with pytest.raises(ResourceLimitError, match="= 2097152 exceeds"):
        next(enumerate_subspaces(2, 21))
    with pytest.raises(ResourceLimitError):
        next(enumerate_vectors_mod_scalar(3, 13))
    # counts are exact through 2**64, then bounded: Python refuses to
    # write an int of more than 4300 digits
    with pytest.raises(ResourceLimitError, match="= 18446744073709551616 exceeds"):
        next(enumerate_subspaces(2, 64))
    for d, k in ((65, 64), (20000, 19999)):
        with pytest.raises(ResourceLimitError, match=f"= more than 2\\*\\*{k} exceeds"):
            next(enumerate_subspaces(2, d))


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
            assert {v for v in vectors if s.member(v)} == span


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
    s = rref(a.rows + b.rows, 2)
    assert s.rank == 2
    assert contains(s, a) and contains(s, b)
    assert not contains(a, b)
    assert contains(full_space(2, 3), s)
    assert contains(s, zero_space(2, 3))


def test_dimension_mismatch_errors():
    a = rref([(1, 0)], 2)
    b = rref([(1, 0, 0)], 2)
    with pytest.raises(InputError):
        rref(a.rows + b.rows, 2)
    with pytest.raises(InputError):
        a.member((1, 0, 0))


def test_rowspace_equality_is_span_equality():
    s1 = rref([(1, 1, 0), (0, 1, 1)], 2)
    s2 = rref([(1, 0, 1), (0, 1, 1)], 2)  # same span, different spanning set
    assert s1 == s2
    assert isinstance(s1, RowSpace)


# -- the packed p = 2 route against the dense reference run at p = 2 ----------


def _dense_pivots(rows):
    return tuple(next(i for i, x in enumerate(r) if x) for r in rows)


def dense_rref(rows, width):
    return tuple(_eliminate([[x % 2 for x in r] for r in rows], width, 2))


def dense_reduce(ref_rows, vec):
    v = [x % 2 for x in vec]
    return tuple(_reduce_dense(ref_rows, _dense_pivots(ref_rows), v, 2))


def sparse(vec):
    return [(j, x) for j, x in enumerate(vec) if x]


BRUTE_POINTS = 4096


def kernel_by_brute_force(p, images, target):
    """Every x in F_p^a whose image sum_i x_i images[i] (dense rows of
    length target.ambient_dim) lies in target, found by trying all p**a
    of them, as one RREF."""
    a = len(images)
    assert p**a <= BRUTE_POINTS
    points = [((), (0,) * target.ambient_dim)]
    for row in images:
        points = [
            (x + (c,), tuple((s + c * r) % p for s, r in zip(v, row)))
            for x, v in points
            for c in range(p)
        ]
    return rref([x for x, v in points if target.member(v)], p, ambient_dim=a)


def check_image_kernel(p, got, images, target):
    """got is the kernel of x -> sum_i x_i images[i] (dense rows) into
    F_p^m / target: a canonical RREF whose rows all map into target, of
    rank a - rank(images mod target), and equal to the brute-force
    kernel when F_p^a has at most BRUTE_POINTS points."""
    a, width = len(images), target.ambient_dim
    assert got.ambient_dim == a and rref(got.rows, p, ambient_dim=a) == got
    for x in got.rows:
        assert target.member(
            [sum(x[i] * images[i][j] for i in range(a)) % p for j in range(width)]
        )
    spanned = rref(list(images) + list(target.rows), p, ambient_dim=width)
    assert got.rank == a - (spanned.rank - target.rank)
    if p**a <= BRUTE_POINTS:
        assert got == kernel_by_brute_force(p, images, target)


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
    # equality and hash agree between trusted rows and elimination
    trusted = space_of_rows(2, width, ref)
    assert trusted == s and hash(trusted) == hash(s)
    assert space_of_rows(2, width, s.rows) == s
    # members (rows and sums of two rows) and, mostly, non-members
    probes = rows[:3] + [[x ^ y for x, y in zip(a, b)] for a, b in zip(rows, rows[1:4])]
    probes += f2_matrix(width, 4, rng)
    for v in probes:
        assert s.reduce(v) == dense_reduce(ref, v)
        assert s.member(v) == (not any(dense_reduce(ref, v)))
    if rows:
        k = kernel(rows, 2)
        check_image_kernel(2, k, rows, zero_space(2, width))
        assert k.rank + s.rank == len(rows)


@given(f2_cases, st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_packed_image_kernel_matches_dense_quotient(case, nmod):
    width, nrows, rng = case
    images = f2_matrix(width, nrows, rng)
    target = rref(f2_matrix(width, nmod, rng), 2, width)
    got = image_kernel(2, nrows, native_vectors(2, width, map(sparse, images)), target)
    check_image_kernel(2, got, images, target)


# -- image_kernel on monomial-shaped inputs against a direct reference -------


def densify(p, v, width):
    dense = [0] * width
    for k, c in v:
        dense[k] = (dense[k] + c) % p
    return dense


def monomial_case(p, width, nimages, rng):
    """A target that is a coordinate space or, about half the time, has one
    non-unit row; images that are empty or one term, with target indices
    drawn from a few columns (so they repeat) and coefficients that are
    sometimes multiples of p; in about a quarter of the cases some images
    have two terms."""
    non_unit = width > 1 and rng.randrange(2)
    rank = rng.randint(1, width - 1) if non_unit else rng.randint(0, width)
    pivots = sorted(rng.sample(range(width), rank))
    rows = [[int(j == c) for j in range(width)] for c in pivots]
    columns = rng.sample(range(width), rng.randint(1, width))
    if non_unit:
        # images also land on both columns of the non-unit row
        r = rng.randrange(rank)
        j = rng.choice([c for c in range(width) if c not in pivots])
        rows[r][j] = rng.randrange(1, p)
        columns += [pivots[r], j]
    target = rref(rows, p, width)
    two_terms = rng.randrange(4) == 0
    images = []
    for _ in range(nimages):
        kind = rng.randrange(6)
        if kind == 0:
            images.append([])
        elif kind == 1:
            images.append([(rng.choice(columns), p * rng.randint(-2, 2))])
        elif kind == 2 and two_terms:
            images.append([(rng.choice(columns), rng.randint(1, 4 * p))
                           for _ in range(2)])
        else:
            c = rng.choice([-1, 1, rng.randint(1, 3 * p)])
            images.append([(rng.choice(columns), c)])
    return target, images


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 10),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_monomial_image_kernel_matches_elimination(p, width, nimages, rng):
    target, images = monomial_case(p, width, nimages, rng)
    got = image_kernel(p, nimages, native_vectors(p, width, images), target)
    check_image_kernel(p, got, [densify(p, v, width) for v in images], target)
    assert got.pivots == _dense_pivots(got.rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernels_match_brute_force(p):
    # dense random images into F_p^width, modulo random nonzero targets
    rng = random.Random(p)
    top = max(a for a in range(13) if p**a <= BRUTE_POINTS)
    for _ in range(40):
        a, width = rng.randint(0, top), rng.randint(1, 6)
        images = [[rng.randrange(p) for _ in range(width)] for _ in range(a)]
        target = random_space(p, width, rng)
        if not target.rank:
            target = coordinate_space(p, width, [rng.randrange(width)])
        got = image_kernel(p, a, native_vectors(p, width, map(sparse, images)), target)
        assert got == kernel_by_brute_force(p, images, target)
        if a:
            assert kernel(images, p) == kernel_by_brute_force(p, images, zero_space(p, width))


@pytest.mark.parametrize("p", [2, 3])
def test_out_of_range_indices_and_images_are_rejected(p):
    # a coefficient that vanishes mod p does not excuse its index
    for bad in (2, -1):
        for indices in ([bad], [0, bad], [bad, 1]):
            with pytest.raises(InputError, match="outside"):
                coordinate_space(p, 2, indices)
        for vec in ([(bad, 1)], [(0, 1), (bad, p)]):
            with pytest.raises(InputError, match="outside"):
                native_vectors(p, 2, [vec])
    # an image outside F_p^2: a bit at or above 2 at p = 2, a length
    # other than 2 at odd p
    for image in ((0b100, 0b111, -1) if p == 2 else ((0, 1, 0), (1,), ())):
        with pytest.raises(InputError, match="outside"):
            image_kernel(p, 1, [image], zero_space(p, 2))
        with pytest.raises(InputError, match="outside"):
            image_kernel(p, 1, [image], full_space(p, 2))


def test_sparse_interface_at_odd_p():
    s = rref([(1, 0, 2, 0), (0, 2, 0, 0)], 3)
    assert s.member((2, 0, 1, 0)) and not s.member((0, 0, 0, 1))
    assert coordinate_space(3, 4, [2, 0, 2]).rows == ((1, 0, 0, 0), (0, 0, 1, 0))
    # x -> (x0 + x1) e_0 modulo span(e_0) is zero, modulo nothing it is not
    assert image_kernel(3, 2, [(1,), (1,)], zero_space(3, 1)).rows == ((1, 2),)
    assert image_kernel(3, 2, [(1,), (1,)], full_space(3, 1)).rank == 2


def test_rowspace_is_immutable_and_picklable():
    import copy
    import pickle

    for p in (2, 3):
        s = rref([(1, 1, 0), (0, 1, 1)], p)
        with pytest.raises(AttributeError):
            s.p = 5
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.deepcopy(s) == s


def dense(p, v, width):
    # a native vector as a tuple of residues
    return tuple((v >> j) & 1 for j in range(width)) if p == 2 else tuple(v)


def random_space(p, d, rng):
    rows = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(d + 1))]
    return rref(rows, p, ambient_dim=d)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 5),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_native_quotient_maps_match_the_dense_reference(p, m, k, rng):
    # source S in F_p^m, maps M_g : F_p^m -> F_p^k, target T containing
    # every S M_g; quotient coordinates are the non-pivot columns
    source = random_space(p, m, rng)
    mats = [[[rng.randrange(p) for _ in range(k)] for _ in range(m)] for _ in range(3)]
    images = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*mat)]
              for mat in mats for row in source.rows]
    target = rref(images + list(random_space(p, k, rng).rows), p, ambient_dim=k)
    free_s = [c for c in range(m) if c not in source.pivots]
    free_t = [c for c in range(k) if c not in target.pivots]
    w = len(free_t)
    maps = quotient_maps(
        source, target, [native_vectors(p, k, [enumerate(row) for row in mat]) for mat in mats]
    )

    def cls(vec):  # the class of vec in F_p^k / T, in quotient coordinates
        residue = target.reduce(vec)
        return tuple(residue[c] for c in free_t)

    for mat, q in zip(mats, maps):
        assert [dense(p, v, w) for v in q] == [cls(mat[c]) for c in free_s]
    if not free_s:
        return
    coeffs = [rng.randrange(p) for _ in mats]
    if not any(coeffs):
        with pytest.raises(InputError):
            combine_maps(p, coeffs, maps)
        coeffs[0] = 1
    mb = combine_maps(p, coeffs, maps)
    want = [cls([sum(c * mat[col][j] for c, mat in zip(coeffs, mats)) for j in range(k)])
            for col in free_s]
    assert [dense(p, v, w) for v in mb] == want
    rows = [dense(p, v, w) for v in mb]
    ker = map_kernel(p, mb, w)
    assert rref([dense(p, x, len(free_s)) for x in ker], p, ambient_dim=len(free_s)) == kernel(
        rows, p, codomain_dim=w
    )
    assert map_rank(p, mb, w) == rref(rows, p, ambient_dim=w).rank
    # the span of m(x) over the maps and the kernel vectors
    spanned = [
        [sum(x[c] * dense(p, q[c], w)[j] for c in range(len(free_s))) % p for j in range(w)]
        for x in (dense(p, v, len(free_s)) for v in ker)
        for q in maps
    ]
    got = image_basis(p, maps, ker, w)
    assert len(got) == rref(spanned, p, ambient_dim=w).rank
    assert rref([dense(p, v, w) for v in got], p, ambient_dim=w) == rref(spanned, p, ambient_dim=w)
    # the same span as a canonical RowSpace, its basis the RREF's
    assert image_span(p, maps, ker, w) == rref(spanned, p, ambient_dim=w)
    assert image_span(p, maps, ker, w).basis == rref(spanned, p, ambient_dim=w).basis


@pytest.mark.parametrize("p", [2, 3, 5])
def test_permute_coordinates_matches_permuted_spans(p):
    # random transpositions and k-cycles, e_k -> e_perm[k]
    rng = random.Random(p)
    for d in (1, 3, 6, 8, 9, 12, 17):
        for _ in range(20):
            members = rng.sample(range(d), rng.randint(min(d, 2), d))
            if rng.randrange(2):
                members = members[:2]  # a transposition
            to = dict(zip(members, members[1:] + members[:1]))
            perm = [to.get(k, k) for k in range(d)]
            permute = permute_coordinates(p, perm)
            u = random_space(p, d, rng)
            want = span(p, d, [[(perm[k], c) for k, c in row] for row in sparse_rows(u)])
            got = permute(u.basis)
            assert got == want.basis
            # a basis whose rows the permutation fixes comes back as itself
            assert (got is u.basis) == all(row[k] == row[perm[k]] for row in u.rows for k in range(d))
            # constant on the moved coordinates, anything off them
            fixed = span(p, d, [[(k, 1) for k in to]] + [
                [(k, rng.randrange(1, p))] for k in range(d) if k not in to and rng.randrange(2)
            ])
            assert permute(fixed.basis) is fixed.basis


def test_permute_coordinates_rejects_a_non_permutation():
    for bad in ([0, 0], [1, 2], [0, 2, 1, 4]):
        with pytest.raises(InputError, match="not a permutation"):
            permute_coordinates(2, bad)


@pytest.mark.parametrize("p, d", [(3, 4), (3, 5), (5, 3), (7, 3)])
def test_scale_first_is_the_least_of_every_scaling(p, d):
    # the least RREF over all (p - 1)**d scalings, which is also the first
    # member of the orbit in enumeration order
    is_first, first, _ = scale_first(p)
    order = {u.basis: i for i, u in enumerate(enumerate_subspaces(p, d))}
    scalings = list(itertools.product(range(1, p), repeat=d))
    firsts = 0
    for basis in order:
        orbit = {
            rref([[x * t[j] for j, x in enumerate(row)] for row in basis], p, d).basis
            for t in scalings
        }
        least = min(orbit)
        assert least == min(orbit, key=order.get)
        got = first(basis)
        assert got == least, basis
        assert (got is basis) == (basis == least) == is_first(basis), basis
        assert first(got) is got and is_first(got)
        firsts += basis == least
    assert 1 < firsts < len(order)


def test_scale_first_is_the_identity_at_p_2():
    is_first, first, divisor_first = scale_first(2)
    for u in enumerate_subspaces(2, 5):
        assert is_first(u.basis) is True
        assert first(u.basis) is u.basis
        test = divisor_first(u.basis, 5)
        assert all(test(vec) is True for vec in enumerate_coset_reps_mod_scalar(u))


@pytest.mark.parametrize("p, d", [(3, 4), (5, 3), (7, 3)])
def test_divisor_first_keeps_one_divisor_per_orbit_of_the_stabiliser(p, d):
    # against the orbits of the scalings that fix U, on every subspace U:
    # the accepted representatives are one per orbit, each its orbit's
    # first in enumeration order
    *_, divisor_first = scale_first(p)
    skipped = 0
    for u in enumerate_subspaces(p, d):
        test = divisor_first(u.basis, d)
        reps = list(enumerate_coset_reps_mod_scalar(u))
        accepted = [vec for vec in reps if test(vec)]
        assert accepted == first_divisors_by_stabiliser(u), u.rows
        skipped += len(reps) - len(accepted)
    assert skipped > 0


def random_sparse_map(p, m, width, rng):
    # the sparse images of e_0..e_{m-1}, with repeated indices and
    # coefficients not reduced mod p
    return [
        [(rng.randrange(width), rng.randrange(-p, 2 * p)) for _ in range(rng.randrange(3))]
        if width else []
        for _ in range(m)
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_image_fills_agrees_with_the_image_span(p):
    rng = random.Random(20 + p)
    kinds = collections.Counter()
    for _ in range(400):
        m, width = rng.randint(1, 5), rng.randint(0, 6)
        maps = [random_sparse_map(p, m, width, rng) for _ in range(rng.randrange(4))]
        vectors = random_space(p, m, rng).basis
        native = [native_vectors(p, width, images) for images in maps]
        rank = image_span(p, native, vectors, width).rank
        assert (image_fills(p, native, width)({}, vectors) is None) is (rank == width)
        kinds["full" if rank == width else "zero" if rank == 0 else "deficient"] += 1
    # exactly full: the last image brings the rank to width, and one fewer
    # vector falls one short
    for width in range(1, 7):
        perm = rng.sample(range(width), width)
        maps = [native_vectors(p, width, [[(perm[i], rng.randrange(1, p))] for i in range(width)])]
        basis = full_space(p, width).basis
        assert image_fills(p, maps, width)({}, basis) is None
        assert image_fills(p, maps, width)({}, basis[:-1]) is not None
        assert image_fills(p, maps, width)({}, ()) is not None
    assert min(kinds["full"], kinds["zero"], kinds["deficient"]) >= 40, kinds
    with pytest.raises(InputError, match="outside"):
        native_vectors(p, 3, [[(0, 1)], [(3, 1)]])


def test_image_fills_decides_whether_an_ideal_fills_degree_two():
    # A_1 U = A_2 exactly when the ideal (U) is all of A_2 in degree 2, on
    # every subspace U of every graph the brute route is checked on
    outcomes = collections.Counter()
    for g, p in brute_cases():
        ctx = build_algebra(g, p)
        fill = image_fills(p, ctx.gen_maps[1] if ctx.D > 1 else (), ctx.dim(2))
        for u in enumerate_subspaces(p, g.n):
            want = ctx.D < 2 or ideal_from_degree_one(ctx, u).piece(2).rank == ctx.dim(2)
            assert (fill({}, u.basis) is None) is want, (g.edges, p, u)
            outcomes[want] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes


def _degree_one_fill(g, p):
    ctx = build_algebra(g, p)
    return image_fills(p, ctx.gen_maps[1] if ctx.D > 1 else (), ctx.dim(2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_prefix_rules_are_exact(p):
    # a row prefix that is not first in its scaling orbit, or whose
    # products fill A_2, has no completion that is first, or that does not
    # fill; and the fill state a prefix hands on decides as a fresh one
    is_first, *_ = scale_first(p)
    settled = collections.Counter()
    for d in range(1, 5):
        for u in enumerate_subspaces(p, d):
            for k in range(u.rank):
                if not is_first(u.basis[:k]):
                    assert not is_first(u.basis), u
                    settled["not first"] += 1
    for g in (star(3), complete(4)):
        fill = _degree_one_fill(g, p)
        for u in enumerate_subspaces(p, g.n):
            whole = fill({}, u.basis)
            for k in range(u.rank):
                lead = fill({}, u.basis[:k])
                if lead is None:
                    assert whole is None, (g.edges, u)
                    settled["fills"] += 1
                else:
                    assert (fill(lead, u.basis[k:]) is None) is (whole is None)
    assert settled["fills"] >= 60, settled
    assert p == 2 or settled["not first"] >= 100, settled


@pytest.mark.parametrize("p", [2, 3, 5])
def test_first_subspaces_settles_whole_blocks_in_enumeration_order(p):
    # the settled blocks and the leaves add up to the Galois number; read
    # against enumerate_subspaces, each block is the run of subspaces of
    # its rank below its prefix, each not first or filling, and each leaf
    # is the next subspace, first, with the fill state of its rows but the
    # last
    is_first, *_ = scale_first(p)
    for g in (star(3), complete(4), build_graph(4, [])):
        fill = _degree_one_fill(g, p)
        spaces = list(enumerate_subspaces(p, g.n))
        walk = list(first_subspaces(p, g.n, fill))
        assert sum(count for _, _, count, _ in walk) == subspace_count(p, g.n)
        at = 0
        for prefix, rank, count, lead in walk:
            block = spaces[at:at + count]
            at += count
            assert len(block) == count
            if lead is None:
                assert all(
                    u.rank == rank and u.basis[:len(prefix)] == prefix
                    and (not is_first(u.basis) or fill({}, u.basis) is None)
                    for u in block
                ), (g.edges, prefix)
                continue
            (u,) = block
            assert count == 1 and u.basis == prefix and u.rank == rank
            assert is_first(u.basis) and lead == fill({}, u.basis[:-1])
        if not g.edges:
            # A_2 = 0: every pattern is settled at its root
            assert all(lead is None and prefix == () for prefix, _, _, lead in walk)
