"""Koszulity verdicts for graph exterior algebras.

Three graded properties are decided exactly:

- strongly Koszul: for every subset S' of the vertex generators and every
  generator u outside S', the colon ideal (S'):(u) is again generated by
  vertex generators: in every degree it equals the ideal generated by
  S' and K_u, u and its non-neighbours (the closed form, from
  adjacency).  Since a_u sends each basis monomial m to zero or to +-1
  times another, m lies in (S'):(a_u) iff a_u m = 0 or supp(a_u m) meets
  S', and in the closed form iff m meets K_u or S'.  So every S' passes
  with u iff each m of degree >= 1 does: [a_u m = 0] equals [m meets
  K_u], and when both are false, supp(a_u m) - {u} = m - {u}.  Proof:
  S' = {} gives the first; when a_u m is not zero, each S' = {x}, x not
  u, gives x in supp(a_u m) iff x in m.  Conversely these make the two
  sides agree for every S' that misses u.  m meets K_u iff u lies in
  the union of K_x over the vertices x of m (K is symmetric), so the
  test runs per monomial, on the products the algebra stores: the
  generators with a_u m nonzero must be the complement of that union,
  and each such product must have the vertex set m + {u}.  That reads
  each stored product once, and no zero product.  Only when some (u, m)
  fails are the prefix sets walked, in order, to list the failing
  pairs; a failure's degree is the least one where the colon differs
  from the ideal that its own degree-one part generates.
- universally Koszul: for every ideal I generated in degree one and every
  divisor b in A_1 outside I_1, the colon I:(b) is generated in degree one.
  The fast route is the graph criterion (diagonal property: no induced C4
  or P4); the brute-force route enumerates every (I, b) up to the scalar
  and I_1-translation invariance of the colon.
- PBW and the numerical Koszul test on 1/H(-t) round out the report.
  The clique monomials are the PBW basis of this monomial algebra, so the
  PBW check verifies that the basis is exactly the cliques, against
  adjacency, by double counting common neighbourhoods.

The brute-force route tests one subspace I_1 per orbit of the group G
generated by the twin swaps and the diagonal scalings.  A twin swap
exchanges twins u and v, vertices with N(u) - {v} = N(v) - {u}, which
graphs.smaller_twins finds on the neighbour masks, as it does for the
canonical search; it maps edges to edges, so it extends to an algebra
automorphism, which acts on A_1, and so on the subspaces I_1, as the
swap of coordinates u and v.  A diagonal scaling a_v -> t_v a_v, t in
(F_p^*)^V, is an algebra automorphism because the relations are monomial
(homogeneous for the fine Z^V grading below); at p = 2 it is the
identity.  For an automorphism s, I:(b) is generated in degree one iff
sI:(sb) is; since s also permutes the divisors outside I_1, a subspace
passes iff every member of its orbit does.  The first member of an orbit
in enumeration order is tested divisor by divisor, so the first failure
is the one a test of every subspace would meet.  Its later members are
counted, with their divisor classes, but not tested: ideals_enumerated
and divisors_checked count what the verdict covers, divisors_tested the
divisors that went through the quotient test below.

The scalings form a torus T, normal in G because a swap conjugates a
scaling to a scaling, so the G-orbit of U is the union of the T-orbits of
its swap images.  gfp.scale_first characterises the first member of a
T-orbit: the RREF in which every nonzero free entry that joins two
classes of columns, scanned row-major, is 1.  A subspace that is not
first in its T-orbit is counted as covered on that test alone, before
anything else: the first member of its G-orbit comes earlier, and it is
first in its own T-orbit.  The scan stops at its first joining entry
that is not 1, and it meets the entries of a row prefix of U's basis
first: when the prefix is not first, neither is U, and that test alone
covers every basis the prefix begins.  The orbits are closed under each
twin generator followed by the scaling to the first member, so the
later members held are first members too, one per T-orbit, and each is
met once.  The twin swaps of a class of k twins generate its symmetric
group S_k, and two of them suffice: the transposition t of its two least
members m_0, m_1 and, for k >= 3, the cycle c = (m_0 m_1 ... m_(k-1)).
Conjugating t by c^i gives (m_i m_(i+1)), and these consecutive
transpositions generate S_k.  Any generating set of the group closes the
same orbits, so the subspaces tested, their order and the counters do
not depend on which one is used.

The divisors of a tested U are thinned the same way, by Stab_T(U), the
scalings that fix U.  A scaling t fixes U iff t_k = t_c for each nonzero
entry of U's RREF, c its row's pivot and k its column, so iff t is
constant on each class of columns of scale_first's scan.  Such a t fixes
I = (U), so it induces an automorphism of B = A/I that maps b to tb and
Ann_B(b) onto Ann_B(tb): both are generated in degree one or neither,
and both first fail in the same degree.  Each divisor class is counted,
but only the first member of its Stab_T(U)-orbit in enumeration order
goes through the quotient test: the representative whose first nonzero
entry in each class is 1 (scale_first's divisor_first, no arithmetic).
The first failing divisor of U is such a member, since the first member
of its orbit fails too and comes no later, so the failure and the
counted classes are unchanged and only divisors_tested drops.  At p = 2
every divisor is first.

A subspace U whose ideal I = (U) has I_2 = A_1 U = A_2 (or D < 2) passes
with no divisor tested.  A is generated in degree one, so I contains
A_{>=2}.  For b in A_1 outside U, (I:b)_1 = A_1 because A_1 b lies in
A_2 = I_2, and (I:b)_0 = 0 because b is not in I_1 = U; so I:(b) = A_{>=1},
which is generated in degree one.  This test comes before the orbit
closure: each s in G is an algebra automorphism with s((U)) = (sU), so
A_1 U = A_2 holds for every member of an orbit or for none.  Each member
of such an orbit passes on its own test, so only the orbits whose
quotient does not vanish are closed, and the subspaces tested are the
same.  The divisors of a subspace that passes this way count in
divisors_checked only.  The test too holds for a whole block: if the
rows of a prefix P of U's basis already have A_1 P = A_2, then so has U.

So the subspaces are walked in enumeration order as a tree of row
prefixes (gfp.first_subspaces), row 0 first, and a prefix that is not
first in its T-orbit, or whose products fill A_2, settles the block of
bases that complete it: its count, the product of the fillings left to
the later rows, is added to ideals_enumerated, times the (p^(d-r) -
1)/(p - 1) divisor classes of a rank-r subspace to divisors_checked.
Each prefix hands its scan's classes and its elimination of A_1 P to
its extensions, which add one row each.  A whole basis is taken in the
order above: first in its T-orbit, then a later member of an orbit
already met, then the fill test.  No member of an orbit met earlier
lies in a settled block: those members are first in their T-orbits,
and they do not fill, since the orbit's first member does not and an
automorphism s has s((U)) = (sU).  So the subspaces tested, their
order, the counters and the first failure are those of a walk that
meets every subspace.

Universal Koszulity is Conca's notion ("Universally Koszul algebras",
Math. Ann. 317, 2000).  Each divisor is tested in the quotient B = A/I:
since I lies in I:(b), (I:b)/I is Ann_B(b), the annihilator of the class of b.
The ideal J that (I:b)_1 generates contains I too, so J = I:(b) iff
J/I = Ann_B(b), and J/I is the ideal of B that Ann_B(b)_1 generates:
I:(b) is generated in degree one iff Ann_B(b) is, and both first fail in
the same degree.  B's generator maps are built once per tested
subspace, in the coordinates of the monomials off the pivots of each
I_n, so no divisor reduces anything modulo I.  Ann_B(b)_n is the kernel
of multiplication by b, and it contains the ideal that Ann_B(b)_1
generates, so dimensions decide.  Two facts spare most of the work of
spanning that ideal, J, degree by degree.  B is a quotient of an exterior
algebra, so b^2 = 0: b lies in Ann_B(b)_1, and J_n contains b B_{n-1}
and lies in Ann_B(b)_n.  So once multiplication by b, B_{n-1} -> B_n,
is onto, J_n = B_n and b passes, as the test of J_n itself would find.
And when Ann_B(b)_1 = <b>, J is the principal ideal (b), whose degree-n
part is b B_{n-1}: its dimension is that rank, which the test has
already computed, as the rank behind Ann_B(b)_{n-1}, so no image is
taken.  The degree returned is the same either way.  colon_ideal and
is_one_generated stay as the independent route the tests compare
against.

The strong and brute-force checks count their (ideal, divisor) pairs
exactly before any work and refuse with ResourceLimitError past 2**20
pairs.

When the fast universal verdict is false, certify_witness builds the
certified counterexample: b = a_{v1} + a_{v4} annihilates the culprit
monomial a_{v2} a_{v3}, which Ann(b)_1 cannot generate.  Both facts are
read off the stored products of three monomials, with no elimination.
Grade A by Z^(V/~), where v1 ~ v4: this coarsens the fine Z^V grading,
for which the relations are homogeneous.  b is homogeneous, so Ann(b)_1 and
A_1 Ann(b)_1 are graded.  The culprit has degree e_{v2} + e_{v3}, and
that component of A_1 Ann(b)_1 is a_{v2} Ann(b)_1[e_{v3}] +
a_{v3} Ann(b)_1[e_{v2}].  For a monomial x containing neither v1 nor v4,
a_{v1} x and a_{v4} x are zero or +-1 times distinct monomials, so
b x = 0 iff both vanish.  Hence, for c outside {v1, v4}, Ann(b)_1[e_c]
is <a_c> when a_{v1} and a_{v4} both kill a_c and 0 otherwise; the
culprit lies in Ann(b) iff D < 3 or a_{v1} and a_{v4} both kill it
(neither is among the culprit's stored products), and outside
A_1 Ann(b)_1 iff neither a_{v2} nor a_{v3} is killed by both.

The reports and results are typing.NamedTuple records, equal by value.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .algebra import (
    AlgebraContext,
    Element,
    build_algebra,
    from_coeffs,
    koszul_numerical_check,
    pbw_check,
)
from .errors import InputError, ResourceLimitError
from .gfp import (
    ENUMERATION_GUARD,
    Prime,
    RowSpace,
    combine_maps,
    count_text,
    enumerate_coset_reps_mod_scalar,
    first_subspaces,
    image_basis,
    image_fills,
    map_kernel,
    map_rank,
    permute_coordinates,
    quotient_maps,
    scale_first,
)
from .graphs import (
    DiagonalViolation,
    Graph,
    diagonal_violation,
    elementary_type_decomposition,
    neighbour_masks,
    smaller_twins,
)
from .ideals import GradedIdeal, ideal_from_degree_one


class StrongPairFailure(NamedTuple):
    prefix: tuple
    divisor: int
    computed_generators: tuple
    predicted_generators: tuple
    discrepancy_degree: int | None


class StrongKoszulReport(NamedTuple):
    passed: bool
    pairs_checked: int
    failures: tuple


def _bits(mask: int) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if (mask >> j) & 1)


def _not_injective(u: int, n: int) -> RuntimeError:
    return RuntimeError(
        f"multiplication by a{u} in degree {n} is not a signed injection of "
        "basis monomials"
    )


def _product_table(ctx: AlgebraContext, monos: list):
    """(table, stray): table[n][i] is the set of generators g with a_g m
    nonzero, for basis monomial m = i of degree n, whose vertex set is
    monos[n][i]; the top degree stores no product, so its entries are
    empty.  stray holds every generator with some product of degree >= 1
    whose vertex set is not m + {g}.  Both are bitmasks over the generators, read off
    ctx.products, which must make multiplication by each generator a
    signed injection of basis monomials on every level: no generator
    twice for one monomial, signs +-1 and a target of its own for each
    monomial; RuntimeError otherwise.  Targets are compared only in a
    degree with a product off m + {g}: elsewhere g lies outside m, and
    m -> m + {g} is one-to-one."""
    table, stray = [], 0
    for n, level in enumerate(ctx.products):
        up, row, level_stray = monos[n + 1], [], 0
        for m, prods in zip(monos[n], level):
            gens = 0
            for g, k, sign in prods:
                bit = 1 << g
                if gens & bit or sign not in (1, -1):
                    raise _not_injective(g, n)
                gens |= bit
                if up[k] != m | bit:
                    level_stray |= bit
            row.append(gens)
        if level_stray:
            seen = set()
            for prods in level:
                for g, k, _ in prods:
                    if (g, k) in seen:
                        raise _not_injective(g, n)
                    seen.add((g, k))
        table.append(row)
        if n:  # no colon reads degree 0, so it is checked as a map only
            stray |= level_stray
    table.append([0] * ctx.dim(ctx.D))
    return table, stray


def _strong_budget(d: int) -> int:
    """The strong check's pair count on d vertices, refused past 2**20.
    Past 64 vertices the count is not built: d * 2**(d-1) - 1 has
    d - 1 + (d - 1).bit_length() bits, which gives count_text's wording."""
    if d > 64:
        count = f"more than 2**{d - 2 + (d - 1).bit_length()}"
    else:
        total = d * 2**d // 2
        if total <= ENUMERATION_GUARD:
            return total
        count = count_text(total)
    raise ResourceLimitError(
        f"strong Koszulity check refused: {count} (prefix set, "
        f"divisor) pairs for {d} vertices exceed 2**20"
    )


def strong_koszul_check(ctx: AlgebraContext) -> StrongKoszulReport:
    """Exhaustive strong-Koszulity check over all (prefix set, divisor)
    pairs, each verified against the closed-form generator prediction.

    The pairs are decided per basis monomial m of degree >= 1 (proof in
    the module docstring): the generators with a_g m nonzero must be the
    complement of the union of K_x over the vertices x of m, and each
    such product must have the vertex set m + {g}.  Only a failing
    divisor is walked over the prefix sets, to list its failure records.
    Refuses with ResourceLimitError before any work when the
    d * 2**(d-1) pairs exceed 2**20 (more than 16 vertices)."""
    d = ctx.dim(1)
    total = _strong_budget(d)
    everyone = (1 << d) - 1
    # closed form: a_j a_u = 0 exactly for u itself and its non-neighbours
    killed_by = [everyone ^ nb for nb in neighbour_masks(ctx.graph)]
    bit = [1 << x for x in range(d)].__getitem__
    monos = [[sum(map(bit, mono)) for mono in basis] for basis in ctx.bases]
    table, failing = _product_table(ctx, monos)
    for n in range(1, ctx.D + 1):
        for mono, gens in zip(ctx.bases[n], table[n]):
            reached = 0  # the union of K_x over the vertices x of m
            for x in mono:
                reached |= killed_by[x]
            failing |= gens ^ everyone ^ reached
    if not failing:
        return StrongKoszulReport(True, total, ())
    failures = _failure_walk(ctx, killed_by, _bits(failing))
    return StrongKoszulReport(not failures, total, tuple(failures))


def _failure_walk(ctx: AlgebraContext, killed_by: list, failing) -> list:
    """The failing (prefix set, divisor) pairs for the divisors failing,
    masks ascending, then divisors ascending.  Each colon (S'):(a_u) is
    packed per degree n >= 1 as a bitset over the basis monomials of
    degree n: the ones a_u kills (every one in the top degree), or the
    OR over x in S' of the ones a_u sends to +-1 times a monomial that
    contains x.  As the masks ascend, acc[j] holds that colon for the
    vertices of the mask at or above j, so a mask ORs one vertex's
    bitsets into the accumulator of the others: O(D) big-int operations
    per mask and divisor.  A failure's degree is the least one where the
    colon differs from the monomials that meet its degree-one part."""
    d, D = ctx.dim(1), ctx.D
    # meets[n][x]: the monomials of degree n that contain x
    meets = [[0] * d for _ in range(D + 1)]
    for n, basis in enumerate(ctx.bases):
        for i, mono in enumerate(basis):
            for x in mono:
                meets[n][x] |= 1 << i
    walks = []
    for u in failing:
        kills = [0] + [(1 << w) - 1 for w in ctx.dims[1:]]
        reach = [[0] * (D + 1) for _ in range(d)]
        for n in range(1, D):
            for i, prods in enumerate(ctx.products[n]):
                for g, k, _ in prods:
                    if g == u:
                        kills[n] ^= 1 << i
                        for x in ctx.bases[n + 1][k]:
                            reach[x][n] |= 1 << i
        walks.append((u, reach, [tuple(kills)] * (d + 1)))
    failures = []
    for mask in range(2**d - 1):
        t = (mask & -mask).bit_length() - 1
        for u, reach, acc in walks:
            if mask:
                acc[: t + 1] = [tuple(map(or_, acc[t + 1], reach[t]))] * (t + 1)
            if mask >> u & 1:
                continue
            colon = acc[0]
            computed = _bits(colon[1])  # degree-one monomial j is a_j
            degree = next((
                n for n in range(2, D + 1)
                if colon[n] != reduce(or_, (meets[n][x] for x in computed), 0)
            ), None)
            predicted = _bits(mask | killed_by[u])
            if degree is not None or computed != predicted:
                failures.append(StrongPairFailure(_bits(mask), u, computed, predicted, degree))
    return failures


def universal_koszul_fast(g: Graph) -> bool:
    """Graph criterion: universally Koszul iff no induced C4 or P4."""
    return diagonal_violation(g) is None


class BruteFailure(NamedTuple):
    ideal: GradedIdeal
    divisor: Element
    degree: int


class BruteResult(NamedTuple):
    """ideals_enumerated and divisors_checked count what the verdict
    covers; divisors_tested counts the divisors that went through the
    quotient test: those of the first member of each orbit of the twin
    swaps and the diagonal scalings whose quotient A/(U) is not zero in
    degree 2, one per orbit of the scalings that fix U (all at p = 2)."""

    verdict: bool
    failure: BruteFailure | None
    ideals_enumerated: int
    divisors_checked: int
    divisors_tested: int


def _brute_divisor_count(p: int, d: int) -> int:
    """The divisors universal_koszul_bruteforce checks on d vertices:
    sum over r of [d choose r]_p subspaces of rank r, times the
    (p**(d-r) - 1) / (p - 1) divisor classes of each.  That is
    (H_d - G_d) / (p - 1), with G_n = sum_r [n r]_p the Galois numbers and
    H_n = sum_r [n r]_p p**(n-r).  Both follow with no division from
    G_0 = H_0 = 1: Goldman & Rota's G_(n+1) = 2 G_n + (p**n - 1) G_(n-1)
    ("On the foundations of combinatorial theory IV", Stud. Appl. Math.
    49, 1970), and H_(n+1) = H_n + p**(n+1) G_n by the q-Pascal rule
    [n+1 r] = [n r-1] + p**r [n r].  So the count takes O(d) big-int
    products and one exact division."""
    g_before, g, h, power = 0, 1, 1, 1  # G_(n-1), G_n, H_n, p**n at n = 0
    for _ in range(d):
        h += power * p * g
        g_before, g = g, 2 * g + (power - 1) * g_before
        power *= p
    return (h - g) // (p - 1)


def _twin_generators(g: Graph) -> list[tuple[int, ...]]:
    """Two generators of the symmetric group on each twin class of g, as
    permutations of the vertices (perm[v] is the image of v), classes in
    order of least member: the transposition of its two least members
    and, when it has k >= 3 members, the k-cycle through them in order.
    Twins are vertices with N(u) - {v} = N(v) - {u}, found by
    graphs.smaller_twins on the neighbour masks, and these generate the
    twin group (see the module docstring).  Each generator is checked to
    map the edge set onto itself; RuntimeError otherwise."""
    n = g.n
    twins = smaller_twins(neighbour_masks(g), [1 << v for v in range(n)])
    classes: dict[int, list[int]] = {}  # the least member's bit -> the class
    for v, below in enumerate(twins):
        classes.setdefault(below & -below or 1 << v, []).append(v)
    perms = []
    for members in classes.values():
        if len(members) < 2:
            continue
        swap = list(range(n))
        swap[members[0]], swap[members[1]] = members[1], members[0]
        perms.append(tuple(swap))
        if len(members) > 2:
            cycle = list(range(n))
            for u, v in zip(members, members[1:] + members[:1]):
                cycle[u] = v
            perms.append(tuple(cycle))
    for perm in perms:
        moved = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
        if moved != g.edges:
            raise RuntimeError(f"twin permutation {perm} is not a graph automorphism")
    return perms


def _orbit_rest(basis, actions) -> set:
    """The native bases of the other subspaces that the maps actions
    reach from the subspace with native basis basis, closed depth-first:
    with each twin generator followed by the scaling to the first member,
    the first members of the scaling orbits in its orbit."""
    orbit = {basis}
    stack = [basis]
    while stack:
        s = stack.pop()
        for act in actions:
            image = act(s)
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    orbit.remove(basis)
    return orbit


def _quotient_maps(ctx: AlgebraContext, ideal: GradedIdeal):
    """The generator maps of B = A/ideal: (dims, maps), where dims[n] is
    dim B_n for n = 0..D and maps[n-1] holds, for each basis vector a_g of
    B_1 (the non-pivot generators of ideal_1), the native map Q_g: B_n ->
    B_{n+1}, x -> a_g x, for n = 1..D-1.  B_n's basis is the non-pivot
    monomials of ideal_n."""
    pieces = ideal.pieces
    pivots = set(pieces[1].pivots)
    free = [g for g in range(ctx.dim(1)) if g not in pivots]
    dims = tuple(ctx.dim(n) - pieces[n].rank for n in range(ctx.D + 1))
    maps = tuple(
        quotient_maps(pieces[n], pieces[n + 1], [ctx.gen_maps[n][g] for g in free])
        for n in range(1, ctx.D)
    )
    return dims, maps


def _failure_degree(p: int, dims, maps, b) -> int | None:
    """Whether Ann_B(b) is generated in degree one, for B given by
    _quotient_maps and b a nonzero vector of B_1 in its coordinates: None,
    or the least degree n where the ideal J that Ann_B(b)_1 generates is
    smaller than Ann_B(b)_n.  J is an ideal of B that Ann_B(b) contains,
    so comparing dimensions decides.  Ann_B(b)_n is the kernel of
    multiplication by b, B_n -> B_{n+1}, and all of B_D.

    b^2 = 0, so b lies in Ann_B(b)_1 and b B_{n-1} lies in J_n: once
    multiplication by b, B_{n-1} -> B_n, has rank dim B_n, J_n = B_n and
    every later degree is full too.  When Ann_B(b)_1 = <b>, J = (b) and
    dim J_n is that rank, so no image is taken; otherwise J_n is spanned
    by the images of J_{n-1} under the generator maps.  Each such rank
    is the one that degree n - 1 computed for Ann_B(b)_{n-1}."""
    D = len(dims) - 1
    if D < 2:
        return None
    kernel = map_kernel(p, combine_maps(p, b, maps[0]), dims[2])
    rank = dims[1] - len(kernel)  # of b: B_1 -> B_2
    generated = kernel if len(kernel) > 1 else None  # None: J = (b)
    for n in range(2, D + 1):
        if rank == dims[n]:
            return None  # b B_{n-1} = B_n lies in J_n
        if generated is not None:
            generated = image_basis(p, maps[n - 2], generated, dims[n])
            if len(generated) == dims[n]:
                return None  # B_n, so every later degree is full too
        spanned = rank if generated is None else len(generated)
        # rank of b: B_n -> B_{n+1}, and Ann_B(b)_n its kernel
        rank = map_rank(p, combine_maps(p, b, maps[n - 1]), dims[n + 1]) if n < D else 0
        if spanned < dims[n] - rank:
            return n
    return None


def universal_koszul_bruteforce(ctx: AlgebraContext) -> BruteResult:
    """Enumerate every degree-one-generated ideal I and every divisor class
    b (nonzero in A_1/I_1, modulo scalars) and test the colon, one
    subspace I_1 per orbit of the twin swaps and the diagonal scalings.

    Colon ideals are invariant under scaling b and translating b by I_1, so
    one representative per class decides all of them.  The colon is
    tested in B = A/I, as Ann_B(b) (_failure_degree), on generator maps
    built once per tested subspace.  A subspace U with A_1 U = A_2 passes
    with no divisor tested, and its orbit is not closed (see the module
    docstring).  Otherwise the first subspace met in each orbit has its
    divisors tested, one per orbit of the scalings that fix it; the later
    members, and every subspace that is not the first of its scaling
    orbit, are counted as covered, as are the divisors not tested.  The
    subspaces that a row prefix already settles, as not first or as
    filling A_2, are counted as one block.
    Returns the first failure in enumeration order, if any.
    Refuses with ResourceLimitError before the first subspace when the
    predicted divisor count exceeds 2**20.
    """
    d = ctx.dim(1)
    total = _brute_divisor_count(ctx.p, d)
    if total > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"brute-force universal check refused: {count_text(total)} (ideal, "
            f"divisor) pairs over F_{ctx.p} with {d} vertices exceed 2**20"
        )
    p = ctx.p
    _, first, divisor_first = scale_first(p)
    # each twin generator followed by the scaling to the first member, so
    # that an orbit is closed over first members only
    actions = [
        lambda basis, act=permute_coordinates(p, perm): first(act(basis))
        for perm in _twin_generators(ctx.graph)
    ]
    # whether A_1 U = A_2, on the maps A_1 -> A_2 (none when A_2 = 0)
    fill = image_fills(p, ctx.gen_maps[1] if ctx.D > 1 else (), ctx.dim(2))
    ahead = set()  # native bases of later members of the orbits already met
    ideals = divisors = tested = 0
    for basis, rank, count, lead in first_subspaces(p, d, fill):
        ideals += count
        classes = (p ** (d - rank) - 1) // (p - 1)
        if lead is None:
            # not first in their scaling orbits, so scalings of earlier
            # subspaces, or B = A/(U) vanishes from degree 2 on: each
            # passes as an earlier one does, or with every divisor
            divisors += count * classes
            continue
        if basis in ahead:
            # its orbit's first member passed, so it passes too
            ahead.remove(basis)
            divisors += classes
            continue
        if fill(lead, basis[-1:]) is None:
            # B = A/(U) vanishes from degree 2 on: every divisor passes
            divisors += classes
            continue
        u = RowSpace(p, d, basis)
        ahead |= _orbit_rest(basis, actions)
        ideal = ideal_from_degree_one(ctx, u)
        dims, maps = _quotient_maps(ctx, ideal)
        pivots = set(u.pivots)
        free = [c for c in range(d) if c not in pivots]
        first_divisor = divisor_first(basis, d)
        for vec in enumerate_coset_reps_mod_scalar(u):
            divisors += 1
            if not first_divisor(vec):
                # a scaling that fixes U maps an earlier divisor to it
                continue
            tested += 1
            # vec is supported on the free columns: its B_1 coordinates
            degree = _failure_degree(p, dims, maps, [vec[c] for c in free])
            if degree is not None:
                b = from_coeffs(ctx, 1, vec)
                return BruteResult(
                    False, BruteFailure(ideal, b, degree), ideals, divisors, tested
                )
    return BruteResult(True, None, ideals, divisors, tested)


class NonUKWitness(NamedTuple):
    """Certified counterexample to universal Koszulity.

    b = a_{v1} + a_{v4} for the violation's labeling; the culprit monomial
    a_{v2} a_{v3} lies in Ann(b) but outside the ideal generated by
    Ann(b)_1.  Both facts are re-verified from the stored products at
    construction time (see the module docstring)."""

    violation: DiagonalViolation
    b: Element
    culprit: tuple
    culprit_annihilated: bool
    culprit_outside_degree_one_part: bool


def non_universal_witness(ctx: AlgebraContext) -> NonUKWitness:
    w = diagonal_violation(ctx.graph)
    if w is None:
        raise InputError(
            "graph has the diagonal property: no universal-Koszulity witness exists"
        )
    return certify_witness(ctx, w)


def certify_witness(ctx: AlgebraContext, w: DiagonalViolation) -> NonUKWitness:
    """The certified witness for a violation already found in ctx.graph.
    It reads b times the culprit, a_{v2} and a_{v3} off three monomials'
    stored products (see the module docstring); RuntimeError if it fails."""
    ends = (w.v1, w.v4)
    b = from_coeffs(ctx, 1, tuple(1 if j in ends else 0 for j in range(ctx.dim(1))))
    culprit = (w.v2, w.v3) if w.v2 < w.v3 else (w.v3, w.v2)

    def hit(n: int, i: int) -> bool:
        """Whether a_{v1} or a_{v4} times basis monomial i of degree n is
        nonzero."""
        return any(g in ends for g, _, _ in ctx.products[n][i])

    # b times the culprit; nothing lives above the clique number
    in_ann = ctx.D < 3 or not hit(2, ctx.index[2][culprit])
    # neither a_{v2} nor a_{v3} lies in Ann(b)_1 (degree-one monomial j is a_j)
    outside = all(hit(1, c) for c in (w.v2, w.v3))
    if not (in_ann and outside):
        raise RuntimeError("witness certificate failed exact verification")
    return NonUKWitness(w, b, culprit, in_ann, outside)


class KoszulReport(NamedTuple):
    graph: Graph
    p: int
    dims: tuple
    diagonal_property: bool
    decomposition: object  # tree node or DiagonalViolation
    strong: StrongKoszulReport
    brute: BruteResult | None
    witness: NonUKWitness | None
    pbw: bool
    dual_series_nonneg: bool


# Largest vertex count per prime that brute="auto" runs on.
_BRUTE_AUTO_MAX_D = {2: 4, 3: 3}


def _brute_gate(p: int, d: int) -> bool:
    return d <= _BRUTE_AUTO_MAX_D.get(p, 0)


def classify(
    g: Graph, p: int = 2, brute: str = "auto", dual_order: int | None = None
) -> KoszulReport:
    """Full report for one graph: dims, decomposition, all three verdicts,
    and the certified witness when the graph lacks the diagonal property.

    brute is "auto" (run the brute-force universal check only on small
    inputs: p=2 with at most 4 vertices, p=3 with at most 3), "on", or
    "off"; report.brute is None when it did not run.  dual_order goes to
    koszul_numerical_check, whose default is max(12, top degree).
    """
    if brute not in ("auto", "on", "off"):
        raise InputError(f"brute mode must be auto, on, or off, got {brute!r}")
    if g.n == 0:
        raise InputError("cannot classify the empty graph")
    Prime(p)  # a bad prime is an input error whatever the graph's size
    # The strong check always runs and its budget depends on g.n alone, so
    # a graph it refuses is refused before any other stage.
    _strong_budget(g.n)
    ctx = build_algebra(g, p)
    # Stages with a budget refuse before they start.  The cheap dual
    # series runs first and brute before strong, so that a refusal comes
    # before any long stage has run.
    dual_nonneg = koszul_numerical_check(ctx.dims, dual_order)
    decomposition = elementary_type_decomposition(g)
    fast = not isinstance(decomposition, DiagonalViolation)
    run_brute = brute == "on" or (brute == "auto" and _brute_gate(ctx.p, g.n))
    brute_result = universal_koszul_bruteforce(ctx) if run_brute else None
    strong = strong_koszul_check(ctx)
    witness = None if fast else certify_witness(ctx, decomposition)
    return KoszulReport(
        graph=g,
        p=int(ctx.p),
        dims=ctx.dims,
        diagonal_property=fast,
        decomposition=decomposition,
        strong=strong,
        brute=brute_result,
        witness=witness,
        pbw=pbw_check(ctx),
        dual_series_nonneg=dual_nonneg,
    )
