"""Shared graph constructors (also union, cone, induced subgraph, random
graphs with the diagonal property and the graph of a decomposition
tree), the adjacency sets read off the edges, the classes with the
diagonal property by their cone-and-union grammar, element arithmetic,
test oracles (the class count by Burnside's lemma and the rooted-tree
count, the twin classes by the definition, the brute-force and
level-by-level canonical forms, the violation search over 4-sets, the
decomposition by single peels, clique listing by k-subsets, subspace
counts and containment, sparse spans and rows on top of rref, a RowSpace
from dense rows already reduced, the generator maps by inserting a
vertex, the generated ideal by sparse vectors,
the strong check by colon ideals, the brute universal check over every
subspace and the product laws, the quotient divisor test with the
generated ideal spanned in every degree, the Koszul dual's dimensions
counted as traces), the graphs and primes the brute route is checked
on, and the acceptance-summary hook.

Hypothesis runs derandomized: each property test draws the same examples
on every run, so the suite's verdict and wall time do not depend on the
run.  A test's own max_examples still sets how many."""

import bisect
import functools
import itertools
import math
import operator

from hypothesis import settings

from koszulity import build_graph, gfp, nonisomorphic_graphs, parse_edge_list
from koszulity.algebra import AlgebraContext, Element, from_coeffs
from koszulity.errors import InputError
from koszulity.gfp import (
    RowSpace,
    combine_maps,
    enumerate_coset_reps_mod_scalar,
    enumerate_subspaces,
    map_kernel,
    map_rank,
    rref,
    zero_space,
)
from koszulity.graphs import ConeNode, DiagonalViolation, Graph, LeafNode, UnionNode
from koszulity.ideals import (
    GradedIdeal,
    colon_ideal,
    ideal_from_degree_one,
    is_one_generated,
    monomial_ideal_basis,
)
from koszulity.koszul import (
    BruteFailure,
    BruteResult,
    StrongKoszulReport,
    StrongPairFailure,
)

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_ACCEPTANCE_LINES = []


def record_criterion(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def square4():
    # 4-cycle 0-1-2-3-0
    return parse_edge_list("4\n0 1\n1 2\n2 3\n3 0")


def path4():
    # path 0-1-2-3
    return parse_edge_list("4\n0 1\n1 2\n2 3")


def cone_over_path():
    # apex 0 over the path 1-2-3; dims (1, 4, 5, 2)
    return parse_edge_list("4\n0 1\n0 2\n0 3\n1 2\n2 3")


def star(leaves: int):
    # center 0 with the given number of leaves
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def five_vertex_cone_like():
    # five vertices, induced square on 1-2-4-3, vertex 0 adjacent to 1 and 4
    return build_graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)])


def random_graph(rng, n, density=0.5):
    # each vertex pair, in lexicographic order, is an edge with probability density
    pairs = itertools.combinations(range(n), 2)
    return build_graph(n, [e for e in pairs if rng.random() < density])


def relabel(g, perm):
    # vertex v of g becomes vertex perm[v]
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def adj(g):
    """Each vertex's neighbours as a frozenset, read off g.edges."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(map(frozenset, nbrs))


def twin_classes(g):
    """The twin classes of g by the definition, N(u) - {v} == N(v) - {u},
    one pair at a time: each class ascending, in order of least member."""
    nbrs = adj(g)
    classes = []
    for v in range(g.n):
        for c in classes:
            if all(nbrs[u] - {v} == nbrs[v] - {u} for u in c):
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return build_graph(g1.n + g2.n, edges)


def cone(g: Graph) -> Graph:
    """Add a universal apex as the new highest-index vertex."""
    edges = list(g.edges) + [(v, g.n) for v in range(g.n)]
    return build_graph(g.n + 1, edges)


def induced_subgraph(g: Graph, verts) -> Graph:
    """Subgraph induced on verts, relabeled 0..len(verts)-1 in sorted order."""
    vs = sorted(verts)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    ]
    return build_graph(len(vs), edges)


def reconstruct(node, n: int) -> Graph:
    """Rebuild the graph described by a decomposition tree on n vertices."""

    def edges_of(nd) -> tuple[frozenset, set]:
        if isinstance(nd, LeafNode):
            return frozenset((nd.vertex,)), set()
        if isinstance(nd, UnionNode):
            verts: frozenset = frozenset()
            edges: set = set()
            for c in nd.children:
                cv, ce = edges_of(c)
                verts |= cv
                edges |= ce
            return verts, edges
        bv, be = edges_of(nd.base)
        be |= {(min(nd.apex, v), max(nd.apex, v)) for v in bv}
        return bv | {nd.apex}, be

    verts, edges = edges_of(node)
    if verts != frozenset(range(n)):
        raise InputError("decomposition tree does not cover vertices 0..n-1")
    return build_graph(n, edges)


def monomial_element(ctx: AlgebraContext, mono) -> Element:
    n = len(mono)
    idx = ctx.index[n].get(tuple(mono)) if n <= ctx.D else None
    if idx is None:
        raise InputError(f"{mono} is not a clique of the graph")
    return Element(ctx, n, tuple(1 if j == idx else 0 for j in range(ctx.dim(n))))


def add(x: Element, y: Element) -> Element:
    p = x.ctx.p
    return Element(
        x.ctx,
        x.degree,
        tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs)),
    )


def scale(x: Element, c: int) -> Element:
    p = x.ctx.p
    c %= p
    return Element(x.ctx, x.degree, tuple((c * a) % p for a in x.coeffs))


def multiply(x: Element, y: Element) -> Element:
    if x.ctx is not y.ctx:
        raise InputError("elements from different algebra contexts")
    ctx = x.ctx
    n = x.degree + y.degree
    if n > ctx.D:
        return Element(ctx, n, ())  # zero: nothing lives above the top
    p = ctx.p
    out = [0] * ctx.dim(n)
    prod = ctx.basis_product
    for i, cx in enumerate(x.coeffs):
        if not cx:
            continue
        for j, cy in enumerate(y.coeffs):
            if not cy:
                continue
            hit = prod(x.degree, i, y.degree, j)
            if hit is not None:
                sign, k = hit
                out[k] = (out[k] + sign * cx * cy) % p
    return Element(ctx, n, tuple(out))


def lexmin_by_permutations(g):
    """Reference canonical form: over all n! vertex orders, the minimal
    upper-triangle bit string in graph6 column order (pair (i, j), i < j,
    ordered by j then i), rebuilt as a graph."""
    nbrs = adj(g)
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    best = min(
        tuple(p[j] in nbrs[p[i]] for i, j in pairs)
        for p in itertools.permutations(range(g.n))
    )
    return build_graph(g.n, [e for e, bit in zip(pairs, best) if bit])


def canonical_graph_by_levels(g):
    """Reference canonical form: the level-by-level vertex-order search
    that graphs.canonical_graph used before its independent prefix was
    deferred.

    Placing vertex v at position j of a vertex order fixes column j of the
    bit string: v's bits to the vertices placed before it, the first placed
    most significant.  The search keeps only the partial orders whose
    columns equal the least ones, skips v when a smaller unplaced twin u
    exists (N(u) - {v} == N(v) - {u}), and merges partial orders that give
    every unplaced vertex the same column so far."""
    n = g.n
    if n <= 1 or not g.edges:
        return build_graph(n, [])
    # one n-bit field per vertex: for an unplaced vertex, a marker bit
    # above its column so far; for a placed vertex, zero.  Each state maps
    # to the set of its unplaced vertices, one bit at the bottom of each
    # of their fields, which is also how neighbourhoods are held.
    field = (1 << n) - 1
    shift = range(0, n * n, n)
    unit = [1 << s for s in shift]
    spread = [0] * n
    for u, v in g.edges:
        spread[u] |= unit[v]
        spread[v] |= unit[u]
    smaller_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if spread[u] & ~unit[v] == spread[v] & ~unit[u]:
                smaller_twins[v] |= unit[u]
    verts = list(zip(shift, unit, spread, smaller_twins))
    start = sum(unit)
    states = {start: start}
    columns = []
    for j in range(n):
        best = field + 1
        nxt = {}
        for codes, unplaced in states.items():
            for s, bit, nb, twins in verts:
                col = codes >> s & field
                if not col or col > best or twins & unplaced:
                    continue
                if col < best:
                    best = col
                    nxt = {}
                rest = unplaced ^ bit
                nxt[(codes ^ col << s) << 1 | nb & rest] = rest
        states = nxt
        columns.append(best ^ 1 << j)
    edges = [
        (i, j)
        for j, col in enumerate(columns)
        for i in range(j)
        if col >> (j - 1 - i) & 1
    ]
    return build_graph(n, edges)


def _matches_pattern(g: Graph, w: DiagonalViolation) -> bool:
    e = g.has_edge
    req = [(w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v4)]
    forb = [(w.v1, w.v3), (w.v2, w.v4)]
    if w.kind == "C4":
        req.append((w.v4, w.v1))
    else:
        forb.append((w.v1, w.v4))
    return all(e(a, b) for a, b in req) and not any(e(a, b) for a, b in forb)


def _label_quad(g: Graph, quad: tuple[int, ...]) -> DiagonalViolation | None:
    inside = [
        (a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)
    ]
    deg = {v: 0 for v in quad}
    for a, b in inside:
        deg[a] += 1
        deg[b] += 1
    if len(inside) == 4 and all(d == 2 for d in deg.values()):
        # Square.  Anchor at the smallest vertex as v4; its non-neighbor in
        # the quad is v2; the two common neighbors become v1 < v3.
        v4 = quad[0]
        v2 = next(v for v in quad if v != v4 and not g.has_edge(v, v4))
        rest = sorted(v for v in quad if v not in (v4, v2))
        w = DiagonalViolation("C4", rest[0], v2, rest[1], v4)
    elif len(inside) == 3 and sorted(deg.values()) == [1, 1, 2, 2]:
        # Path.  v1 is the smaller endpoint, then walk along the path.
        ends = sorted(v for v in quad if deg[v] == 1)
        v1 = ends[0]
        v2 = next(v for v in quad if deg[v] == 2 and g.has_edge(v, v1))
        v3 = next(v for v in quad if deg[v] == 2 and v != v2)
        w = DiagonalViolation("P4", v1, v2, v3, ends[1])
    else:
        return None
    assert _matches_pattern(g, w)
    return w


def diagonal_violation_by_quads(g):
    """Reference violation search: every 4-set in lexicographic order,
    each labelled by this module's own copy of the package's labelling;
    the first square or path, or None."""
    for quad in itertools.combinations(range(g.n), 4):
        w = _label_quad(g, quad)
        if w is not None:
            return w
    return None


def random_trivially_perfect(rng, n):
    """A random graph on vertices 0..n-1 with the diagonal property, built
    from single vertices by disjoint unions (of a random split of the
    vertices) and cones (the apex the highest vertex), not yet
    relabelled."""
    if n == 1:
        return build_graph(1, [])
    if rng.random() < 0.5:
        k = rng.randint(1, n - 1)
        return disjoint_union(random_trivially_perfect(rng, k),
                              random_trivially_perfect(rng, n - k))
    return cone(random_trivially_perfect(rng, n - 1))


def partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most largest, each as a
    nonincreasing tuple."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        yield from ((part,) + rest for rest in partitions(n - part, part))


def graph_count(n: int) -> int:
    """The number of graphs on n vertices up to isomorphism (OEIS A000088),
    by Burnside's lemma: the mean over S_n of 2 ** (the cycles of the
    permutation on vertex pairs).  A permutation's cycle type, parts k,
    gives floor(k / 2) pair cycles inside each k-cycle and gcd(k, l)
    between a k-cycle and an l-cycle; n! / prod(k ** m_k * m_k!)
    permutations share the type, m_k its number of k-cycles (Harary &
    Palmer, Graphical Enumeration, 1973, ch. 4)."""
    total = 0
    for parts in partitions(n):
        perms = math.factorial(n)
        for k in set(parts):
            m = parts.count(k)
            perms //= k ** m * math.factorial(m)
        cycles = sum(k // 2 for k in parts)
        cycles += sum(math.gcd(k, l) for k, l in itertools.combinations(parts, 2))
        total += perms * 2 ** cycles
    return total // math.factorial(n)


@functools.cache
def rooted_trees(n: int) -> int:
    """The number of rooted trees on n vertices (OEIS A000081), by the
    Euler-transform recurrence a(n + 1) = (1/n) sum_{k=1..n}
    (sum_{d | k} d a(d)) a(n - k + 1), a(1) = 1."""
    if n == 1:
        return 1
    m = n - 1
    total = 0
    for k in range(1, m + 1):
        divisor_sum = sum(d * rooted_trees(d) for d in range(1, k + 1) if k % d == 0)
        total += divisor_sum * rooted_trees(m - k + 1)
    return total // m


@functools.cache
def elementary_classes(n: int) -> tuple:
    """The graph classes on n vertices with the diagonal property, each
    once, as sorted codes of the grammar that builds them from points by
    cones and disjoint unions.  A class is a multiset of connected ones,
    and a connected class on m vertices has a universal vertex, so it is
    the cone ("c", h) over a class h on m - 1 (all universal vertices are
    twins, so h is unique; a point is the cone over the empty graph
    ("u",)).  A union of two or more connected classes is ("u", parts...)
    with its parts sorted."""
    if n == 0:
        return (("u",),)
    connected = [(m, ("c", h)) for m in range(1, n + 1) for h in elementary_classes(m - 1)]

    def multisets(total, bound):
        # parts from connected[:bound] on total vertices, indices nonincreasing
        if total == 0:
            yield ()
        for i, (m, code) in enumerate(connected[:bound]):
            if m <= total:
                yield from ((code,) + rest for rest in multisets(total - m, i + 1))

    return tuple(sorted(
        parts[0] if len(parts) == 1 else ("u",) + tuple(sorted(parts))
        for parts in multisets(n, len(connected))
    ))


def graph_of_code(code) -> Graph:
    """The graph of an elementary_classes code: a cone's apex is its
    highest vertex, and a union lays out its parts in order."""
    if code[0] == "c":
        return cone(graph_of_code(code[1]))
    return functools.reduce(disjoint_union, map(graph_of_code, code[1:]), build_graph(0, []))


def decompose_by_single_peels(g, verts=None):
    """Reference decomposition tree, one cone per call: split the vertices
    into components in order of their least vertex, or else peel the lowest
    universal vertex; None when neither applies."""
    verts = tuple(range(g.n)) if verts is None else verts
    if len(verts) == 1:
        return LeafNode(verts[0])
    nbrs = adj(g)
    todo = set(verts)
    comps = []
    for start in verts:
        if start in todo:
            comp = [start]
            todo.remove(start)
            for v in comp:
                comp += [u for u in nbrs[v] if u in todo]
                todo.difference_update(nbrs[v])
            comps.append(tuple(sorted(comp)))
    if len(comps) > 1:
        children = tuple(decompose_by_single_peels(g, c) for c in comps)
        return None if None in children else UnionNode(children)
    vset = set(verts)
    for apex in verts:
        if len(nbrs[apex] & vset) == len(verts) - 1:
            base = decompose_by_single_peels(g, tuple(v for v in verts if v != apex))
            return None if base is None else ConeNode(apex, base)
    return None


def cliques_by_combinations(g, k):
    """Reference clique listing: every k-subset in lexicographic order,
    kept when all its pairs are edges."""
    if k == 0:
        return [()]
    if k == 1:
        return [(v,) for v in range(g.n)]
    nbrs = adj(g)
    out = []
    for combo in itertools.combinations(range(g.n), k):
        ok = True
        for a, b in itertools.combinations(combo, 2):
            if b not in nbrs[a]:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def dual_dims_by_traces(g, order):
    """dim A^!_k for k = 0..order, counted as traces, with no algebra.

    The quadratic dual A^! is the partially commutative algebra on x_v with
    x_u x_v = x_v x_u for each edge uv (Papadima & Suciu, Math. Ann. 334,
    2006), so dim A^!_k is the number of traces of length k; A is Koszul,
    so these are the coefficients of 1/H_A(-t).  Each trace has one
    Cartier-Foata normal form F_1 ... F_s (LNM 85, 1969): every step a
    nonempty clique, and every vertex of a step equal or non-adjacent to
    some vertex of the step before.  A dynamic program over the last step
    counts the forms, reading adjacency only."""
    n, full = g.n, (1 << g.n) - 1
    nbrs = [sum(1 << u for u in nb) for nb in adj(g)]
    # (mask, size, reach) per nonempty clique; the vertices of a step that
    # may follow it are those in its reach
    cliques = []
    level = [(1 << v, v, nbrs[v]) for v in range(n)]  # mask, top, common nbrs
    size = 1
    while level:
        for mask, _, _ in level:
            reach = 0
            for v in range(n):
                if mask >> v & 1:
                    reach |= full & ~nbrs[v]
            cliques.append((mask, size, reach))
        level = [
            (mask | 1 << u, u, common & nbrs[u])
            for mask, top, common in level
            for u in range(top + 1, n)
            if common >> u & 1
        ]
        size += 1
    # ends[k][mask]: the normal forms of length k whose last step is mask
    ends = [[0] * (1 << n) for _ in range(order + 1)]
    for mask, size, _ in cliques:
        if size <= order:
            ends[size][mask] += 1
    dims = [1] + [0] * order
    for k in range(1, order + 1):
        after = [0] * (1 << n)  # after[r]: forms of length k with reach r
        for mask, _, reach in cliques:
            dims[k] += ends[k][mask]
            after[reach] += ends[k][mask]
        # superset sums: after[s] becomes the number of forms of length k
        # that a step s may follow.  Each pass adds over the top index bit,
        # then rotates the index bits right, so n passes cover every bit.
        for _ in range(n):
            half = 1 << n - 1
            after[:half] = map(operator.add, after[:half], after[half:])
            after = after[::2] + after[1::2]
        for mask, size, _ in cliques:
            if k + size <= order:
                ends[k + size][mask] += after[mask]
    return dims


def strong_koszul_by_colons(ctx):
    """Reference strong check: for every (prefix set, divisor) pair,
    compute the colon with colon_ideal, read its degree-one generators by
    membership, and compare the colon with monomial_ideal_basis of those
    generators and the generators with the closed form."""
    d = ctx.dim(1)
    nbrs = adj(ctx.graph)
    divisors = [monomial_element(ctx, (u,)) for u in range(d)]
    # closed form: a_j a_u = 0 exactly for u itself and its non-neighbours
    killed_by = [
        {u} | {j for j in range(d) if j != u and j not in nbrs[u]} for u in range(d)
    ]
    pairs = 0
    failures = []
    for mask in range(2**d):
        prefix = tuple(j for j in range(d) if (mask >> j) & 1)
        if len(prefix) == d:
            continue
        ideal = monomial_ideal_basis(ctx, prefix)
        prefix_set = set(prefix)
        for u in range(d):
            if (mask >> u) & 1:
                continue
            pairs += 1
            colon = colon_ideal(ctx, ideal, divisors[u])
            j1 = colon.piece(1)
            computed = tuple(
                j for j in range(d) if j1.member(tuple(int(i == j) for i in range(d)))
            )
            predicted = tuple(sorted(prefix_set | killed_by[u]))
            regenerated = monomial_ideal_basis(ctx, computed)
            degree = None
            for n in range(1, ctx.D + 1):
                if regenerated.piece(n) != colon.piece(n):
                    degree = n
                    break
            if degree is not None or computed != predicted:
                failures.append(StrongPairFailure(
                    prefix, u, computed, predicted, degree
                ))
    return StrongKoszulReport(not failures, pairs, tuple(failures))


def span(p, ambient_dim, vectors):
    """The span of sparse vectors, iterables of (index, coeff) pairs with
    repeated indices adding up, in F_p^ambient_dim: rref of their dense
    rows."""
    rows = []
    for vec in vectors:
        row = [0] * ambient_dim
        for k, c in vec:
            row[k] += c
        rows.append(row)
    return rref(rows, p, ambient_dim=ambient_dim)


def space_of_rows(p, ambient_dim, rows):
    """The RowSpace whose basis is rows, dense rows already in canonical
    RREF, taken as they are: packed at p = 2 (bit j = coordinate j),
    tuples of residues at odd p."""
    if p == 2:
        basis = tuple(sum(1 << j for j, x in enumerate(r) if x % 2) for r in rows)
    else:
        basis = tuple(tuple(r) for r in rows)
    return RowSpace(p, ambient_dim, basis)


def sparse_rows(s):
    """The basis rows of the RowSpace s as sparse vectors, in basis order."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in s.rows)


def generator_map(ctx, g, n):
    """Reference multiplication by a_g from degree n to n + 1: for each
    basis monomial of degree n, its product with a_g as a sparse vector
    (no entry, or one (index, sign)), found by inserting g into the
    monomial and looking the result up in the next degree's index."""
    up = ctx.index[n + 1]
    images = []
    for mono in ctx.bases[n]:
        # a_g moves past the pos generators of mono below g
        pos = bisect.bisect_left(mono, g)
        k = None
        if pos == n or mono[pos] != g:
            k = up.get(mono[:pos] + (g,) + mono[pos:])
        images.append(() if k is None else ((k, -1 if pos & 1 else 1),))
    return tuple(images)


def ideal_from_degree_one_by_sparse_vectors(ctx, u):
    """Reference generated ideal: piece n+1 is the span of a_g x for every
    generator a_g and basis row x of piece n, each product a sparse vector
    read off ctx.gen_maps."""
    pieces = [zero_space(ctx.p, 1), u]
    for n in range(1, ctx.D):
        maps = ctx.gen_maps[n]
        images = [
            [(k, sign * c) for j, c in vec for k, sign in maps[gen][j]]
            for vec in sparse_rows(pieces[n])
            for gen in range(ctx.dim(1))
        ]
        pieces.append(span(ctx.p, ctx.dim(n + 1), images))
    return GradedIdeal(ctx, tuple(pieces))


def brute_by_all_subspaces(ctx):
    """Reference brute universal check: every degree-one subspace and
    every divisor class of it, in enumeration order, with no orbit
    reduction; every divisor checked is tested."""
    ideals = 0
    divisors = 0
    for u in enumerate_subspaces(ctx.p, ctx.dim(1)):
        ideals += 1
        ideal = ideal_from_degree_one(ctx, u)
        for vec in enumerate_coset_reps_mod_scalar(u):
            divisors += 1
            b = from_coeffs(ctx, 1, vec)
            colon = colon_ideal(ctx, ideal, b)
            ok, degree, _ = is_one_generated(ctx, colon)
            if not ok:
                return BruteResult(
                    False, BruteFailure(ideal, b, degree), ideals, divisors, divisors
                )
    return BruteResult(True, None, ideals, divisors, divisors)


def failure_degree_by_images(p, dims, maps, b):
    """Reference for koszul._failure_degree: the ideal J that Ann_B(b)_1
    generates, spanned by images in every degree (gfp.image_basis, read
    off the module at each call so that a test can count the calls),
    against Ann_B(b)_n, the kernel of multiplication by b, B_n ->
    B_{n+1}, and all of B_D.  None, or the least degree n where J_n is
    smaller."""
    D = len(dims) - 1
    if D < 2:
        return None
    generated = map_kernel(p, combine_maps(p, b, maps[0]), dims[2])
    for n in range(2, D + 1):
        generated = gfp.image_basis(p, maps[n - 2], generated, dims[n])
        if len(generated) == dims[n]:
            return None  # B_n, so every later degree is full too
        ann = dims[n]
        if n < D:
            ann -= map_rank(p, combine_maps(p, b, maps[n - 1]), dims[n + 1])
        if len(generated) < ann:
            return n
    return None


def first_divisors_by_stabiliser(u):
    """The coset representatives of u (enumerate_coset_reps_mod_scalar)
    that are first, in that order, in their orbit under the scalings t in
    (F_p^*)^d with tu = u: every such t is applied to every
    representative, which is then reduced modulo u and normalised to
    first nonzero entry 1."""
    p, d = u.p, u.ambient_dim
    stabiliser = [
        t for t in itertools.product(range(1, p), repeat=d)
        if rref([[x * t[j] for j, x in enumerate(row)] for row in u.rows], p, d) == u
    ]
    reps = list(enumerate_coset_reps_mod_scalar(u))
    order = {vec: i for i, vec in enumerate(reps)}

    def normalised(vec):
        v = u.reduce(vec)
        inv = pow(next(x for x in v if x), -1, p)
        return tuple(x * inv % p for x in v)

    firsts = set()
    for vec in reps:
        orbit = {normalised([x * t[j] for j, x in enumerate(vec)]) for t in stabiliser}
        assert orbit <= order.keys()
        firsts.add(min(orbit, key=order.get))
    return sorted(firsts, key=order.get)


def brute_cases():
    """(graph, prime) pairs the brute route is checked on: every class on
    <= 5 vertices at p = 2, on <= 4 at p = 3, on 3 at p = 7, at p = 5
    K3, the two 4-vertex classes that fail (P4 and C4), the 4-vertex star
    and 2K2, and P4 and C4 at p = 7."""
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            yield g, 2
            if n <= 4:
                yield g, 3
            if n == 3:
                yield g, 7
    yield complete(3), 5
    for g in (path4(), square4(), star(3), disjoint_union(complete(2), complete(2))):
        yield g, 5
    for g in (path4(), square4()):
        yield g, 7


def gaussian_binomial(p, d, k):
    """Number of k-dimensional subspaces of F_p^d, by the product formula."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(p, d):
    """Number of subspaces of F_p^d, all dimensions combined."""
    return sum(gaussian_binomial(p, d, k) for k in range(d + 1))


def degree_one_span(ctx, *vertex_sets):
    """Row space spanned by sums of generators, one sum per vertex set."""
    rows = []
    for vs in vertex_sets:
        row = [0] * ctx.dim(1)
        for v in vs:
            row[v] = 1
        rows.append(row)
    return rref(rows, ctx.p, ambient_dim=ctx.dim(1))


def contains(s, t):
    # whether the subspace t lies in the subspace s
    return all(s.member(r) for r in t.rows)


def product_law_checks(g1: Graph, g2: Graph, p: int = 2) -> bool:
    """Dimension laws for the two graph constructions, verified exactly:

    - disjoint union: dim A_n(g1 + g2) = dim A_n(g1) + dim A_n(g2) for n >= 1,
      and every product of a positive-degree g1-monomial with a positive-degree
      g2-monomial vanishes in the union algebra;
    - cone: dim A_n(cone g) = dim A_n(g) + dim A_{n-1}(g), for g1 and g2.
    """
    a1, a2 = AlgebraContext(g1, p), AlgebraContext(g2, p)
    union = disjoint_union(g1, g2)
    au = AlgebraContext(union, p)
    top = max(a1.D, a2.D)
    if au.D != top:
        return False
    for n in range(1, top + 1):
        if au.dim(n) != a1.dim(n) + a2.dim(n):
            return False
    for n1 in range(1, a1.D + 1):
        for m in a1.basis(n1):
            left = monomial_element(au, m)
            for n2 in range(1, a2.D + 1):
                for other in a2.basis(n2):
                    shifted = tuple(v + g1.n for v in other)
                    if any(multiply(left, monomial_element(au, shifted)).coeffs):
                        return False
    for g, alg in ((g1, a1), (g2, a2)):
        ac = AlgebraContext(cone(g), p)
        if ac.D != alg.D + 1:
            return False
        for n in range(1, ac.D + 1):
            if ac.dim(n) != alg.dim(n) + alg.dim(n - 1):
                return False
    return True
