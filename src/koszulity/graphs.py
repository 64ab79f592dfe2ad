"""Finite simple graphs: parsing, cliques, the diagonal property, and
elementary-type decompositions.

Vertices are 0..n-1.  Graphs, violations and decomposition nodes are
typing.NamedTuple records, so immutable; a Graph stores its edges as a
frozenset of (u, v) pairs with u < v, the only adjacency it holds.  The
"diagonal property" holds when no four vertices induce a square (C4) or a
path (P4); graphs with the property are exactly those built from single
vertices by disjoint unions and cones, and elementary_type_decomposition
recovers such a construction or reports a violating 4-set.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, ResourceLimitError
from .gfp import ENUMERATION_GUARD, count_text

CANONICAL_MAX_VERTICES = 8


class Graph(NamedTuple):
    n: int
    edges: frozenset

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def _refuse_vertex_count(n: int) -> None:
    # before any list per vertex: n vertices give n + 1 cliques, () included
    if n >= ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"graph refused: {count_text(n)} vertices give more than 2**20 cliques"
        )


def neighbour_masks(g: Graph) -> list[int]:
    """Each vertex's open neighbourhood as an int bitmask, bit w for
    neighbour w, built in one pass over the edges.  Not cached on g:
    a vertex's mask is as wide as its highest neighbour."""
    _refuse_vertex_count(g.n)
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def smaller_twins(nbrs, units) -> list[int]:
    """For each vertex v, the union of units[u] over its twins u < v,
    N(u) - {v} == N(v) - {u}, with units[w] vertex w's bit and nbrs[w]
    the union of its neighbours' bits.  Non-adjacent twins have equal
    open neighbourhoods and adjacent twins equal closed ones, and no open
    neighbourhood is a closed one (v in N(u) = N[v] puts u in N[v])."""
    below, seen = [], {}  # seen: a neighbourhood -> the bits of the vertices with it
    for nb, bit in zip(nbrs, units):
        closed = nb | bit
        below_open, below_closed = seen.get(nb, 0), seen.get(closed, 0)
        below.append(below_open | below_closed)
        seen[nb], seen[closed] = below_open | bit, below_closed | bit
    return below


def build_graph(n: int, edges) -> Graph:
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    norm = set()
    for u, v in edges:
        if u == v:
            raise InputError(
                f"loop ({u}, {u}) rejected: graphs here are simple and loop-free"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
        norm.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(norm))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then one "u v" pair per
    line; '#' starts a comment, blank lines are skipped."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise InputError("empty edge-list input")
    try:
        n = int(rows[0])
    except ValueError:
        raise InputError(f"first line must be the vertex count, got {rows[0]!r}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected 'u v' on edge line, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"non-integer vertex on edge line {line!r}")
        edges.append((u, v))
    return build_graph(n, edges)


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 string (n <= 62)."""
    s = line.strip()
    header = ">>graph6<<"
    if s.startswith(header):
        s = s[len(header):]
    if not s:
        raise InputError("empty graph6 input")
    if s[0] == "~":
        raise InputError("long-form graph6 (n >= 63) is not supported")
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise InputError(f"invalid graph6 size byte {s[0]!r}")
    m = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (m + 5) // 6:
        raise InputError(
            f"graph6 body for n={n} needs {(m + 5) // 6} bytes, got {len(body)}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise InputError(f"invalid graph6 byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[m:]):
        raise InputError("nonzero padding bits in graph6 encoding")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


@lru_cache(maxsize=16)
def _graph6_layout(n: int) -> tuple[dict, range]:
    """The bit of each pair (i, j), i < j, in the short-form graph6 body
    on n vertices, and the shifts of its 6-bit groups, first bit most
    significant."""
    # Pair (i, j) is bit j(j-1)/2 + i of the upper triangle in column
    # order, padded to whole 6-bit groups.
    m = n * (n - 1) // 2
    size = -(-m // 6) * 6
    bit = {
        (i, j): 1 << (size - 1 - j * (j - 1) // 2 - i)
        for j in range(n) for i in range(j)
    }
    return bit, range(size - 6, -1, -6)


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise InputError("short-form graph6 supports at most 62 vertices")
    bit, shifts = _graph6_layout(g.n)
    bits = sum(map(bit.__getitem__, g.edges))
    return chr(g.n + 63) + "".join([chr((bits >> s & 63) + 63) for s in shifts])


def enumerate_cliques(g: Graph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every clique by size, in one pass: entry k holds the k-cliques as
    sorted vertex tuples in lexicographic order, for k = 0 up to the
    clique number, the last entry's size.

    Each k-clique is extended by its common neighbours above its last
    vertex, held as an int bitmask, so the work grows with the number of
    cliques rather than of k-subsets (Chiba & Nishizeki, "Arboricity and
    subgraph listing algorithms", SIAM J. Comput. 14(1), 1985).  Refuses
    with ResourceLimitError once it has more than 2**20, () included."""
    _refuse_vertex_count(g.n)
    above = [0] * g.n  # above[v]: the neighbours of v greater than v
    for u, v in g.edges:  # u < v
        above[u] |= 1 << v
    levels = [((),)]
    level = [((v,), above[v]) for v in range(g.n)]
    count = 1
    while level:
        levels.append(tuple(clique for clique, _ in level))
        count += len(level)
        room = ENUMERATION_GUARD - count  # cliques the next level may hold
        grown = []
        for clique, common in level:
            while common:
                low = common & -common
                w = low.bit_length() - 1
                grown.append((clique + (w,), common & above[w]))
                common ^= low
            if len(grown) > room:
                raise ResourceLimitError(
                    f"clique listing refused: more than 2**20 cliques on {g.n} vertices"
                )
        level = grown
    return tuple(levels)


class DiagonalViolation(NamedTuple):
    """Four vertices inducing a square or a path, labeled so that
    v1-v2, v2-v3, v3-v4 are edges (and v4-v1 as well for kind C4) while
    v1-v3 and v2-v4 are non-edges (and v1-v4 for kind P4)."""

    kind: str  # "C4" or "P4"
    v1: int
    v2: int
    v3: int
    v4: int


def _matches_pattern(g: Graph, w: DiagonalViolation) -> bool:
    e = g.has_edge
    req = [(w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v4)]
    forb = [(w.v1, w.v3), (w.v2, w.v4)]
    if w.kind == "C4":
        req.append((w.v4, w.v1))
    else:
        forb.append((w.v1, w.v4))
    return all(e(a, b) for a, b in req) and not any(e(a, b) for a, b in forb)


def diagonal_violation(
    g: Graph, nbrs: list[int] | None = None
) -> DiagonalViolation | None:
    """First violating 4-set in lexicographic order, or None.  nbrs, when
    given, is neighbour_masks(g), which the caller has built already.

    Edge lemma: an edge xy lies in an induced C4 or P4 iff X = N(x) - N[y]
    and Y = N(y) - N[x] are both nonempty.  Any x' in X and y' in Y give
    x'-x-y-y', a C4 if x'y' is an edge and a P4 if not; a P4's middle edge
    and every edge of a C4 are such edges.  Putting min X and min Y in
    place of x' and y' lowers the sorted 4-set coordinate by coordinate,
    so the first one is the least sorted (x, y, min X, min Y) over these
    edges: one pass, on open neighbourhoods as bitmasks.  It is labelled
    from the walk x'-x-y-y' that found it: the square from its least
    vertex as v4, the opposite one as v2 and the other two in order as
    v1 < v3; the path from its lesser end.  The graphs without such an
    edge are the trivially perfect ones (Golumbic, Discrete Math. 24,
    1978)."""
    if nbrs is None:
        nbrs = neighbour_masks(g)
    best = (g.n,)  # after every 4-set
    for x, y in g.edges:
        only_x = (nbrs[x] & ~nbrs[y]) ^ (1 << y)  # y is in N(x), not in N(y)
        only_y = (nbrs[y] & ~nbrs[x]) ^ (1 << x)
        if only_x and only_y:
            a, d = [(s & -s).bit_length() - 1 for s in (only_x, only_y)]
            best = min(best, (*sorted((a, x, y, d)), (a, x, y, d)))
    if len(best) == 1:
        return None
    walk = best[4]
    if nbrs[walk[0]] >> walk[3] & 1:
        i = walk.index(best[0])
        v1, v3 = sorted((walk[i - 1], walk[i - 3]))
        w = DiagonalViolation("C4", v1, walk[i - 2], v3, best[0])
    else:
        w = DiagonalViolation("P4", *(walk if walk[0] < walk[3] else walk[::-1]))
    assert _matches_pattern(g, w)
    return w


class LeafNode(NamedTuple):
    vertex: int


class UnionNode(NamedTuple):
    children: tuple


class ConeNode(NamedTuple):
    apex: int
    base: object


def elementary_type_decomposition(g: Graph):
    """Decomposition tree (LeafNode / UnionNode / ConeNode) when the graph
    has the diagonal property, otherwise the DiagonalViolation witnessing
    failure: the rooted forest of Yan, Chen & Chang (Discrete Appl. Math.
    69, 1996).  In the order by (-degree, vertex) each vertex's parent is
    its last neighbour ahead of it, and the property holds iff N[v] lies
    in N[parent] for every v.  Only if: closed neighbourhoods nest along
    edges (the edge lemma of diagonal_violation), and the parent's degree
    is at least v's.  If: by induction on the order, a neighbour of v
    ahead of its parent lies in N[parent], so it is an ancestor of the
    parent; the inclusions chain, so v is adjacent to all its ancestors,
    and the graph is the forest's comparability graph.  On bitmasks, the
    parent is the vertex p whose own neighbours ahead of it, with p, are
    exactly v's neighbours ahead of v: p is then the last of them, and
    while every check so far holds, v's neighbours ahead of it are its
    parent's ancestors and the parent, so finding no such p is a failed
    check; each vertex costs a few mask operations, not one per edge.
    Bottom-up, a vertex is a leaf or a cone over its child's tree or the
    union of its children's in order of least vertex, as are the roots:
    apexes nest lowest outermost, and a clique keeps its highest vertex
    as the leaf.
    """
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    nbrs, n = neighbour_masks(g), g.n
    order = sorted(range(n), key=lambda v: (-nbrs[v].bit_count(), v))
    placed = 0  # the vertices with a neighbour that are ahead of v
    owner = {0: n}  # a placed vertex with the neighbours ahead of it, to the vertex
    children: list[list[int]] = [[] for _ in range(n + 1)]  # [n]: the roots
    for v in order:
        nb = nbrs[v]
        ahead = nb & placed
        parent = owner.get(ahead)
        # N[v] not in N[parent], or no parent with exactly v's ahead neighbours
        if parent is None or parent < n and nb & ~nbrs[parent] != 1 << parent:
            w = diagonal_violation(g, nbrs)
            if w is None:  # unreachable: the check fails only without the property
                raise RuntimeError("decomposition failed yet no violating 4-set exists")
            return w
        if nb:
            placed |= 1 << v
            owner[ahead | 1 << v] = v
        children[parent].append(v)
    node: list = [None] * n
    least = list(range(n))  # the least vertex of each vertex's tree

    def join(tops):
        if len(tops) == 1:
            return node[tops[0]]
        tops.sort(key=least.__getitem__)
        return UnionNode(tuple(node[t] for t in tops))

    for v in reversed(order):  # children come after their parent
        if children[v]:
            node[v] = ConeNode(v, join(children[v]))
            least[v] = min(v, least[children[v][0]])  # join sorted them
        else:
            node[v] = LeafNode(v)
    return join(children[n])


# The memo key packs pair (i, j), i < j < 8, at bit 4 + j(j - 1)/2 + i,
# above n in the low four bits; _PAIR_BIT[8*i + j] is that bit.
_PAIR_BIT = [
    1 << 4 + max(i, j) * (max(i, j) - 1) // 2 + min(i, j)
    for i in range(8) for j in range(8)
]
CANONICAL_MEMO_SIZE = 2 ** 16  # entries; the memo is cleared when full
# int keys, the inputs' _invariant_key, and each stored result under itself
_canonical_memo: dict[int | Graph, Graph] = {}


def _invariant_key(g: Graph) -> int:
    """g relabelled by (degree, sum of the squared neighbour degrees,
    vertex), packed into one int.  Isomorphic graphs often share it, and
    equal keys mean isomorphic graphs: the key is a copy of g."""
    n, edges = g.n, g.edges
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    square = [d * d for d in deg]
    weight = [d << 9 for d in deg]  # the sum of squares is at most 7 * 7**2 < 2**9
    for u, v in edges:
        weight[u] += square[v]
        weight[v] += square[u]
    pos = [0] * n
    for i, v in enumerate(sorted(range(n), key=weight.__getitem__)):  # stable
        pos[v] = i
    key = n
    for u, v in edges:
        key |= _PAIR_BIT[8 * pos[u] + pos[v]]
    return key


def canonical_graph(g: Graph) -> Graph:
    """Isomorphic copy with the lexicographically minimal adjacency bits
    (upper triangle in graph6 column order) over all vertex permutations.

    The result is memoised under _invariant_key(g), a relabelling of g
    that isomorphic inputs often share, and under itself, so each class
    keeps one Graph, and a stored result, or any graph equal to one,
    comes back with no key computed and no search.  This is exact: the
    minimum over all n! orders depends only on the isomorphism class,
    any graph with the same key is isomorphic to g, and a canonical
    graph is its own canonical form, so a stored result is the one
    _canonical_search(g) would return.  (A vertex invariant cutting
    canonical-labelling work, as in McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014.)  The memo holds at
    most CANONICAL_MEMO_SIZE entries, of both kinds, and is cleared when
    full.
    """
    n = g.n
    if n > CANONICAL_MAX_VERTICES:
        raise ResourceLimitError(
            f"canonical form refused for n={n} > {CANONICAL_MAX_VERTICES} "
            "(vertex-order search, exponential in the worst case)"
        )
    found = _canonical_memo.get(g)
    if found is None:
        key = _invariant_key(g)
        found = _canonical_memo.get(key)
        if found is None:
            if len(_canonical_memo) > CANONICAL_MEMO_SIZE - 2:
                _canonical_memo.clear()
            found = _canonical_search(g)
            found = _canonical_memo.setdefault(found, found)
            _canonical_memo[key] = found
    return found


@lru_cache(maxsize=None)
def _search_layout(n: int) -> tuple:
    """_canonical_search's constants for n vertices: the n-bit field, the
    shift and unit bit of each vertex's field, the set of all vertices,
    and pairs[j][col], the pairs (i, j) whose bits are set in column col
    at position j (bit j - 1 - i is the pair (i, j))."""
    shift = range(0, n * n, n)
    unit = [1 << s for s in shift]
    pairs = [
        [tuple((j - 1 - k, j) for k in range(j) if col >> k & 1)
         for col in range(1 << j)]
        for j in range(n)
    ]
    return (1 << n) - 1, shift, unit, sum(unit), pairs


def _canonical_search(g: Graph) -> Graph:
    """canonical_graph(g) without the memo, for n <= 8.

    Placing vertex v at position j of a vertex order fixes column j of the
    bit string: v's bits to the vertices placed before it, the first placed
    most significant.  The first k columns are zero exactly when the first
    k vertices are independent, so the minimum opens with alpha zero
    columns, alpha the independence number, and any order of any maximum
    independent set I gives them.  The search has two phases.

    Phase 1 grows independent sets as sets, each in ascending vertex order,
    until they are maximum.  Phase 2 places the other vertices one per
    level and keeps only the partial orders whose columns equal the least
    ones; a larger column never leads to the minimum.  The order of I is
    left open: I is held as an ordered partition into cells, and placing u
    splits each cell into its non-neighbours of u, then its neighbours of
    u.  So every cell is homogeneous for every vertex placed after I, no
    order inside a cell changes a placed column, and a candidate's least
    column over I reads, cell by cell, its zeros and then its ones; the
    split keeps exactly the orders of I that give that least column.  Then
    come its bits to the vertices placed after I, the first most
    significant.  At the first level after I there is one cell and no
    such bit, so the least column is the fewest ones: the fewest
    neighbours in I.  Each level visits only the unplaced vertices.

    Both phases skip v while a smaller twin u is unplaced
    (N(u) - {v} == N(v) - {u}), since the automorphism (u v) fixes the
    placed vertices; in phase 1 such swaps turn every maximum independent
    set into one that is kept.  Phase 2 merges partial orders with the
    same cells that give every unplaced vertex the same column so far,
    since later columns depend on nothing else.  The result equals the n!
    minimum bit for bit.
    """
    n = g.n
    if n <= 1 or not g.edges:
        return Graph(n, frozenset())
    # Vertex v owns the n-bit field at bit n*v.  A set of vertices (a cell,
    # a neighbourhood, the unplaced vertices) is one bit at the bottom of
    # each member's field.  In phase 2 a state packs, for each unplaced
    # vertex, a marker bit above its bits to the vertices placed after I,
    # in placement order, and zero for a placed vertex.  At level j every
    # marker sits at bit j - alpha, so fields compare as columns do, and
    # placing v is one shift plus the bits of v's neighbours.
    field, shift, unit, everyone, pairs = _search_layout(n)
    spread = [0] * n
    for u, v in g.edges:
        spread[u] |= unit[v]
        spread[v] |= unit[u]
    vertex = dict(zip(unit, zip(shift, spread, smaller_twins(spread, unit))))  # by bit
    # Phase 1: each independent set with the vertices above its last one
    # that it may still take
    grown = [(0, everyone)]
    while grown:
        sets, grown = grown, []
        for chosen, free in sets:
            while free:
                bit = free & -free
                free ^= bit
                _, nb, twins = vertex[bit]
                if not twins & ~chosen:
                    grown.append((chosen | bit, free & ~nb))
    alpha = sets[0][0].bit_count()
    # Phase 2, level alpha.  A winner is (codes, cells, unplaced, nb): the
    # partial order's state before the split by nb, v's neighbours.
    fewest, winners = n, []
    for chosen, _ in sets:
        unplaced = everyone ^ chosen
        rest = unplaced
        while rest:
            bit = rest & -rest
            rest ^= bit
            _, nb, twins = vertex[bit]
            if twins & unplaced:
                continue
            ones = (chosen & nb).bit_count()
            if ones > fewest:
                continue
            if ones < fewest:
                fewest = ones
                winners = []
            winners.append((unplaced ^ bit, (chosen,), unplaced ^ bit, nb))
    columns = [0] * alpha + [(1 << fewest) - 1]
    for j in range(alpha + 1, n):
        # each state, (codes, cells), maps to its unplaced vertices
        states = {}
        for codes, cells, unplaced, nb in winners:
            split = []
            for c in cells:
                inside = c & nb
                if inside != c:
                    split.append(c ^ inside)
                if inside:
                    split.append(inside)
            states[codes << 1 | nb & unplaced, tuple(split)] = unplaced
        after = j - alpha  # vertices placed after I
        marker = 1 << after
        best = 1 << j
        winners = []
        for (codes, cells), unplaced in states.items():
            rest = unplaced
            while rest:
                bit = rest & -rest
                rest ^= bit
                s, nb, twins = vertex[bit]
                if twins & unplaced:
                    continue
                code = codes >> s & field
                over_i = 0
                for c in cells:
                    over_i = over_i << c.bit_count() | (1 << (c & nb).bit_count()) - 1
                col = over_i << after | code ^ marker
                if col > best:
                    continue
                if col < best:
                    best = col
                    winners = []
                winners.append((codes ^ code << s, cells, unplaced ^ bit, nb))
        columns.append(best)
    edges = itertools.chain.from_iterable(map(list.__getitem__, pairs, columns))
    return Graph(n, frozenset(edges))


def canonical_form(g: Graph) -> str:
    """Canonical key: graph6 string of canonical_graph(g).  Two graphs get
    equal keys exactly when they are isomorphic."""
    return to_graph6(canonical_graph(g))


def class_share(n: int, share: int, shares: int) -> tuple[Graph, ...]:
    """The isomorphism classes on exactly n vertices whose edge count is
    congruent to share mod shares, as canonical representatives sorted by
    canonical key; nonisomorphic_graphs(n) is share 0 of 1.

    Each class on n - 1 vertices is extended by a new vertex n - 1 joined
    to each subset of its vertices, and every candidate's canonical_graph
    goes into one set; every n-vertex graph arises this way (delete its
    last vertex).  A class with e edges takes only the subsets whose size
    is congruent to share - e mod shares, in the order of their masks.
    The new vertex's edge sets are built once per call and shared by
    every class, so a candidate costs one frozenset union.  Isomorphic
    candidates have the same edge count, so a share meets every candidate
    of its own classes and none of another's: its canonical_graph memo
    hits are those of the whole enumeration, and the searches of the
    shares add up to the whole set's.  The classes returned are the
    memo's own results, so canonical_graph (and canonical_form) on them
    computes no key and searches nothing while the memo holds them.
    """
    if n < 1:
        raise InputError("class enumeration needs n >= 1")
    if n == 1:
        return (build_graph(1, []),) if share == 0 else ()
    last = n - 1
    # by_size[s]: the edges from the new vertex to each subset whose size
    # is s mod shares, normalised already, so no build_graph
    by_size: list[list[frozenset]] = [[] for _ in range(shares)]
    for mask in range(2 ** last):
        by_size[mask.bit_count() % shares].append(
            frozenset((v, last) for v in range(last) if mask >> v & 1)
        )
    found = {
        canonical_graph(Graph(n, g.edges | extra))
        for g in nonisomorphic_graphs(last)
        for extra in by_size[(share - len(g.edges)) % shares]
    }
    return tuple(sorted(found, key=to_graph6))


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on exactly n vertices, as canonical
    representatives sorted by canonical key: class_share(n, 0, 1), kept
    for each n."""
    return class_share(n, 0, 1)
