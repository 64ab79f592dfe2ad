"""The exterior Stanley-Reisner algebra of a graph over a prime field.

For a graph with vertices 0..d-1, the algebra is the exterior algebra on
generators a_0..a_{d-1} modulo the monomials a_i ^ a_j for non-adjacent
pairs.  Its degree-n component has the n-cliques as a monomial basis
(strictly increasing index tuples), so the grading stops at the clique
number D and dim A_n equals the n-clique count.  Generators square to zero
for every p, including p = 2.

Elements are coefficient vectors against those bases.  The product of two
basis monomials M, N is zero when their supports meet or their union is
not a clique, and otherwise is the sorted union times (-1)**inv where inv
counts pairs (i in M, j in N) with i > j.

Of the products a_g m of a generator and a basis monomial, only the
nonzero ones are stored: a_g m is +-1 times the clique m + {g} when g
lies in the common neighbourhood of m, and zero otherwise.  Each
(n+1)-clique is such a product n + 1 times, so the algebra holds
sum_n (n+1) dim A_{n+1} products, linear in its cliques' total size,
where the dense maps "multiply by a_g" hold d * sum_n dim A_n images,
nearly all zero on a sparse graph.  Those maps, which generated ideals
and quotients read, are derived from the stored products once per
algebra, when first read, in gfp's native form (gfp.native_vectors),
which every reader takes as it is: one int per image at p = 2, and at
odd p a tuple of dim A_{n+1} residues.  Colon ideals read the products
themselves, and so never build the maps.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import InputError, ResourceLimitError
from .gfp import Prime, native_vectors
from .graphs import Graph, enumerate_cliques, neighbour_masks

Monomial = tuple  # strictly increasing vertex indices; () is the unit

# Largest order koszul_numerical_check expands 1/H(-t) to.
_DUAL_ORDER_LIMIT = 4096


class AlgebraContext:
    """Fixed bases and structure constants for one graph and one prime.

    Only the nonzero products of a generator with a basis monomial are
    stored (see the module docstring).  products[n][i] lists, for basis
    monomial i of degree n < D, one (g, target index, sign) per generator
    g in the common neighbourhood of the monomial, g ascending.  The
    generator maps gen_maps are derived from them when first read.
    Nothing else changes after construction, and the maps are the same
    whenever they are derived, so instances may be shared between
    threads.
    """

    def __init__(self, graph: Graph, p: int):
        self.graph = graph
        self.p = Prime(p)
        self.bases = enumerate_cliques(graph)
        self.D = len(self.bases) - 1
        self.index = tuple(
            {m: i for i, m in enumerate(basis)} for basis in self.bases
        )
        self.dims = tuple(len(basis) for basis in self.bases)
        self.products = tuple(
            _products(self.bases[n], self.bases[n + 1], self.index[n])
            for n in range(self.D)
        )

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.D else 0

    def basis(self, n: int) -> tuple:
        return self.bases[n] if 0 <= n <= self.D else ()

    @cached_property
    def gen_maps(self) -> tuple:
        """gen_maps[n][g]: multiplication by a_g, A_n -> A_{n+1} for n < D,
        as a native map (gfp): entry i is a_g times basis monomial i, an
        int at p = 2 and a residue tuple at odd p, read off products."""
        maps = []
        for n, level in enumerate(self.products):
            rows = [[()] * len(level) for _ in range(self.dim(1))]
            for i, prods in enumerate(level):
                for g, k, sign in prods:
                    rows[g][i] += ((k, sign),)
            maps.append(tuple(native_vectors(self.p, self.dim(n + 1), r) for r in rows))
        return tuple(maps)

    def basis_product(self, n1: int, i1: int, n2: int, i2: int):
        """Product of basis monomials as (sign, index in degree n1+n2), or
        None when the product vanishes."""
        m, other = self.bases[n1][i1], self.bases[n2][i2]
        n = n1 + n2
        if n > self.D:
            return None
        merged, inv = _merge_count(m, other)
        idx = None if merged is None else self.index[n].get(merged)
        return None if idx is None else (-1 if inv & 1 else 1, idx)


def _products(basis: tuple, up: tuple, here: dict) -> tuple:
    """The nonzero products a_g m for the monomials m of one degree n, as
    AlgebraContext.products holds them, from up, the basis of degree
    n + 1, and here, the index of degree n.  Each clique c of up is
    a_g m for each of its n + 1 vertices g, with m = c - {g}: a_g moves
    past the j vertices of m below g, where j is g's position in c.  The
    cliques run in lexicographic order, and m + {g} comes before m + {h}
    when g < h, so each monomial meets its generators in ascending
    order."""
    rows = [[] for _ in basis]
    for k, c in enumerate(up):
        for j, g in enumerate(c):
            rows[here[c[:j] + c[j + 1:]]].append((g, k, -1 if j & 1 else 1))
    return tuple(map(tuple, rows))


def _merge_count(m: Monomial, other: Monomial):
    """Merge two increasing tuples; None on shared entries, else the union
    and the count of pairs (x in m, y in other) with x > y."""
    inv = 0
    for y in other:
        if m and y <= m[-1]:
            pos = bisect_right(m, y)
            if pos and m[pos - 1] == y:
                return None, 0
            inv += len(m) - pos
    merged = tuple(sorted(m + other))
    return merged, inv


def build_algebra(graph: Graph, p: int) -> AlgebraContext:
    return AlgebraContext(graph, p)


class Element(NamedTuple):
    """Homogeneous element: a coefficient vector against one degree's basis.

    Degrees above the clique number carry the empty vector (the only such
    element is zero)."""

    ctx: AlgebraContext
    degree: int
    coeffs: tuple


def from_coeffs(ctx: AlgebraContext, n: int, coeffs) -> Element:
    coeffs = tuple(c % ctx.p for c in coeffs)
    if len(coeffs) != ctx.dim(n):
        raise InputError(
            f"coefficient vector of length {len(coeffs)} for dim {ctx.dim(n)}"
        )
    return Element(ctx, n, coeffs)


def koszul_numerical_check(hilbert, order: int | None = None) -> bool:
    """True when 1/H(-t) has nonnegative coefficients through t**order.

    H is given by its coefficient tuple; H(0) must be 1 (the series is then
    invertible over the integers and every coefficient is an integer).
    order defaults to max(12, top degree); an order below the top degree
    is an InputError, and orders above 4096 are refused with
    ResourceLimitError.  The decision is kept for each (H, order) once
    the input is checked: graphs with the same clique counts share it."""
    h = tuple(int(c) for c in hilbert)
    if order is None:
        order = max(12, len(h) - 1)
    if order > _DUAL_ORDER_LIMIT:
        raise ResourceLimitError(
            f"dual series order {order} refused: exceeds {_DUAL_ORDER_LIMIT}"
        )
    if not h or h[0] != 1:
        raise InputError("Hilbert series must have constant term 1")
    if order < len(h) - 1:
        raise InputError(
            f"order {order} is below the top degree {len(h) - 1}"
        )
    return _dual_series_nonneg(h, order)


@lru_cache(maxsize=4096)
def _dual_series_nonneg(h: tuple, order: int) -> bool:
    c = [(-1) ** k * h[k] for k in range(len(h))]
    inv = [1]
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, min(n, len(c) - 1) + 1):
            acc += c[k] * inv[n - k]
        coeff = -acc
        if coeff < 0:
            return False
        inv.append(coeff)
    return True


def pbw_check(ctx: AlgebraContext) -> bool:
    """True when bases[n] is the n-cliques, each once in increasing order,
    for every n: the PBW basis.  Induction from bases[0] = {()}: the sizes
    of the n-cliques' common neighbourhoods sum to n+1 times the number of
    (n+1)-cliques, which bases[n+1] must match (0 past the top degree)."""
    nbrs = neighbour_masks(ctx.graph)
    above = [len(basis) for basis in ctx.bases[1:]] + [0]
    if ctx.bases[:1] != (((),),):
        return False
    for n, basis in enumerate(ctx.bases):
        if len({c for c in basis if len(c) == n}) != len(basis):
            return False
        total = 0
        for clique in basis:
            common, last = (1 << len(nbrs)) - 1, -1
            for v in clique:
                if v <= last or not common >> v & 1:
                    return False
                common, last = common & nbrs[v], v
            total += common.bit_count()
        if total != (n + 1) * above[n]:
            return False
    return True


def element_string(x: Element) -> str:
    terms = []
    basis = x.ctx.basis(x.degree)
    for idx, c in enumerate(x.coeffs):
        if not c:
            continue
        m = monomial_string(basis[idx])
        terms.append(m if c == 1 else f"{c}*{m}")
    return "+".join(terms) if terms else "0"


def monomial_string(mono: Monomial) -> str:
    return "*".join(f"a{i}" for i in mono) if mono else "1"
