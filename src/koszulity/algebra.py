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
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import InputError
from .gfp import Prime, rref
from .graphs import (
    Graph,
    clique_number,
    cone,
    disjoint_union,
    enumerate_cliques,
)

Monomial = tuple  # strictly increasing vertex indices; () is the unit

_MISSING = object()


class AlgebraContext:
    """Fixed bases and structure constants for one graph and one prime.

    The maps "multiply by generator g from degree n to n+1" are built once,
    at construction.  Immutable after construction; the product cache fills
    lazily but idempotently, so instances may be shared between threads in
    CPython.
    """

    def __init__(self, graph: Graph, p: int):
        self.graph = graph
        self.p = Prime(p)
        self.D = clique_number(graph)
        self.bases = tuple(
            tuple(enumerate_cliques(graph, k)) for k in range(self.D + 1)
        )
        self.index = tuple(
            {m: i for i, m in enumerate(basis)} for basis in self.bases
        )
        self.dims = tuple(len(basis) for basis in self.bases)
        # gen_maps[n][g][i]: a_g times basis monomial i of degree n < D, as
        # a sparse vector of degree n+1 (no entry, or one (index, sign))
        self.gen_maps = tuple(
            tuple(_generator_map(self, g, n) for g in range(self.dim(1)))
            for n in range(self.D)
        )
        self._products: dict = {}
        self._ideal_cache: dict = {}      # used by the ideals module
        self._monomial_cache: dict = {}   # used by the ideals module

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.D else 0

    def basis(self, n: int) -> tuple:
        return self.bases[n] if 0 <= n <= self.D else ()

    def basis_product(self, n1: int, i1: int, n2: int, i2: int):
        """Product of basis monomials as (sign, index in degree n1+n2), or
        None when the product vanishes."""
        key = (n1, i1, n2, i2)
        hit = self._products.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        m, other = self.bases[n1][i1], self.bases[n2][i2]
        out = None
        n = n1 + n2
        if n <= self.D:
            merged, inv = _merge_count(m, other)
            if merged is not None:
                idx = self.index[n].get(merged)
                if idx is not None:
                    out = (-1 if inv & 1 else 1, idx)
        self._products[key] = out
        return out


def _generator_map(ctx: AlgebraContext, g: int, n: int) -> tuple:
    up = ctx.index[n + 1]
    images = []
    for mono in ctx.bases[n]:
        # a_g moves past the pos generators of mono below g
        pos = bisect_left(mono, g)
        k = None
        if pos == n or mono[pos] != g:
            k = up.get(mono[:pos] + (g,) + mono[pos:])
        images.append(() if k is None else ((k, -1 if pos & 1 else 1),))
    return tuple(images)


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


@dataclass(frozen=True)
class Element:
    """Homogeneous element: a coefficient vector against one degree's basis.

    Degrees above the clique number carry the empty vector (the only such
    element is zero)."""

    ctx: AlgebraContext
    degree: int
    coeffs: tuple

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        _check_match(self, other)
        p = self.ctx.p
        return Element(
            self.ctx,
            self.degree,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "Element") -> "Element":
        _check_match(self, other)
        p = self.ctx.p
        return Element(
            self.ctx,
            self.degree,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, c: int) -> "Element":
        p = self.ctx.p
        c %= p
        return Element(self.ctx, self.degree, tuple((c * a) % p for a in self.coeffs))

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __str__(self) -> str:
        return element_string(self)


def _check_match(x: Element, y: Element) -> None:
    if x.ctx is not y.ctx:
        raise InputError("elements from different algebra contexts")
    if x.degree != y.degree:
        raise InputError(f"degree mismatch: {x.degree} != {y.degree}")


def zero(ctx: AlgebraContext, n: int) -> Element:
    return Element(ctx, n, (0,) * ctx.dim(n))


def unit(ctx: AlgebraContext) -> Element:
    return Element(ctx, 0, (1,))


def generator(ctx: AlgebraContext, i: int) -> Element:
    if not 0 <= i < ctx.dim(1):
        raise InputError(f"no generator a{i}: graph has {ctx.dim(1)} vertices")
    return Element(ctx, 1, tuple(1 if j == i else 0 for j in range(ctx.dim(1))))


def monomial_element(ctx: AlgebraContext, mono: Monomial) -> Element:
    n = len(mono)
    idx = ctx.index[n].get(tuple(mono)) if n <= ctx.D else None
    if idx is None:
        raise InputError(f"{mono} is not a clique of the graph")
    return Element(ctx, n, tuple(1 if j == idx else 0 for j in range(ctx.dim(n))))


def from_coeffs(ctx: AlgebraContext, n: int, coeffs) -> Element:
    coeffs = tuple(c % ctx.p for c in coeffs)
    if len(coeffs) != ctx.dim(n):
        raise InputError(
            f"coefficient vector of length {len(coeffs)} for dim {ctx.dim(n)}"
        )
    return Element(ctx, n, coeffs)


def multiply(x: Element, y: Element) -> Element:
    if x.ctx is not y.ctx:
        raise InputError("elements from different algebra contexts")
    ctx = x.ctx
    n = x.degree + y.degree
    if n > ctx.D:
        return zero(ctx, n)
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


def normal_form(ctx: AlgebraContext, word) -> Element:
    """Rewrite the product a_{w1} a_{w2} ... of an arbitrary index word:
    zero on repeated indices or non-clique support, otherwise +-1 times the
    sorted monomial (sign from the sorting permutation's inversions)."""
    word = tuple(word)
    for i in word:
        if not 0 <= i < ctx.dim(1):
            raise InputError(f"index {i} out of range")
    n = len(word)
    if len(set(word)) < n:
        return zero(ctx, n)
    if n > ctx.D:
        return zero(ctx, n)
    mono = tuple(sorted(word))
    idx = ctx.index[n].get(mono)
    if idx is None:
        return zero(ctx, n)
    inv = sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if word[a] > word[b]
    )
    c = 1 if inv % 2 == 0 else ctx.p - 1
    return Element(ctx, n, tuple(c if j == idx else 0 for j in range(ctx.dim(n))))


def hilbert_series(ctx: AlgebraContext) -> tuple:
    return ctx.dims


def koszul_numerical_check(hilbert, order: int = 12) -> bool:
    """True when 1/H(-t) has nonnegative coefficients through t**order.

    H is given by its coefficient tuple; H(0) must be 1 (the series is then
    invertible over the integers and every coefficient is an integer)."""
    h = tuple(int(c) for c in hilbert)
    if not h or h[0] != 1:
        raise InputError("Hilbert series must have constant term 1")
    if order < len(h) - 1:
        raise InputError(
            f"order {order} is below the top degree {len(h) - 1}"
        )
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
    """Normal monomials (strictly increasing words surviving normal_form)
    must be dim A_n many and linearly independent in every degree n <= D."""
    d = ctx.dim(1)
    for n in range(ctx.D + 1):
        survivors = []
        for word in itertools.combinations(range(d), n):
            e = normal_form(ctx, word)
            if not e.is_zero():
                survivors.append(e.coeffs)
        if len(survivors) != ctx.dim(n):
            return False
        if rref(survivors, ctx.p, ctx.dim(n)).rank != ctx.dim(n):
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
                    if not multiply(left, monomial_element(au, shifted)).is_zero():
                        return False
    for g, alg in ((g1, a1), (g2, a2)):
        ac = AlgebraContext(cone(g), p)
        if ac.D != alg.D + 1:
            return False
        for n in range(1, ac.D + 1):
            if ac.dim(n) != alg.dim(n) + alg.dim(n - 1):
                return False
    return True
