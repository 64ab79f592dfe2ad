"""Graded ideals of the algebra, stored extensionally degree by degree.

A GradedIdeal keeps one RowSpace per degree 0..D.  Proper ideals have a
zero degree-0 piece; the unit ideal (which colon computation can produce)
has every piece full, including degree 0.

Two independent routes build ideals generated in degree one:

- ideal_from_degree_one iterates multiplication by the generators on
  native vectors: piece n+1 is gfp.image_span of the context's generator
  maps of degree n (AlgebraContext.gen_maps) on piece n's native basis;
- monomial_ideal_basis, available when the generators are a subset S of
  the vertex generators, spans each degree by the basis monomials whose
  support meets S.

Their agreement on common inputs is a checked invariant of the package,
not an assumption: keep both routes intact.

colon_ideal reads the context's stored products (AlgebraContext.products)
rather than its generator maps: each degree's map x -> x*b is formed
from them directly, so a colon never builds the generator maps.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraContext, Element, from_coeffs
from .errors import InputError
from .gfp import (
    RowSpace,
    coordinate_space,
    full_space,
    image_kernel,
    image_span,
    native_vectors,
    zero_space,
)


class GradedIdeal(NamedTuple):
    ctx: AlgebraContext
    pieces: tuple  # RowSpace per degree 0..D

    def piece(self, n: int) -> RowSpace:
        return self.pieces[n]


def zero_ideal(ctx: AlgebraContext) -> GradedIdeal:
    return GradedIdeal(
        ctx, tuple(zero_space(ctx.p, ctx.dim(n)) for n in range(ctx.D + 1))
    )


def unit_ideal(ctx: AlgebraContext) -> GradedIdeal:
    return GradedIdeal(
        ctx, tuple(full_space(ctx.p, ctx.dim(n)) for n in range(ctx.D + 1))
    )


def ideal_from_degree_one(ctx: AlgebraContext, u: RowSpace) -> GradedIdeal:
    """The ideal generated by the degree-one subspace u: piece n+1 is
    spanned by the generator multiples of piece n, taken on native
    vectors with the context's generator maps of degree n."""
    if u.p != ctx.p or u.ambient_dim != ctx.dim(1):
        raise InputError("degree-one subspace does not match the algebra")
    p = ctx.p
    pieces = [zero_space(p, 1), u]
    for n in range(1, ctx.D):
        pieces.append(image_span(p, ctx.gen_maps[n], pieces[n].basis, ctx.dim(n + 1)))
    return GradedIdeal(ctx, tuple(pieces))


def monomial_ideal_basis(ctx: AlgebraContext, s) -> GradedIdeal:
    """Closed form for the ideal generated by the vertex generators in s:
    each degree is spanned by the basis monomials whose support meets s."""
    support = frozenset(s)
    for v in support:
        if not 0 <= v < ctx.dim(1):
            raise InputError(f"generator index {v} out of range")
    pieces = [zero_space(ctx.p, 1)]
    for n in range(1, ctx.D + 1):
        meets = [i for i, mono in enumerate(ctx.basis(n)) if support.intersection(mono)]
        pieces.append(coordinate_space(ctx.p, ctx.dim(n), meets))
    return GradedIdeal(ctx, tuple(pieces))


def colon_ideal(ctx: AlgebraContext, ideal: GradedIdeal, b: Element) -> GradedIdeal:
    """The colon ideal ideal : (b) for a degree-one divisor b.

    Degree-n piece: kernel of x -> x*b into A_{n+1}/I_{n+1}, whose images
    are read straight off the context's stored products: b times basis
    monomial i is the sum of b_g * sign times target monomial k over its
    products (g, k, sign).  So a colon builds one map per degree, never
    the generator maps.  A single condition suffices because the algebra
    is graded-commutative and I is an ideal.  When b lies in I_1 the
    colon is the unit ideal.
    """
    if b.ctx is not ctx or ideal.ctx is not ctx:
        raise InputError("ideal, divisor, and context must match")
    if b.degree != 1:
        raise InputError(f"divisor must have degree 1, got {b.degree}")
    if ideal.piece(1).member(b.coeffs):
        return unit_ideal(ctx)
    p = ctx.p
    pieces = [zero_space(p, 1)]
    for n in range(1, ctx.D):
        images = native_vectors(p, ctx.dim(n + 1), (
            [(k, b.coeffs[g] * sign) for g, k, sign in prods] for prods in ctx.products[n]
        ))
        pieces.append(image_kernel(p, ctx.dim(n), images, ideal.piece(n + 1)))
    pieces.append(full_space(p, ctx.dim(ctx.D)))
    return GradedIdeal(ctx, tuple(pieces))


def annihilator(ctx: AlgebraContext, b: Element) -> GradedIdeal:
    return colon_ideal(ctx, zero_ideal(ctx), b)


def element_in_ideal(x: Element, ideal: GradedIdeal) -> bool:
    if x.ctx is not ideal.ctx:
        raise InputError("element and ideal from different contexts")
    if x.degree > ideal.ctx.D:
        return True  # only the zero element lives above the clique number
    return ideal.piece(x.degree).member(x.coeffs)


def is_one_generated(ctx: AlgebraContext, ideal: GradedIdeal):
    """Whether ideal equals the ideal generated by its degree-one piece.

    Returns (True, None, None), or (False, n, witness) with n the least
    degree where the pieces differ and witness a basis vector of that piece
    lying outside the generated ideal.
    """
    if ideal.ctx is not ctx:
        raise InputError("ideal from a different context")
    if ideal.piece(0).rank:
        return False, 0, from_coeffs(ctx, 0, (1,))
    gen = ideal_from_degree_one(ctx, ideal.piece(1))
    for n in range(2, ctx.D + 1):
        got, want = gen.piece(n), ideal.piece(n)
        if got != want:
            for row in want.rows:
                if not got.member(row):
                    return False, n, from_coeffs(ctx, n, row)
            # generated piece escaping the ideal would violate closure
            raise RuntimeError("generated ideal not contained in its source")
    return True, None, None
