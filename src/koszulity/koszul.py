"""Koszulity verdicts for graph exterior algebras.

Three graded properties are decided exactly:

- strongly Koszul: for every subset S' of the vertex generators and every
  generator u outside S', the colon ideal (S'):(u) is again generated by
  vertex generators.  The generator set is also cross-checked against its
  closed form S' union {a_j : a_j u = 0} (u itself and its non-neighbors),
  so every pair is verified twice.
- universally Koszul: for every ideal I generated in degree one and every
  divisor b in A_1 outside I_1, the colon I:(b) is generated in degree one.
  The fast route is the graph criterion (diagonal property: no induced C4
  or P4); the brute-force route enumerates every (I, b) up to the scalar
  and I_1-translation invariance of the colon.
- PBW and the numerical Koszul test on 1/H(-t) round out the report.

When the fast universal verdict is false, non_universal_witness builds the
certified counterexample: b = a_{v1} + a_{v4} annihilates the culprit
monomial a_{v2} a_{v3}, which Ann(b)_1 cannot generate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraContext,
    Element,
    build_algebra,
    from_coeffs,
    generator,
    hilbert_series,
    koszul_numerical_check,
    pbw_check,
)
from .errors import InputError
from .gfp import enumerate_coset_reps_mod_scalar, enumerate_subspaces
from .graphs import (
    DiagonalViolation,
    Graph,
    diagonal_violation,
    elementary_type_decomposition,
)
from .ideals import (
    GradedIdeal,
    annihilator,
    colon_ideal,
    element_in_ideal,
    ideal_from_degree_one,
    is_one_generated,
    monomial_ideal_basis,
)


@dataclass(frozen=True)
class StrongPairFailure:
    prefix: tuple
    divisor: int
    computed_generators: tuple
    predicted_generators: tuple
    discrepancy_degree: int | None


@dataclass(frozen=True)
class StrongKoszulReport:
    passed: bool
    pairs_checked: int
    failures: tuple


def strong_koszul_check(ctx: AlgebraContext) -> StrongKoszulReport:
    """Exhaustive strong-Koszulity check over all (prefix set, divisor)
    pairs, each verified against the closed-form generator prediction."""
    d = ctx.dim(1)
    adj = ctx.graph.adj
    divisors = [generator(ctx, u) for u in range(d)]
    # closed form: a_j a_u = 0 exactly for u itself and its non-neighbours
    killed_by = [
        {u} | {j for j in range(d) if j != u and j not in adj[u]} for u in range(d)
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
            computed = tuple(j for j in range(d) if j1.member_sparse(((j, 1),)))
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


def universal_koszul_fast(g: Graph) -> bool:
    """Graph criterion: universally Koszul iff no induced C4 or P4."""
    return diagonal_violation(g) is None


@dataclass(frozen=True)
class BruteFailure:
    ideal: GradedIdeal
    divisor: Element
    degree: int


@dataclass(frozen=True)
class BruteResult:
    verdict: bool
    failure: BruteFailure | None
    ideals_enumerated: int
    divisors_checked: int


def universal_koszul_bruteforce(ctx: AlgebraContext) -> BruteResult:
    """Enumerate every degree-one-generated ideal I and every divisor class
    b (nonzero in A_1/I_1, modulo scalars) and test the colon.

    Colon ideals are invariant under scaling b and translating b by I_1, so
    one representative per class decides all of them.  Returns the first
    failure in enumeration order, if any.
    """
    d = ctx.dim(1)
    ideals = 0
    divisors = 0
    for u in enumerate_subspaces(ctx.p, d):
        ideals += 1
        ideal = ideal_from_degree_one(ctx, u)
        for vec in enumerate_coset_reps_mod_scalar(u):
            divisors += 1
            b = from_coeffs(ctx, 1, vec)
            colon = colon_ideal(ctx, ideal, b)
            ok, degree, _ = is_one_generated(ctx, colon)
            if not ok:
                return BruteResult(
                    False, BruteFailure(ideal, b, degree), ideals, divisors
                )
    return BruteResult(True, None, ideals, divisors)


@dataclass(frozen=True)
class NonUKWitness:
    """Certified counterexample to universal Koszulity.

    b = a_{v1} + a_{v4} for the violation's labeling; the culprit monomial
    a_{v2} a_{v3} lies in Ann(b) but outside the ideal generated by
    Ann(b)_1.  Both facts are re-verified with exact linear algebra at
    construction time."""

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
    d = ctx.dim(1)
    b = from_coeffs(
        ctx, 1, tuple(1 if j in (w.v1, w.v4) else 0 for j in range(d))
    )
    culprit = (w.v2, w.v3) if w.v2 < w.v3 else (w.v3, w.v2)
    ann = annihilator(ctx, b)
    idx = ctx.index[2][culprit]
    culprit_vec = tuple(1 if k == idx else 0 for k in range(ctx.dim(2)))
    culprit_el = from_coeffs(ctx, 2, culprit_vec)
    in_ann = element_in_ideal(culprit_el, ann)
    generated = ideal_from_degree_one(ctx, ann.piece(1))
    outside = not element_in_ideal(culprit_el, generated)
    if not (in_ann and outside):
        raise RuntimeError("witness certificate failed exact verification")
    return NonUKWitness(w, b, culprit, in_ann, outside)


@dataclass(frozen=True)
class KoszulReport:
    graph: Graph
    p: int
    dims: tuple
    diagonal_property: bool
    decomposition: object  # tree node or DiagonalViolation
    strong: StrongKoszulReport
    universal_fast: bool
    universal_brute: bool | None
    brute_failure: BruteFailure | None
    ideals_enumerated: int
    divisors_checked: int
    witness: NonUKWitness | None
    pbw: bool
    dual_series_nonneg: bool


# Largest vertex count per prime that brute="auto" runs on.
_BRUTE_AUTO_MAX_D = {2: 4, 3: 3}


def _brute_gate(p: int, d: int) -> bool:
    return d <= _BRUTE_AUTO_MAX_D.get(p, 0)


def classify(
    g: Graph, p: int = 2, brute: str = "auto", dual_order: int = 12
) -> KoszulReport:
    """Full report for one graph: dims, decomposition, all three verdicts,
    and the certified witness when the fast universal verdict is false.

    brute is "auto" (run the brute-force universal check only on small
    inputs: p=2 with at most 4 vertices, p=3 with at most 3), "on", or
    "off".
    """
    if brute not in ("auto", "on", "off"):
        raise InputError(f"brute mode must be auto, on, or off, got {brute!r}")
    if g.n == 0:
        raise InputError("cannot classify the empty graph")
    ctx = build_algebra(g, p)
    dims = hilbert_series(ctx)
    decomposition = elementary_type_decomposition(g)
    fast = not isinstance(decomposition, DiagonalViolation)
    strong = strong_koszul_check(ctx)
    run_brute = brute == "on" or (brute == "auto" and _brute_gate(ctx.p, g.n))
    if run_brute:
        result = universal_koszul_bruteforce(ctx)
        brute_verdict = result.verdict
        failure = result.failure
        ideals, divisors = result.ideals_enumerated, result.divisors_checked
    else:
        brute_verdict, failure, ideals, divisors = None, None, 0, 0
    witness = None if fast else non_universal_witness(ctx)
    return KoszulReport(
        graph=g,
        p=int(ctx.p),
        dims=dims,
        diagonal_property=fast,
        decomposition=decomposition,
        strong=strong,
        universal_fast=fast,
        universal_brute=brute_verdict,
        brute_failure=failure,
        ideals_enumerated=ideals,
        divisors_checked=divisors,
        witness=witness,
        pbw=pbw_check(ctx),
        dual_series_nonneg=koszul_numerical_check(dims, dual_order),
    )
