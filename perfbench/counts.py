"""Closed-form work counts, computed without the package.

Each count predicts exactly how much work one stage of the program does,
so the benchmark can compare the program's own counters against them:

- strong_pairs(d): (prefix set, divisor) pairs the strong check visits;
- galois_number(d, p): subspaces of F_p^d, i.e. the ideals the brute
  universal check enumerates;
- brute_divisors(d, p): divisor classes it tests, summed over those ideals;
- canonical_graph_calls(n): canonical_graph calls made by building the
  classes on n vertices and then taking canonical_form of each class.
"""

from __future__ import annotations

# OEIS A000088: graphs on n unlabelled vertices, n = 0..8.
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def strong_pairs(d: int) -> int:
    """Pairs (S', u) with S' a proper subset of d generators and u outside
    it: sum over S' of d - |S'| = d * 2**(d - 1)."""
    return d * 2 ** (d - 1) if d else 0


def gaussian_binomial(d: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of F_p^d."""
    if not 0 <= r <= d:
        return 0
    num = den = 1
    for i in range(r):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def galois_number(d: int, p: int) -> int:
    """Number of subspaces of F_p^d."""
    return sum(gaussian_binomial(d, r, p) for r in range(d + 1))


def brute_divisors(d: int, p: int) -> int:
    """Divisor classes over all subspaces U of F_p^d: the nonzero vectors
    of F_p^d / U up to scalars, (p**(d - r) - 1) / (p - 1) for rank r."""
    return sum(
        gaussian_binomial(d, r, p) * (p ** (d - r) - 1) // (p - 1)
        for r in range(d + 1)
    )


def canonical_graph_calls(n: int) -> int:
    """Classes on n vertices are built by extending each class on k - 1
    vertices by every neighbourhood of a new vertex (2**(k - 1) candidates,
    one canonical_graph call each) for k = 2..n; canonical_form then calls
    canonical_graph once per class on n vertices."""
    build = sum(GRAPH_CLASSES[k - 1] * 2 ** (k - 1) for k in range(2, n + 1))
    return build + GRAPH_CLASSES[n]
