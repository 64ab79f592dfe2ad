"""Exact Koszulity checks for exterior Stanley-Reisner algebras of graphs.

The package builds the exterior Stanley-Reisner algebra of a finite simple
graph over a prime field F_p, computes graded ideals, colon ideals, and
annihilators exactly, and decides strong Koszulity, universal Koszulity,
and the PBW property.  Closed-form graph criteria are cross-validated
against brute-force linear-algebra enumerations throughout.

The root package re-exports the entry points below; every other name is
imported from its module (gfp, graphs, algebra, ideals, koszul, cli).
"""

__version__ = "0.1.0"

from .algebra import build_algebra
from .errors import InputError, ResourceLimitError
from .graphs import (
    build_graph,
    canonical_form,
    diagonal_violation,
    elementary_type_decomposition,
    nonisomorphic_graphs,
    parse_edge_list,
)
from .ideals import annihilator, colon_ideal, ideal_from_degree_one
from .koszul import (
    classify,
    non_universal_witness,
    strong_koszul_check,
    universal_koszul_bruteforce,
    universal_koszul_fast,
)

__all__ = [
    "InputError",
    "ResourceLimitError",
    "annihilator",
    "build_algebra",
    "build_graph",
    "canonical_form",
    "classify",
    "colon_ideal",
    "diagonal_violation",
    "elementary_type_decomposition",
    "ideal_from_degree_one",
    "non_universal_witness",
    "nonisomorphic_graphs",
    "parse_edge_list",
    "strong_koszul_check",
    "universal_koszul_bruteforce",
    "universal_koszul_fast",
]
