"""Exact-arithmetic toolkit for cliques and matchings in uniform hypergraphs."""

from .cliques import CliqueCount, clique_census, count_cliques, enumerate_cliques
from .core import (
    Budget,
    BudgetExceededError,
    ColoredFamily,
    Hypergraph,
    HypergraphFormatError,
    delete_vertices,
    degree,
    induced_subhypergraph,
    labels_from_mask,
    mask_from_labels,
    neighborhood,
    parse,
    serialize,
)
from .extremal import (
    ExtremalParams,
    binom,
    binomial_inequality_suite,
    build_extremal_family,
    closed_form_clique_count,
    n_star,
    rainbow_hypothesis_check,
    recurrence_check,
    theorem_bound,
)
from .matchings import (
    Matching,
    RainbowMatching,
    find_matching,
    find_rainbow_matching,
    greedy_matching_from_disjoint_tuples,
    greedy_matching_from_high_degree_vertices,
    has_matching_at_most,
    matching_number,
)
from .shifting import (
    ShiftTrace,
    enumerate_stable,
    is_stable,
    precedes,
    shift,
    stabilize,
    stable_closure_check,
)
from .verifier import (
    VerificationReport,
    run_extremal_sweep,
    verify_extremal_cell,
    verify_proposition_3_2,
    verify_rainbow_cell,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
