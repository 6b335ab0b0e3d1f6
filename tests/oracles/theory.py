"""Formal-analysis utilities (paper Section 3.2, Appendices C/D).

These functions make the paper's two theoretical claims *testable* on
small automata:

* **Proposition 3.1** -- for a fixed chunk structure, keeping the k most
  probable strings per chunk maximizes the retained probability mass over
  all per-edge k-string selections.  :func:`exhaustive_best_selection`
  brute-forces the selection space so tests can compare.
* **Appendix C** -- conditioning on the retained string set is the KL
  minimizer, and ``KL = -log(retained mass)``, so *more retained mass ==
  closer approximation*.  :func:`kl_of_selection` exposes the quantity.

Theorem 3.1 (NP-hardness of richer-than-SFA chunk structures) is a lower
bound, not an algorithm, so it has no implementation -- but
:func:`selection_mass` works for arbitrary per-edge selections, which is
what the hardness applies to.
"""

from __future__ import annotations

import itertools
import math

from repro.sfa.model import Sfa
from repro.sfa.ops import total_mass

__all__ = [
    "selection_mass",
    "exhaustive_best_selection",
    "greedy_selection_mass",
    "kl_of_selection",
]

Selection = dict[tuple[int, int], tuple[str, ...]]


def _apply_selection(sfa: Sfa, selection: Selection) -> Sfa:
    result = sfa.copy()
    for (u, v), strings in selection.items():
        chosen = set(strings)
        kept = [e for e in sfa.emissions(u, v) if e.string in chosen]
        if not kept:
            # An empty selection keeps the edge structurally but carries no
            # probability: no string through it is emitted.
            placeholder = sfa.emissions(u, v)[0].string
            kept = [(placeholder, 0.0)]
        result.replace_emissions(u, v, kept)
    return result


def selection_mass(sfa: Sfa, selection: Selection) -> float:
    """Retained probability mass when each edge keeps only the selected
    strings (``Pr_S[Emit(alpha)]`` in the paper's notation)."""
    return total_mass(_apply_selection(sfa, selection))


def greedy_selection_mass(sfa: Sfa, k: int) -> float:
    """Mass retained by Staccato's choice: top-k per edge."""
    selection: Selection = {
        (u, v): tuple(e.string for e in sfa.emissions(u, v)[:k])
        for u, v in sfa.edges
    }
    return selection_mass(sfa, selection)


def exhaustive_best_selection(sfa: Sfa, k: int) -> tuple[Selection, float]:
    """Brute-force the best per-edge k-string selection (test-sized only).

    Enumerates every combination of (at most k strings per edge) and
    returns the maximizer -- the quantity Proposition 3.1 says the greedy
    top-k choice achieves.
    """
    edges = sfa.edges
    options_per_edge: list[list[tuple[str, ...]]] = []
    for u, v in edges:
        strings = [e.string for e in sfa.emissions(u, v)]
        count = min(k, len(strings))
        options_per_edge.append(
            [tuple(combo) for combo in itertools.combinations(strings, count)]
        )
    best_selection: Selection = {}
    best_mass = -1.0
    for combo in itertools.product(*options_per_edge):
        selection = dict(zip(edges, combo))
        mass = selection_mass(sfa, selection)
        if mass > best_mass:
            best_mass = mass
            best_selection = selection
    return best_selection, best_mass


def kl_of_selection(sfa: Sfa, selection: Selection) -> float:
    """KL divergence of the conditioned selection from the original
    distribution: ``-log(retained mass)`` (paper Appendix C)."""
    mass = selection_mass(sfa, selection)
    if mass <= 0.0:
        return math.inf
    return -math.log(mass)
