"""Query evaluation over k-MAP strings, one string at a time.

Each stored string of a line is a disjoint probabilistic event, so the
probability that the line matches is simply the sum of the probabilities
of the stored strings the DFA accepts (paper Section 3, "Baseline
Approaches").  The engine scores ``kmap`` and ``map`` as one-chunk
kernels; this is the reference it is held to.
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.dfa import Dfa

__all__ = ["match_probability_strings", "matching_strings"]


def match_probability_strings(
    strings: Iterable[tuple[str, float]], query: Dfa
) -> float:
    """Summed probability of the stored strings accepted by ``query``."""
    total = 0.0
    for text, prob in strings:
        if query.accepts(text):
            total += prob
    return total


def matching_strings(
    strings: Iterable[tuple[str, float]], query: Dfa
) -> list[tuple[str, float]]:
    """The accepted subset, in storage (rank) order."""
    return [(text, prob) for text, prob in strings if query.accepts(text)]
