"""Most-likely-string extraction: MAP and k-MAP over SFAs.

The paper's k-MAP baseline stores the ``k`` highest-probability strings of
each line SFA (Section 3); Staccato applies the same extraction *inside*
each chunk.  On a DAG with the unique-paths property the k best strings are
the k best labeled paths, which a k-best extension of the Viterbi dynamic
program computes exactly (the paper cites Viterbi [26] plus Yen's
incremental variant [54]; on a DAG the merged-lists DP below is the
standard equivalent and is what we use throughout).
"""

from __future__ import annotations

from typing import Sequence

from .model import Emission, Sfa
from .ops import topological_order

__all__ = ["k_best_strings", "map_string", "k_best_between"]

# A partial path of the DP: (-probability, string).  Negated so the native
# tuple order *is* the rank order "most probable first, ties by string".
_Partial = tuple[float, str]


def _merge_top_k(
    existing: list[_Partial],
    partials: list[_Partial],
    emissions: Sequence[Emission],
    k: int,
) -> list[_Partial]:
    """The ``k`` best of ``existing`` plus every partial-times-emission
    extension, without forming the products that cannot be among them.

    ``partials`` and ``emissions`` are both sorted by descending
    probability and IEEE multiplication is monotone, so the product of
    partial ``i`` and emission ``j`` has at least ``(i+1)(j+1) - 1``
    products no smaller than itself: only pairs with ``(i+1)(j+1) <= k``
    can rank *strictly* inside the top k.  Row ``i`` therefore takes
    ``emissions[:k // (i+1)]`` -- about ``k ln k`` products instead of
    ``k * k``.  A product that was cut can still *tie* the k-th kept
    value, and then the string decides; so the largest cut value (per
    row, the first emission not taken) is compared with the k-th kept
    one, and on a tie -- or when fewer than k survive although something
    was cut -- the merge is redone with the full product.
    """
    merged = list(existing)
    cut: float | None = None
    for row, (neg_prob, string) in enumerate(partials):
        take = k // (row + 1)
        if take < len(emissions):
            bound = neg_prob * emissions[take].prob
            if cut is None or bound < cut:
                cut = bound
            if take == 0:
                break
        merged += [
            (neg_prob * emission.prob, string + emission.string)
            for emission in emissions[:take]
        ]
    merged.sort()
    del merged[k:]
    if cut is not None and (len(merged) < k or cut <= merged[-1][0]):
        merged = existing + [
            (neg_prob * emission.prob, string + emission.string)
            for neg_prob, string in partials
            for emission in emissions
        ]
        merged.sort()
        del merged[k:]
    return merged


def k_best_strings(sfa: Sfa, k: int) -> list[tuple[str, float]]:
    """The ``k`` highest-probability strings of the whole SFA.

    Returns at most ``k`` ``(string, prob)`` pairs sorted by descending
    probability.  Distinct paths that happen to spell the same string (a
    unique-paths violation) are merged by summing, then re-ranked, so the
    result is always a set of distinct strings.
    """
    return k_best_between(sfa, sfa.start, sfa.final, k)


def map_string(sfa: Sfa) -> tuple[str, float]:
    """The maximum a-posteriori string (paper: what Google Books stores)."""
    best = k_best_strings(sfa, 1)
    if not best:
        raise ValueError("SFA emits no strings")
    return best[0]


def k_best_between(
    sfa: Sfa,
    src: int,
    dst: int,
    k: int,
    within: set[int] | frozenset[int] | None = None,
    order: list[int] | None = None,
) -> list[tuple[str, float]]:
    """The ``k`` best strings along ``src``-to-``dst`` paths.

    ``within`` optionally restricts the search to a node subset (used by
    Staccato's ``Collapse`` to rank the strings of a chunk region,
    paper Section 3.1).  Runs the k-best Viterbi DP in topological order:
    every node keeps its top-k partial ``(prob, string)`` paths, merged
    across incoming edges and emissions.  ``order`` is a topological order
    covering the ``src``-to-``dst`` paths, for callers that already hold
    one (the Staccato loop ranks every candidate region of a greedy
    iteration in the same order).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order is None:
        order = topological_order(sfa)
    best: dict[int, list[_Partial]] = {src: [(-1.0, "")]}
    for node in order:
        partials = best.get(node)
        if not partials:
            continue
        if node == dst:
            break
        for succ in sfa.succ(node):
            if within is not None and succ not in within:
                continue
            best[succ] = _merge_top_k(
                best.get(succ, []), partials, sfa.emissions(node, succ), k
            )
    # Merge duplicate strings (only possible without unique paths), re-rank.
    by_string: dict[str, float] = {}
    for neg_prob, string in best.get(dst, []):
        by_string[string] = by_string.get(string, 0.0) - neg_prob
    ranked = sorted(by_string.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
