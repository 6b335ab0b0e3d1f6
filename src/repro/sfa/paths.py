"""Most-likely-string extraction: MAP and k-MAP over SFAs.

The paper's k-MAP baseline stores the ``k`` highest-probability strings of
each line SFA (Section 3); Staccato applies the same extraction *inside*
each chunk.  On a DAG with the unique-paths property the k best strings are
the k best labeled paths, which a k-best extension of the Viterbi dynamic
program computes exactly (the paper cites Viterbi [26] plus Yen's
incremental variant [54]; on a DAG the merged-lists DP below is the
standard equivalent and is what we use throughout).  Scoring a candidate
chunk needs only the mass of its k best strings: :func:`k_best_mass` runs
the same DP on probabilities alone.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .model import Emission, Sfa
from .ops import topological_order

__all__ = [
    "k_best_strings",
    "map_string",
    "k_best_between",
    "k_best_mass",
    "prefix_free",
]

# A partial path of the DP: (-probability, string).  Negated so the native
# tuple order *is* the rank order "most probable first, ties by string".
_Partial = tuple[float, str]


def _cut_rule(
    neg_probs: Iterable[float], emissions: Sequence[Emission], k: int
) -> tuple[list[int], float | None]:
    """The cut rule of both k-best merges: how many of ``emissions`` each
    partial row extends by, and the largest value that leaves out.

    ``neg_probs`` (the partials' negated probabilities) and ``emissions``
    are both sorted by descending probability and IEEE multiplication is
    monotone, so the product of partial ``i`` and emission ``j`` has at
    least ``(i+1)(j+1) - 1`` products no smaller than itself: only pairs
    with ``(i+1)(j+1) <= k`` can rank *strictly* inside the top k.  Row
    ``i`` therefore takes ``emissions[:k // (i+1)]`` -- about ``k ln k``
    products instead of ``k * k``.  The largest value cut (per row, the
    first emission not taken) is ``None`` when nothing is cut; a merge
    must redo itself with the full product when it ties the k-th kept
    value or fewer than k survive (:func:`_redo`).  Row 0 takes at least
    one emission, so a merge never comes out empty.
    """
    takes: list[int] = []
    cut: float | None = None
    count = len(emissions)
    for row, neg_prob in enumerate(neg_probs):
        take = k // (row + 1)
        if take < count:
            bound = neg_prob * emissions[take].prob
            if cut is None or bound < cut:
                cut = bound
            if take == 0:
                break
        takes.append(take)
    return takes, cut


def _redo(cut: float | None, kept: int, last: float, k: int) -> bool:
    """Whether a cut merge that kept ``kept`` values, the last ``last``,
    must be redone with the full product: a cut product can still *tie*
    the k-th kept value (and then the string decides), and a short list
    may be missing one."""
    return cut is not None and (kept < k or cut <= last)


def _merge_top_k(
    existing: list[_Partial],
    partials: list[_Partial],
    emissions: Sequence[Emission],
    k: int,
) -> list[_Partial]:
    """The ``k`` best of ``existing`` plus every partial-times-emission
    extension, without forming the products that cannot be among them
    (the cut of :func:`_cut_rule`)."""
    takes, cut = _cut_rule([neg_prob for neg_prob, _ in partials], emissions, k)
    merged = existing + [
        (neg_prob * emission.prob, string + emission.string)
        for (neg_prob, string), take in zip(partials, takes)
        for emission in emissions[:take]
    ]
    merged.sort()
    del merged[k:]
    if _redo(cut, len(merged), merged[-1][0], k):
        merged = existing + [
            (neg_prob * emission.prob, string + emission.string)
            for neg_prob, string in partials
            for emission in emissions
        ]
        merged.sort()
        del merged[k:]
    return merged


def _merge_top_k_probs(
    existing: list[float],
    partials: list[float],
    emissions: Sequence[Emission],
    k: int,
) -> list[float]:
    """:func:`_merge_top_k` on the negated probabilities alone."""
    takes, cut = _cut_rule(partials, emissions, k)
    merged = existing + [
        neg_prob * emission.prob
        for neg_prob, take in zip(partials, takes)
        for emission in emissions[:take]
    ]
    merged.sort()
    del merged[k:]
    if _redo(cut, len(merged), merged[-1], k):
        merged = existing + [
            neg_prob * emission.prob
            for neg_prob in partials
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


def _k_best_dp(
    sfa: Sfa,
    src: int,
    dst: int,
    k: int,
    within: set[int] | frozenset[int] | None,
    order: list[int] | None,
    seed: Any,
    merge: Callable[[list, list, Sequence[Emission], int], list],
) -> list:
    """The k-best Viterbi DP both rankings run: in topological order,
    every node keeps its ``k`` best partial paths, ``merge``-d across
    incoming edges and emissions from ``seed`` at ``src``.  Returns the
    partials that reach ``dst``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order is None:
        order = topological_order(sfa)
    best: dict[int, list] = {src: [seed]}
    for node in order:
        partials = best.get(node)
        if not partials:
            continue
        if node == dst:
            break
        for succ in sfa.succ(node):
            if within is not None and succ not in within:
                continue
            best[succ] = merge(
                best.get(succ, []), partials, sfa.emissions(node, succ), k
            )
    return best.get(dst, [])


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
    one (the Staccato loop ranks a region in the order it was scored in).
    """
    reached = _k_best_dp(
        sfa, src, dst, k, within, order, (-1.0, ""), _merge_top_k
    )
    # Merge duplicate strings (only possible without unique paths), re-rank.
    by_string: dict[str, float] = {}
    for neg_prob, string in reached:
        by_string[string] = by_string.get(string, 0.0) - neg_prob
    ranked = sorted(by_string.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def k_best_mass(
    sfa: Sfa,
    src: int,
    dst: int,
    k: int,
    within: set[int] | frozenset[int] | None = None,
    order: list[int] | None = None,
) -> float:
    """The probability mass of the ``k`` best ``src``-to-``dst`` strings,
    from the DP of :func:`k_best_between` on probabilities alone.

    When no two such paths spell one string -- which :func:`prefix_free`
    guarantees -- this is exactly ``sum(p for _, p in k_best_between(...))``
    with the same arguments: the DP keeps the same values (a tie at the
    k-th value changes which string is kept, not the value), the
    duplicate-string merge at ``dst`` is the identity, and the values are
    summed as ``0.0 - v`` in the same rank order.
    """
    reached = _k_best_dp(
        sfa, src, dst, k, within, order, -1.0, _merge_top_k_probs
    )
    return sum(0.0 - neg_prob for neg_prob in reached)


def prefix_free(sfa: Sfa) -> bool:
    """True when no node has two outgoing emissions one of which is a
    prefix of (or equal to) the other.

    Such an SFA reads any string along at most one path from any node,
    so it has unique paths between every pair of nodes and within every
    node subset -- the condition :func:`k_best_mass` needs.  Collapsing a
    region of it into one edge keeps the property.
    """
    for node in sfa.nodes:
        strings = sorted(
            [
                emission.string
                for succ in sfa.succ(node)
                for emission in sfa.emissions(node, succ)
            ]
        )
        # Sorted, a string is followed by the strings it is a prefix of.
        if any(map(str.startswith, strings[1:], strings)):
            return False
    return True
