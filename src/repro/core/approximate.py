"""The Staccato construction: greedy merge heuristic (paper Algorithm 2).

Given a line SFA and the knobs ``m`` (maximum number of edges = chunks in
the result) and ``k`` (strings kept per chunk), repeatedly grow every
seed -- node triples ``{x, y, z}`` with edges ``(x, y), (y, z)`` -- into a
valid region (:func:`find_min_sfa`), score each region by the probability
mass its collapse would retain and apply the best collapse, until at most
``m`` edges remain.  With forward mass ``F`` and backward mass ``B``,
collapsing region ``R`` changes the retained mass by exactly
``F[entry] * B[exit] * (mass(top-k of R) - mass(R))``: every path
touching the region runs entry-to-exit inside it.  The loop keeps what a
collapse provably did not change (the paper's "simple optimization",
carried through): regions and scores away from it and, while the
topological order is kept, the order and reachability table (patched)
and the seeds it did not touch.

A score needs only the *mass* of a region's top k.  When the pruned line
is prefix-free (:func:`~repro.sfa.paths.prefix_free`, checked once; a
collapse keeps it so) no string is spelled along two paths, and
:func:`~repro.sfa.paths.k_best_mass` -- the k-best DP on probabilities
alone -- gives exactly the sum over the ranked strings.  Otherwise the
region's strings are ranked and summed.  Either way the winner's strings
are ranked for its new edge, in the order it was scored in.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..sfa.model import Sfa
from ..sfa.ops import sum_product, topological_order
from ..sfa.paths import k_best_mass, prefix_free
from .chunks import Reachability, Region, collapse_in_place, region_mass, region_top_k

__all__ = ["prune_edges_to_k", "staccato_approximate"]


def prune_edges_to_k(sfa: Sfa, k: int) -> Sfa:
    """Retain only the k most probable emissions on every edge.

    This is the algorithm's standing invariant ("each edge emits at most k
    strings"); ties are broken deterministically by the emission ordering.
    """
    result = sfa.copy()
    for u, v in result.edges:
        result.truncate_edge(u, v, k)
    return result


# A region's node ids, ascending: the order candidates are scored in, and
# (a tuple, so it hashes) what the caches key a region by.
_Key = tuple[int, ...]
_Triple = tuple[int, int, int]
# The candidates, by key: each region and the triples grown into it.
_Candidates = dict[_Key, tuple[Region, list[_Triple]]]


def _triples(sfa: Sfa, middles: Iterable[int]) -> Iterator[_Triple]:
    """The seeds: node triples along two adjacent edges, by middle node."""
    for middle in middles:
        if middle not in (sfa.start, sfa.final):
            for pred in sfa.pred(middle):
                for succ in sfa.succ(middle):
                    yield pred, middle, succ


def _invalidate(
    work: Sfa, candidates: _Candidates, scores: dict, done: Region, narrow: bool
) -> set[_Triple]:
    """Drop the candidates (and scores) the collapse of ``done`` may have
    changed and return the seeds to grow: theirs that remain and those
    the new edge joins.  Kept are the candidates away from it and, when
    ``narrow`` (the order was kept ever since they were grown), those
    that only end where it begins or begin where it ends."""
    touched = done.nodes
    regrow = set(_triples(work, (done.entry, done.exit)))
    for key in [key for key in candidates if not touched.isdisjoint(key)]:
        region, seeds = candidates[key]
        shared = touched.intersection(key)
        if narrow and (
            shared == {region.exit} == {done.entry}
            or shared == {region.entry} == {done.exit}
        ):
            continue
        del candidates[key]
        scores.pop(key, None)
        regrow.update(seed for seed in seeds if done.internal.isdisjoint(seed))
    return regrow


def staccato_approximate(sfa: Sfa, m: int, k: int) -> Sfa:
    """Build the Staccato approximation of ``sfa`` with parameters (m, k).

    ``m = 1`` degenerates to k-MAP (one chunk holding the k best strings
    of the whole line); ``m >= |E|`` keeps the structure and just prunes
    every edge to its k best emissions (paper Section 5.2).  The result
    generally retains less than the full probability mass.

    The working graph is a private copy collapsed in place.  One order,
    its reachability table and the two masses summed along it serve
    every candidate of a pass.  Order and table are patched across a
    collapse that keeps the order ("latest ancestor" and the masses'
    summation order are defined by it) and rebuilt when it moves.  Only
    a pass's winner has its strings ranked.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = prune_edges_to_k(sfa, k)
    if work.num_edges <= m:
        return work
    unique = prefix_free(work)
    candidates: _Candidates = {}
    # region -> (loss, the span it was scored in): the winner is ranked
    # in that span to become its new edge.
    scores: dict[_Key, tuple[float, list[int]]] = {}
    order = topological_order(work)
    reach, narrow = Reachability(work, order), True
    regrow: Iterable[_Triple] = _triples(work, work.nodes)
    while True:
        forward = sum_product(work, order, work.start)
        backward = sum_product(work, order[::-1], work.final, backward=True)
        for triple in regrow:
            grown = reach.grow(triple)
            key = tuple(sorted(grown.nodes))
            candidates.setdefault(key, (grown, []))[1].append(triple)
        best: tuple[Region, list[int]] | None = None
        best_delta = float("-inf")
        for key in sorted(candidates):
            region = candidates[key][0]
            score = scores.get(key)
            if score is None:
                span = reach.span(region)
                if unique:
                    kept = k_best_mass(
                        work, region.entry, region.exit, k, region.nodes, span
                    )
                else:
                    kept = sum(p for _, p in region_top_k(work, region, k, span))
                score = scores[key] = (kept - region_mass(work, region, span), span)
            loss, span = score
            delta = forward[region.entry] * backward[region.exit] * loss
            if delta > best_delta:
                best_delta, best = delta, (region, span)
        if best is None:
            return work
        region, span = best
        collapse_in_place(work, region, region_top_k(work, region, k, span))
        if work.num_edges <= m:
            return work
        if reach.follow(region):
            interior = region.internal
            order = [node for node in order if node not in interior]
        else:
            order, narrow = topological_order(work), False
            reach = Reachability(work, order)
        regrow = _invalidate(work, candidates, scores, region, narrow)
