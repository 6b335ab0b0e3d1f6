"""The Staccato construction: greedy merge heuristic (paper Algorithm 2).

Given a line SFA and the knobs ``m`` (maximum number of edges = chunks in
the result) and ``k`` (strings kept per chunk), repeatedly:

1. enumerate candidate regions seeded by node triples ``{x, y, z}`` with
   edges ``(x, y), (y, z)``;
2. grow each seed into a valid region with :func:`find_min_sfa`;
3. score each candidate by the probability mass the collapse would retain;
4. apply the best collapse;

until at most ``m`` edges remain.  Scoring is incremental: with forward
mass ``F`` and backward mass ``B`` computed once per iteration, collapsing
region ``R`` changes the total retained mass by exactly
``F[entry] * B[exit] * (mass(top-k of R) - mass(R))``, because every path
touching the region runs entry-to-exit inside it.  Candidate regions and
their scores are cached across iterations and invalidated only when a
collapse touches their nodes (the paper's "simple optimization").

A score needs only the *mass* of a region's top k, not its strings.  When
the pruned line is prefix-free (:func:`~repro.sfa.paths.prefix_free`, once
per line: no node has two outgoing emissions one a prefix of the other)
no string is spelled along two paths, and
:func:`~repro.sfa.paths.k_best_mass` -- the k-best DP on probabilities
alone -- gives exactly the sum over the ranked strings; a collapse keeps
the line prefix-free.  Otherwise the region's strings are ranked and
summed.  Either way the winner's strings are ranked for its new edge, in
the order it was scored in.
"""

from __future__ import annotations

from ..sfa.model import Sfa
from ..sfa.ops import sum_product, topological_order
from ..sfa.paths import k_best_mass, prefix_free
from .chunks import (
    Reachability,
    Region,
    collapse_in_place,
    region_mass,
    region_top_k,
)

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


def _candidate_regions(
    sfa: Sfa,
    reach: Reachability,
    region_cache: dict[tuple[int, int, int], tuple[_Key, Region]],
) -> dict[_Key, Region]:
    """All distinct regions grown from adjacent-edge node triples.

    ``region_cache`` carries triple -> region results across greedy
    iterations; entries touching a collapsed region are evicted by the
    caller, so surviving entries are still correct (a collapse elsewhere
    does not change reachability among untouched nodes).
    """
    regions: dict[_Key, Region] = {}
    for middle in sfa.nodes:
        if middle in (sfa.start, sfa.final):
            continue
        for pred in sfa.pred(middle):
            for succ in sfa.succ(middle):
                triple = (pred, middle, succ)
                cached = region_cache.get(triple)
                if cached is None:
                    region = reach.grow(triple)
                    cached = (tuple(sorted(region.nodes)), region)
                    region_cache[triple] = cached
                regions.setdefault(*cached)
    return regions


def staccato_approximate(sfa: Sfa, m: int, k: int) -> Sfa:
    """Build the Staccato approximation of ``sfa`` with parameters (m, k).

    ``m = 1`` degenerates to k-MAP (one chunk holding the k best strings
    of the whole line); ``m >= |E|`` keeps the structure and just prunes
    every edge to its k best emissions (paper Section 5.2).  The result
    generally retains less than the full probability mass.

    The working graph is a private copy collapsed in place.  What a
    collapse invalidates is recomputed once per iteration and shared --
    one topological order (it moves: a kept order would still be valid
    but not this one, and "latest ancestor" and the summation order of
    the masses are defined by it), one reachability table, one forward
    and one backward pass; what it does not touch (regions and their
    scores away from the collapse) is carried over.  Only the winner of
    an iteration has its strings ranked.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = prune_edges_to_k(sfa, k)
    unique = prefix_free(work)
    # region -> (loss, the span it was scored in): the winner is ranked
    # in that span to become its new edge.
    score_cache: dict[_Key, tuple[float, list[int]]] = {}
    region_cache: dict[tuple[int, int, int], tuple[_Key, Region]] = {}
    while work.num_edges > m:
        order = topological_order(work)
        reach = Reachability(work, order)
        candidates = _candidate_regions(work, reach, region_cache)
        if not candidates:
            break
        forward = sum_product(work, order, work.start)
        backward = sum_product(work, order[::-1], work.final, backward=True)
        best: tuple[Region, list[int]] | None = None
        best_delta = float("-inf")
        for key in sorted(candidates):
            region = candidates[key]
            score = score_cache.get(key)
            if score is None:
                span = reach.span(region)
                if unique:
                    kept = k_best_mass(
                        work, region.entry, region.exit, k, region.nodes, span
                    )
                else:
                    kept = sum(p for _, p in region_top_k(work, region, k, span))
                score = (kept - region_mass(work, region, span), span)
                score_cache[key] = score
            loss, span = score
            delta = forward[region.entry] * backward[region.exit] * loss
            if delta > best_delta:
                best_delta = delta
                best = (region, span)
        assert best is not None
        region, span = best
        collapse_in_place(work, region, region_top_k(work, region, k, span))
        touched = region.nodes
        score_cache = {
            key: score
            for key, score in score_cache.items()
            if touched.isdisjoint(key)
        }
        region_cache = {
            triple: cached
            for triple, cached in region_cache.items()
            if touched.isdisjoint(cached[0])
        }
    return work
