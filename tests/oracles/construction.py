"""The construction loop as it stood before the in-place rewrite (PR 19).

Moved verbatim from ``repro.sfa.paths`` (``k_best_between`` and its
``heapq.nsmallest`` merge), ``repro.core.chunks`` (``find_min_sfa`` with
its per-probe BFS, ``region_mass``, ``region_top_k``, ``collapse`` by
copy) and ``repro.core.approximate`` (``prune_edges_to_k``, the greedy
loop of ``staccato_approximate``).  It is the reference
``tests/test_construction_equivalence.py`` holds the shipped loop to:
same greedy, same candidate order, every float operation in the same
order.  The shipped code drops only repeated work:

- a copy per collapse, a topological order per helper, a BFS per probe;
- k*k products per merge;
- the strings of every candidate region: it scores a region on
  probabilities alone and ranks the strings of the winner only (once),
  unless the pruned line fails its prefix-free check;
- the re-validation and re-sort of each pruned edge.

It leans only on ``Sfa``'s public methods and ``repro.sfa.ops``'s public
functions, whose results are frozen to the last ulp.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.core.chunks import Region
from repro.sfa.model import Sfa, SfaError
from repro.sfa.ops import (
    ancestors,
    backward_mass,
    descendants,
    forward_mass,
    topological_order,
)

__all__ = [
    "k_best_between",
    "find_min_sfa",
    "region_mass",
    "region_top_k",
    "collapse",
    "prune_edges_to_k",
    "staccato_approximate",
]


def _merge_top_k(
    candidates: Iterable[tuple[float, str]], k: int
) -> list[tuple[float, str]]:
    """Keep the ``k`` most probable candidates, ties broken by string."""
    return heapq.nsmallest(k, candidates, key=lambda c: (-c[0], c[1]))


def k_best_between(
    sfa: Sfa,
    src: int,
    dst: int,
    k: int,
    within: set[int] | None = None,
) -> list[tuple[str, float]]:
    """The ``k`` best strings along ``src``-to-``dst`` paths.

    ``within`` optionally restricts the search to a node subset (used by
    Staccato's ``Collapse`` to rank the strings of a chunk region,
    paper Section 3.1).  Runs the k-best Viterbi DP in topological order:
    every node keeps its top-k partial ``(prob, string)`` paths, merged
    across incoming edges and emissions.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best: dict[int, list[tuple[float, str]]] = {src: [(1.0, "")]}
    for node in topological_order(sfa):
        partials = best.get(node)
        if not partials:
            continue
        if node == dst:
            break
        for succ in set(sfa.successors(node)):
            if within is not None and succ not in within:
                continue
            extended = [
                (prob * emission.prob, string + emission.string)
                for prob, string in partials
                for emission in sfa.emissions(node, succ)
            ]
            existing = best.get(succ, [])
            best[succ] = _merge_top_k(existing + extended, k)
    finished = best.get(dst, [])
    # Merge duplicate strings (only possible without unique paths), re-rank.
    by_string: dict[str, float] = {}
    for prob, string in finished:
        by_string[string] = by_string.get(string, 0.0) + prob
    ranked = sorted(by_string.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def _least_common_ancestor(
    sfa: Sfa, nodes: set[int], topo_index: dict[int, int]
) -> int:
    """The common ancestor of ``nodes`` latest in topological order.

    A node counts as its own ancestor, so if one member of ``nodes``
    reaches all the others it is returned directly.  The global start node
    is always a common ancestor, so the result exists.
    """
    common: set[int] | None = None
    for node in nodes:
        reaching = ancestors(sfa, node) | {node}
        common = reaching if common is None else common & reaching
    assert common
    return max(common, key=topo_index.__getitem__)


def _greatest_common_descendant(
    sfa: Sfa, nodes: set[int], topo_index: dict[int, int]
) -> int:
    """The common descendant of ``nodes`` earliest in topological order."""
    common: set[int] | None = None
    for node in nodes:
        reached = descendants(sfa, node) | {node}
        common = reached if common is None else common & reached
    assert common
    return min(common, key=topo_index.__getitem__)


def find_min_sfa(
    sfa: Sfa, seed_nodes: set[int], topo_index: dict[int, int] | None = None
) -> Region:
    """Grow ``seed_nodes`` into the minimal valid enclosing region.

    Implements paper Algorithm 1: while the current set is not a valid
    sub-SFA, compute the least common ancestor (fixing a missing unique
    start), the greatest common descendant (fixing a missing unique end),
    pull in the interval of nodes lying on entry-to-exit paths, and close
    over edges that cross the region boundary at an internal node.  The
    loop strictly grows the set, so it terminates (in the worst case with
    the whole SFA, which is trivially a valid region).

    ``topo_index`` lets callers that probe many seed sets share one
    topological-order computation.
    """
    if len(seed_nodes) < 2:
        raise SfaError("a chunk region needs at least two seed nodes")
    if topo_index is None:
        topo_index = {node: i for i, node in enumerate(topological_order(sfa))}
    grown = set(seed_nodes)
    while True:
        entry = _least_common_ancestor(sfa, grown, topo_index)
        exit_ = _greatest_common_descendant(sfa, grown, topo_index)
        if entry == exit_:
            raise SfaError(
                f"seed nodes {sorted(seed_nodes)} collapse to a single node"
            )
        if topo_index[entry] > topo_index[exit_]:
            # Pathological seed (e.g. parallel branches with no common
            # interior); widen to the whole automaton.
            entry, exit_ = sfa.start, sfa.final
        interval = (descendants(sfa, entry) | {entry}) & (
            ancestors(sfa, exit_) | {exit_}
        )
        grown |= interval
        boundary: set[int] = set()
        for node in interval - {entry, exit_}:
            for pred in sfa.pred(node):
                if pred not in interval:
                    boundary.add(pred)
            for succ in sfa.succ(node):
                if succ not in interval:
                    boundary.add(succ)
        if not boundary:
            return Region(nodes=frozenset(interval), entry=entry, exit=exit_)
        grown |= boundary


def region_mass(sfa: Sfa, region: Region) -> float:
    """Total probability of all entry-to-exit labeled paths in the region
    (the mass the region carries before pruning)."""
    mass = {node: 0.0 for node in region.nodes}
    mass[region.entry] = 1.0
    order = [n for n in topological_order(sfa) if n in region.nodes]
    for node in order:
        if node == region.exit or mass[node] == 0.0:
            continue
        for succ in set(sfa.successors(node)):
            if succ in region.nodes:
                mass[succ] += mass[node] * sfa.edge_mass(node, succ)
    return mass[region.exit]


def region_top_k(sfa: Sfa, region: Region, k: int) -> list[tuple[str, float]]:
    """The k highest-probability strings spelled by the region."""
    return k_best_between(sfa, region.entry, region.exit, k, within=set(region.nodes))


def collapse(sfa: Sfa, region: Region, k: int) -> Sfa:
    """Replace ``region`` with a single edge carrying its top-k strings.

    Returns a new SFA (the input is not modified).  This is the
    ``Collapse`` operation of paper Section 3.1; by Proposition 3.1,
    keeping the k most probable region strings maximizes the retained
    probability mass among all k-string choices for the new edge.
    """
    top = region_top_k(sfa, region, k)
    if not top:
        raise SfaError("region emits no strings; cannot collapse")
    result = sfa.copy()
    for node in region.internal:
        result.remove_node(node)
    if result.has_edge(region.entry, region.exit):
        # A direct entry->exit edge is part of the region's paths and its
        # strings already competed for the top-k slots.
        result.remove_edge(region.entry, region.exit)
    result.add_edge(region.entry, region.exit, top)
    return result


def prune_edges_to_k(sfa: Sfa, k: int) -> Sfa:
    """Retain only the k most probable emissions on every edge.

    This is the algorithm's standing invariant ("each edge emits at most k
    strings"); ties are broken deterministically by the emission ordering.
    """
    result = sfa.copy()
    for u, v in result.edges:
        emissions = result.emissions(u, v)
        if len(emissions) > k:
            result.replace_emissions(u, v, emissions[:k])
    return result


def _candidate_regions(
    sfa: Sfa,
    topo_index: dict[int, int],
    region_cache: dict[tuple[int, int, int], Region],
) -> dict[frozenset[int], Region]:
    """All distinct regions grown from adjacent-edge node triples.

    ``region_cache`` carries triple -> region results across greedy
    iterations; entries touching a collapsed region are evicted by the
    caller, so surviving entries are still correct (a collapse elsewhere
    does not change reachability among untouched nodes).
    """
    regions: dict[frozenset[int], Region] = {}
    for middle in sfa.nodes:
        if middle in (sfa.start, sfa.final):
            continue
        for pred in set(sfa.pred(middle)):
            for succ in set(sfa.succ(middle)):
                triple = (pred, middle, succ)
                region = region_cache.get(triple)
                if region is None:
                    region = find_min_sfa(sfa, {pred, middle, succ}, topo_index)
                    region_cache[triple] = region
                regions.setdefault(region.nodes, region)
    return regions


def staccato_approximate(sfa: Sfa, m: int, k: int) -> Sfa:
    """Build the Staccato approximation of ``sfa`` with parameters (m, k).

    ``m = 1`` degenerates to k-MAP (one chunk holding the k best strings
    of the whole line); ``m >= |E|`` keeps the structure and just prunes
    every edge to its k best emissions (paper Section 5.2).  The result
    generally retains less than the full probability mass.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = prune_edges_to_k(sfa, k)
    score_cache: dict[frozenset[int], float] = {}
    region_cache: dict[tuple[int, int, int], Region] = {}
    while work.num_edges > m:
        topo_index = {
            node: i for i, node in enumerate(topological_order(work))
        }
        candidates = _candidate_regions(work, topo_index, region_cache)
        if not candidates:
            break
        forward = forward_mass(work)
        backward = backward_mass(work)
        best_region: Region | None = None
        best_delta = float("-inf")
        for nodes, region in sorted(
            candidates.items(), key=lambda item: sorted(item[0])
        ):
            loss = score_cache.get(nodes)
            if loss is None:
                kept = sum(p for _, p in region_top_k(work, region, k))
                loss = kept - region_mass(work, region)
                score_cache[nodes] = loss
            delta = forward[region.entry] * backward[region.exit] * loss
            if delta > best_delta:
                best_delta = delta
                best_region = region
        assert best_region is not None
        work = collapse(work, best_region, k)
        touched = best_region.nodes
        score_cache = {
            nodes: loss
            for nodes, loss in score_cache.items()
            if not (nodes & touched)
        }
        region_cache = {
            triple: region
            for triple, region in region_cache.items()
            if not (region.nodes & touched)
        }
    return work
