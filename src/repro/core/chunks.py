"""FindMinSFA and Collapse: the chunk-forming operations (paper Alg. 1).

Staccato approximates an SFA by repeatedly *merging* a set of transitions
into a single edge.  Merging is only sound when the merged node set forms
a valid sub-SFA -- a single-entry / single-exit region -- otherwise new
strings not present in the original model appear (the "bad merge" of
paper Figure 3(C)).  ``find_min_sfa`` grows a seed node set into the
minimal enclosing region using least-common-ancestor / greatest-common-
descendant steps plus boundary-edge closure; ``collapse`` replaces that
region with one edge carrying the region's top-k strings.

The functions taking an ``Sfa`` are entry points onto routines that take
the SFA *and a topological order of it*: the Staccato loop
(:mod:`repro.core.approximate`) holds one order and one
:class:`Reachability` table, carries both across each collapse that keeps
the order, and probes, ranks and weighs every candidate region in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..sfa.model import Sfa, SfaError
from ..sfa.ops import sum_product, topological_order
from ..sfa.paths import k_best_between

__all__ = ["Region", "find_min_sfa", "collapse", "region_mass", "region_top_k"]


@dataclass(frozen=True, slots=True)
class Region:
    """A single-entry/single-exit region of an SFA.

    ``nodes`` includes ``entry`` and ``exit``; every entry-to-exit path of
    the SFA lies wholly inside ``nodes``.
    """

    nodes: frozenset[int]
    entry: int
    exit: int

    @property
    def internal(self) -> frozenset[int]:
        """Region nodes other than the entry and exit."""
        return self.nodes - {self.entry, self.exit}


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Reachability:
    """Who reaches whom in one SFA, as bitsets over one topological order.

    Bit ``i`` stands for ``order[i]``.  ``up[i]`` / ``down[i]`` hold the
    ancestors / descendants of ``order[i]`` *including itself*, built by
    one sweep each over the order; ``near[i]`` its direct neighbours.  The
    latest common ancestor of a node set is then the highest bit of the
    intersection of their ``up`` sets, the earliest common descendant the
    lowest bit of the intersection of their ``down`` sets -- "latest" and
    "earliest" in exactly this order, which is why region growth must be
    handed the order its caller ranks by.  Valid until the SFA changes,
    except across a collapse that :meth:`follow` patches it for.
    """

    __slots__ = ("sfa", "order", "pos", "up", "down", "near", "alive")

    def __init__(self, sfa: Sfa, order: list[int]) -> None:
        self.sfa = sfa
        self.order = order
        self.pos = pos = {node: i for i, node in enumerate(order)}
        count = len(order)
        self.up = up = [0] * count
        self.down = down = [0] * count
        self.near = near = [0] * count
        self.alive = (1 << count) - 1
        for i, node in enumerate(order):
            reach = 1 << i
            for pred in sfa.pred(node):
                reach |= up[pos[pred]]
                near[i] |= 1 << pos[pred]
            up[i] = reach
        for i in range(count - 1, -1, -1):
            reach = 1 << i
            for succ in sfa.succ(order[i]):
                reach |= down[pos[succ]]
                near[i] |= 1 << pos[succ]
            down[i] = reach

    def grow(self, seed_nodes: Iterable[int]) -> Region:
        """Paper Algorithm 1 on the bitsets; see :func:`find_min_sfa`."""
        pos, up, down, near = self.pos, self.up, self.down, self.near
        seeds = sorted(seed_nodes)
        if len(seeds) < 2:
            raise SfaError("a chunk region needs at least two seed nodes")
        grown = 0
        for node in seeds:
            grown |= 1 << pos[node]
        while True:
            above = below = -1
            for i in _bits(grown):
                above &= up[i]
                below &= down[i]
            entry = above.bit_length() - 1
            exit_ = (below & -below).bit_length() - 1
            if entry == exit_:
                raise SfaError(f"seed nodes {seeds} collapse to a single node")
            if entry > exit_:
                # Pathological seed (e.g. parallel branches with no common
                # interior); widen to the whole automaton.
                entry, exit_ = pos[self.sfa.start], pos[self.sfa.final]
            interval = down[entry] & up[exit_]
            boundary = 0
            for i in _bits(interval & ~(1 << entry | 1 << exit_)):
                boundary |= near[i]
            boundary &= ~interval
            if not boundary:
                order = self.order
                return Region(
                    nodes=frozenset(order[i] for i in _bits(interval)),
                    entry=order[entry],
                    exit=order[exit_],
                )
            grown |= interval | boundary

    def span(self, region: Region) -> list[int]:
        """The stretch of the order from the region's entry to its exit:
        a topological order covering the region (and, where parallel
        branches interleave or a collapse has since removed them, some
        nodes outside it)."""
        return self.order[self.pos[region.entry] : self.pos[region.exit] + 1]

    def follow(self, region: Region) -> bool:
        """Patch the table for ``collapse_in_place(self.sfa, region, ...)``,
        already applied; False if it no longer stands for the collapsed
        SFA's topological order, which must then be built afresh.

        Reachability among the nodes that remain does not change (a path
        through the interior now takes the entry -> exit edge), so the
        interior's bits are cleared and the entry and exit made
        neighbours; every bit keeps its position.  That stands for the
        new order if it is the old one less the interior.  Kahn's
        algorithm (FIFO, successors taken by id) emits the nodes sorted by
        (position of their last predecessor, id): the order it emits is
        the one order so sorted.  The collapse changes that key for the
        exit alone, so the order is kept iff the exit still sorts between
        the nodes that remain either side of it.
        """
        pos, order = self.pos, self.order
        keep = self.alive
        for node in region.internal:
            keep &= ~(1 << pos[node])
        self.alive = keep
        self.up = [bits & keep for bits in self.up]
        self.down = [bits & keep for bits in self.down]
        near = self.near
        entry, exit_ = pos[region.entry], pos[region.exit]
        near[entry] = near[entry] & keep | 1 << exit_
        near[exit_] = near[exit_] & keep | 1 << entry

        def key(i: int) -> tuple[int, int]:
            """Kahn's sort key of the node at bit ``i``."""
            return (near[i] & ((1 << i) - 1)).bit_length() - 1, order[i]

        # The entry always remains before the exit; something may after.
        before = (keep & ((1 << exit_) - 1)).bit_length() - 1
        later = keep >> exit_ >> 1
        after = exit_ + (later & -later).bit_length()
        return key(before) < key(exit_) and (not later or key(exit_) < key(after))


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

    ``topo_index`` (node -> position in a topological order of ``sfa``)
    lets a caller choose the order "least" and "greatest" refer to;
    by default it is :func:`~repro.sfa.ops.topological_order`'s.
    """
    if topo_index is None:
        order = topological_order(sfa)
    else:
        order = sorted(sfa.nodes, key=topo_index.__getitem__)
    return Reachability(sfa, order).grow(seed_nodes)


def region_mass(
    sfa: Sfa, region: Region, order: list[int] | None = None
) -> float:
    """Total probability of all entry-to-exit labeled paths in the region
    (the mass the region carries before pruning).

    ``order`` is a topological order covering the region, for callers
    that already hold one.
    """
    if order is None:
        order = topological_order(sfa)
    nodes = region.nodes
    inside = [node for node in order if node in nodes]
    return sum_product(sfa, inside, region.entry, within=nodes)[region.exit]


def region_top_k(
    sfa: Sfa, region: Region, k: int, order: list[int] | None = None
) -> list[tuple[str, float]]:
    """The k highest-probability strings spelled by the region (``order``
    as in :func:`region_mass`)."""
    return k_best_between(
        sfa, region.entry, region.exit, k, within=region.nodes, order=order
    )


def collapse_in_place(
    sfa: Sfa, region: Region, top: list[tuple[str, float]]
) -> None:
    """Replace ``region`` of ``sfa`` by one edge carrying ``top``, the
    region's ranked strings."""
    if not top:
        raise SfaError("region emits no strings; cannot collapse")
    for node in region.internal:
        sfa.remove_node(node)
    if sfa.has_edge(region.entry, region.exit):
        # A direct entry->exit edge is part of the region's paths and its
        # strings already competed for the top-k slots.
        sfa.remove_edge(region.entry, region.exit)
    sfa.add_edge(region.entry, region.exit, top)


def collapse(sfa: Sfa, region: Region, k: int) -> Sfa:
    """Replace ``region`` with a single edge carrying its top-k strings.

    Returns a new SFA (the input is not modified).  This is the
    ``Collapse`` operation of paper Section 3.1; by Proposition 3.1,
    keeping the k most probable region strings maximizes the retained
    probability mass among all k-string choices for the new edge.
    """
    top = region_top_k(sfa, region, k)
    result = sfa.copy()
    collapse_in_place(result, region, top)
    return result
