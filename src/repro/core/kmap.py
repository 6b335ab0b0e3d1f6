"""The MAP / k-MAP baseline (paper Section 3, "Baseline Approaches").

k-MAP stores the k highest-probability strings of each line SFA, one
tuple per string with its probability; MAP is the k = 1 special case and
is what production systems like Google Books keep.  Query processing over
this representation is ordinary text matching plus probability summation
(each stored string is a disjoint probabilistic event).

k-MAP is also the ``m = 1`` end of Staccato's trade-off: one chunk holding
the k best strings of the whole line.  :func:`kmap_sfa` builds that
two-node SFA, which the engine stores and evaluates as a compiled kernel
like every other approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sfa.model import Sfa
from ..sfa.paths import k_best_strings

__all__ = ["KMapDoc", "build_kmap", "kmap_sfa"]


@dataclass(frozen=True, slots=True)
class KMapDoc:
    """The k-MAP representation of one line: ranked strings."""

    strings: tuple[tuple[str, float], ...]
    k: int

    @property
    def map_string(self) -> str:
        """The single most likely transcription."""
        return self.strings[0][0]

    def retained_mass(self) -> float:
        """Probability mass the k stored strings cover."""
        return sum(prob for _, prob in self.strings)


def build_kmap(sfa: Sfa, k: int) -> KMapDoc:
    """Extract the k-MAP representation of a line SFA."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return KMapDoc(strings=tuple(k_best_strings(sfa, k)), k=k)


def kmap_sfa(strings: Iterable[tuple[str, float]]) -> Sfa:
    """The one-chunk SFA of ranked k-MAP strings: one edge from node 0
    to node 1 carrying them.  The edge keeps :func:`build_kmap`'s rank
    order (descending probability, ties by string), so its kernel sums
    a line's accepted strings in the order the strings rank."""
    sfa = Sfa(0, 1)
    sfa.add_edge(0, 1, strings)
    return sfa
