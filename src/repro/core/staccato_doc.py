"""The Staccato representation of one OCR line.

After approximation a line is a *chunk graph*: an SFA whose edges are
chunks, each carrying at most ``k`` ranked strings.  In the RDBMS it is
stored as its compiled kernel (``CompiledKernel``) beside the graph, strings
included, as one ``SFA1`` BLOB in ``StaccatoGraph`` (paper Appendix G);
this class is the in-memory form both map to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sfa.model import Sfa
from ..sfa.ops import string_count, total_mass

__all__ = ["StaccatoDoc"]


@dataclass(frozen=True, slots=True)
class StaccatoDoc:
    """A chunked, pruned SFA plus the parameters that produced it."""

    sfa: Sfa
    m: int
    k: int

    @property
    def num_chunks(self) -> int:
        """Number of chunks actually retained (<= the requested m)."""
        return self.sfa.num_edges

    @property
    def strings_stored(self) -> int:
        """Number of (chunk, rank) rows the RDBMS stores."""
        return self.sfa.num_emissions()

    def distinct_strings(self) -> int:
        """Number of distinct line transcriptions representable -- grows
        like k**m (paper Figure 2)."""
        return string_count(self.sfa)

    def retained_mass(self) -> float:
        """Probability mass the representation kept (<= 1)."""
        return total_mass(self.sfa)

    def chunk_strings(self) -> list[tuple[tuple[int, int], list[tuple[str, float]]]]:
        """Per-chunk ranked string lists, keyed by chunk edge."""
        return [
            ((u, v), [(e.string, e.prob) for e in self.sfa.emissions(u, v)])
            for u, v in sorted(self.sfa.edges)
        ]
