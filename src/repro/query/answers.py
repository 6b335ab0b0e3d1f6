"""Probabilistic answers: ranking and the NumAns cutoff.

A single-table select-project query over OCR data produces a
*probabilistic relation*: one row per line with the probability the line
matches (paper Sections 1-2).  The evaluation ranks rows by probability
and returns the top ``NumAns`` (the paper sets NumAns = 100, larger than
every ground-truth answer set; Appendix H.3 studies its sensitivity).
The order is total and never depends on NumAns, so a top-n answer is
the first n rows of a top-N answer for every n <= N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Answer", "rank_answers"]


@dataclass(frozen=True, slots=True)
class Answer:
    """One row of the probabilistic result relation."""

    line_id: int
    doc_id: int
    line_no: int
    probability: float

    def key(self) -> int:
        """The stable identity of this row (its line id)."""
        return self.line_id


def rank_answers(
    answers: Iterable[Answer],
    num_ans: int | None = 100,
    min_probability: float = 0.0,
) -> list[Answer]:
    """Rank by descending probability, drop non-matches, cut at NumAns.

    Ties are broken by (DocId, LineNo, line id) -- the key
    :func:`~repro.service.shards.merge_ranked` merges shards by -- so a
    shard's top-n holds every row of its own that the merged top-n
    keeps, whatever order its line ids were assigned in.  ``num_ans=None``
    returns every matching row (used when a downstream probabilistic
    RDBMS ingests the full relation).
    """
    kept = [a for a in answers if a.probability > min_probability]
    kept.sort(key=lambda a: (-a.probability, a.doc_id, a.line_no, a.line_id))
    if num_ans is None:
        return kept
    return kept[:num_ans]

