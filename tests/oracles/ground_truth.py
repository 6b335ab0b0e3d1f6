"""Ground truth: which lines *really* match a query.

The paper built manual ground truth for its scanned corpora (Section 5,
Table 6 reports the match counts).  With a simulated OCR channel we get
ground truth for free: a line truly matches a query iff its *clean*
ground-truth text satisfies the query DFA.  Recall/precision of each
storage approach are then measured against these sets.
"""

from __future__ import annotations

from repro.automata.dfa import dfa_for_pattern
from repro.query.like import REGEX_PREFIX, compile_like
from repro.ocr.corpus import Dataset

__all__ = ["true_matches", "true_match_count"]


def true_matches(dataset: Dataset, pattern: str) -> set[int]:
    """The set of global line ids whose ground-truth text matches.

    ``pattern`` may be a LIKE pattern (``%Ford%``), a ``REGEX:``-prefixed
    query-language pattern, or a bare pattern in the query language (which
    is matched anywhere in the line, as all the paper's queries are).
    """
    if pattern.startswith(REGEX_PREFIX) or "%" in pattern or "_" in pattern:
        dfa = compile_like(pattern)
    else:
        dfa = dfa_for_pattern(pattern, match_anywhere=True)
    return {
        line_id
        for line_id, _, _, text in dataset.lines()
        if dfa.accepts(text)
    }


def true_match_count(dataset: Dataset, pattern: str) -> int:
    """Size of the ground-truth answer set (the '# in Truth' of Table 6)."""
    return len(true_matches(dataset, pattern))
