"""Inverted indexing over probabilistic OCR data (paper Section 4)."""

from .anchors import anchor_for_query, left_anchor_word
from .inverted import build_sfa_postings
from .postings import Posting, PostingIndex
from .projection import projected_match_probability, projection_nodes

__all__ = [
    "anchor_for_query",
    "left_anchor_word",
    "build_sfa_postings",
    "Posting",
    "PostingIndex",
    "projected_match_probability",
    "projection_nodes",
]
