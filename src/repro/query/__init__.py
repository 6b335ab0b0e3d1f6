"""Probabilistic query processing over OCR representations."""

from .answers import Answer, rank_answers
from .eval_sfa import match_probability, match_probability_exact
from .like import REGEX_PREFIX, compile_like, escape_literal, like_to_pattern

__all__ = [
    "Answer",
    "rank_answers",
    "match_probability",
    "match_probability_exact",
    "REGEX_PREFIX",
    "compile_like",
    "escape_literal",
    "like_to_pattern",
]
