"""Cross-module property tests: the invariants that tie the system together.

These are the properties a downstream user implicitly relies on:

* any approximation's match probability is a *lower bound* on the full
  SFA's (approximations emit a string subset with original probabilities);
* k-MAP probability <= Staccato(m>=1) is not guaranteed pointwise, but
  both are bounded by FullSFA and by the retained mass;
* LIKE translation agrees with Python's re engine on the LIKE fragment;
* the DB round-trip preserves query probabilities exactly.
"""

import re as python_re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import dfa_for_pattern
from repro.core.approximate import staccato_approximate
from repro.core.kmap import build_kmap
from repro.query.eval_sfa import match_probability
from repro.query.like import compile_like, like_to_pattern
from repro.sfa.ops import total_mass

from .oracles.strings import match_probability_strings
from .strategies import dag_sfas, regex_patterns


class TestApproximationBounds:
    @given(dag_sfas(min_length=3, max_length=8),
           st.integers(1, 4), st.integers(1, 3), regex_patterns(max_atoms=3))
    @settings(max_examples=40, deadline=None)
    def test_staccato_probability_lower_bounds_full(self, sfa, m, k, pattern):
        query = dfa_for_pattern(pattern)
        approx = staccato_approximate(sfa, m=m, k=k)
        assert (
            match_probability(approx, query)
            <= match_probability(sfa, query) + 1e-9
        )

    @given(dag_sfas(min_length=3, max_length=8),
           st.integers(1, 4), regex_patterns(max_atoms=3))
    @settings(max_examples=40, deadline=None)
    def test_kmap_probability_lower_bounds_full(self, sfa, k, pattern):
        query = dfa_for_pattern(pattern)
        strings = build_kmap(sfa, k).strings
        assert (
            match_probability_strings(strings, query)
            <= match_probability(sfa, query) + 1e-9
        )

    @given(dag_sfas(min_length=3, max_length=8),
           st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_match_probability_bounded_by_retained_mass(self, sfa, m, k):
        approx = staccato_approximate(sfa, m=m, k=k)
        query = dfa_for_pattern("a")  # any pattern
        assert match_probability(approx, query) <= total_mass(approx) + 1e-9


class TestLikeFragmentAgainstRe:
    @given(st.text(alphabet="ab%_c", min_size=1, max_size=6),
           st.text(alphabet="abc", max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_like_matches_re_translation(self, like, text):
        dfa = compile_like(like)
        # Reference: translate LIKE to an anchored Python regex.
        parts = ["^"]
        for ch in like:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(python_re.escape(ch))
        parts.append("$")
        want = python_re.match("".join(parts), text) is not None
        assert dfa.accepts(text) == want

    def test_translation_is_stable(self):
        for like in ["%Ford%", "F_rd", "%a%b%", "abc", "%%"]:
            first = like_to_pattern(like)
            second = like_to_pattern(like)
            assert first == second


class TestDbRoundTripProbabilities:
    def test_blob_round_trip_preserves_probabilities(self, fast_ocr_engine):
        from repro.sfa import serialize

        sfa = fast_ocr_engine.recognize_line("Public Law 85 enacted")
        back = serialize.from_bytes(serialize.to_bytes(sfa))
        for like in ["%Public%", r"REGEX:Law (8|9)\d", "%85%"]:
            query = compile_like(like)
            assert match_probability(back, query) == pytest.approx(
                match_probability(sfa, query)
            )
