"""Tests for the SFA constructors (repro.sfa.builder)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sfa import ops
from repro.sfa.builder import (
    chain_sfa,
    figure1_sfa,
    figure2_sfa,
    figure3_sfa,
    from_string,
    random_chain_sfa,
    random_dag_sfa,
)


class TestChain:
    def test_from_string(self):
        sfa = from_string("abc")
        assert ops.string_distribution(sfa) == {"abc": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_string("")
        with pytest.raises(ValueError):
            chain_sfa([])

    def test_alternatives(self):
        sfa = chain_sfa([[("a", 0.6), ("b", 0.4)], [("c", 1.0)]])
        dist = ops.string_distribution(sfa)
        assert dist == pytest.approx({"ac": 0.6, "bc": 0.4})


class TestPaperFigures:
    def test_figure1_highlights(self):
        sfa = figure1_sfa()
        ops.validate(sfa, require_stochastic=True)
        dist = ops.string_distribution(sfa)
        # The two strings the paper calls out, with their probabilities.
        assert dist["F0 rd"] == pytest.approx(0.20736)
        assert dist["Ford"] == pytest.approx(0.1152)

    def test_figure2_string_count(self):
        sfa = figure2_sfa()
        ops.validate(sfa, require_stochastic=True)
        assert ops.string_count(sfa) == 4 * 3 * 4 * 3

    def test_figure3_emits_exactly_two_strings(self):
        sfa = figure3_sfa()
        ops.validate(sfa, require_stochastic=True)
        assert set(ops.string_distribution(sfa)) == {"aef", "abcd"}


class TestRandomGenerators:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 10))
    @example(seed=2201, length=10)  # 294 912 strings: over the default limit
    @settings(max_examples=50, deadline=None)
    def test_chain_valid_stochastic_unique(self, seed, length):
        sfa = random_chain_sfa(random.Random(seed), length)
        ops.validate(sfa, require_stochastic=True)
        # Up to max_choices ** length = 4 ** 10 strings.
        assert ops.has_unique_paths(sfa, limit=2_000_000)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_dag_valid_stochastic_unique(self, seed, length):
        sfa = random_dag_sfa(random.Random(seed), length)
        ops.validate(sfa, require_stochastic=True)
        assert ops.has_unique_paths(sfa, limit=2_000_000)

    def test_deterministic_for_seed(self):
        a = random_dag_sfa(random.Random(99), 8)
        b = random_dag_sfa(random.Random(99), 8)
        assert a.structurally_equal(b)
