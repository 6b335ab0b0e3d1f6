"""Tests for the formal-analysis utilities (tests/oracles/theory.py).

These make Proposition 3.1 and the Appendix C KL results executable.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfa.builder import random_chain_sfa, random_dag_sfa
from repro.sfa.ops import total_mass

from .oracles.theory import (
    exhaustive_best_selection,
    greedy_selection_mass,
    kl_of_selection,
    selection_mass,
)


class TestSelectionMass:
    def test_full_selection_keeps_everything(self, figure1):
        selection = {
            (u, v): tuple(e.string for e in figure1.emissions(u, v))
            for u, v in figure1.edges
        }
        assert selection_mass(figure1, selection) == pytest.approx(1.0)

    def test_partial_selection(self, figure1):
        selection = {(0, 1): ("F",)}
        assert selection_mass(figure1, selection) == pytest.approx(0.8)


class TestProposition31:
    """Greedy top-k per edge maximizes retained mass (Prop 3.1)."""

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_greedy_equals_exhaustive_on_chains(self, seed, length, k):
        sfa = random_chain_sfa(random.Random(seed), length, max_choices=3)
        greedy = greedy_selection_mass(sfa, k)
        _, best = exhaustive_best_selection(sfa, k)
        assert greedy == pytest.approx(best)

    @given(st.integers(0, 10_000), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_greedy_equals_exhaustive_on_dags(self, seed, k):
        sfa = random_dag_sfa(random.Random(seed), 4, max_choices=2)
        greedy = greedy_selection_mass(sfa, k)
        _, best = exhaustive_best_selection(sfa, k)
        assert greedy == pytest.approx(best)

    def test_greedy_mass_figure1(self, figure1):
        # Keeping the top emission per edge keeps exactly the product of
        # per-position maxima along the surviving structure.
        mass = greedy_selection_mass(figure1, 1)
        assert 0.0 < mass < total_mass(figure1)


class TestKl:
    def test_kl_is_neg_log_mass(self, figure1):
        selection = {(0, 1): ("F",)}
        assert kl_of_selection(figure1, selection) == pytest.approx(-math.log(0.8))

    def test_kl_zero_when_nothing_dropped(self, figure1):
        selection = {
            (u, v): tuple(e.string for e in figure1.emissions(u, v))
            for u, v in figure1.edges
        }
        assert kl_of_selection(figure1, selection) == pytest.approx(0.0)

    def test_kl_infinite_when_everything_dropped(self, figure1):
        selection = {(u, v): () for (u, v) in figure1.edges}
        assert kl_of_selection(figure1, selection) == math.inf

    def test_more_mass_means_less_kl(self, figure1):
        """Appendix C: retained mass orders approximation quality."""
        big = kl_of_selection(figure1, {(0, 1): ("T",)})   # mass 0.2
        small = kl_of_selection(figure1, {(0, 1): ("F",)})  # mass 0.8
        assert small < big
