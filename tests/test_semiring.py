"""Tests for the semiring-generic shortest distance (tests/oracles/semiring.py).

Each semiring instance must agree with the specialized implementation it
generalizes -- four independent oracles for one recursion.
"""

import math

import pytest
from hypothesis import given, settings

from repro.sfa.ops import forward_mass, string_count, total_mass
from repro.sfa.paths import map_string

from .oracles.semiring import COUNT, REAL, TROPICAL, VITERBI, shortest_distance
from .strategies import dag_sfas


class TestRealSemiring:
    @given(dag_sfas())
    @settings(max_examples=30, deadline=None)
    def test_matches_forward_mass(self, sfa):
        distance = shortest_distance(sfa, REAL)
        forward = forward_mass(sfa)
        for node in sfa.nodes:
            assert distance[node] == pytest.approx(forward[node])

    def test_total_mass_at_final(self, figure1):
        assert shortest_distance(figure1, REAL)[figure1.final] == pytest.approx(
            total_mass(figure1)
        )


class TestViterbiSemiring:
    @given(dag_sfas())
    @settings(max_examples=30, deadline=None)
    def test_matches_map_probability(self, sfa):
        _, map_prob = map_string(sfa)
        distance = shortest_distance(sfa, VITERBI)
        assert distance[sfa.final] == pytest.approx(map_prob)


class TestTropicalSemiring:
    @given(dag_sfas())
    @settings(max_examples=30, deadline=None)
    def test_is_neg_log_of_viterbi(self, sfa):
        _, map_prob = map_string(sfa)
        cost = shortest_distance(sfa, TROPICAL)[sfa.final]
        assert cost == pytest.approx(-math.log(map_prob))

    def test_zero_probability_is_infinite_cost(self, figure1):
        assert TROPICAL.weight(0.0) == math.inf


class TestCountSemiring:
    @given(dag_sfas())
    @settings(max_examples=30, deadline=None)
    def test_matches_string_count(self, sfa):
        assert shortest_distance(sfa, COUNT)[sfa.final] == string_count(sfa)

    def test_figure1(self, figure1):
        assert shortest_distance(figure1, COUNT)[figure1.final] == 24
