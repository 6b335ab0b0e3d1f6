"""Tests for the greedy Staccato construction (repro.core.approximate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import prune_edges_to_k, staccato_approximate
from repro.sfa import ops
from repro.sfa.builder import figure2_sfa
from repro.sfa.paths import k_best_strings

from .strategies import dag_sfas


class TestPruneEdges:
    def test_keeps_top_k(self, figure1):
        pruned = prune_edges_to_k(figure1, 1)
        for u, v in pruned.edges:
            assert len(pruned.emissions(u, v)) == 1
        # MAP path survives
        dist = ops.string_distribution(pruned)
        assert "F0 rd" in dist

    def test_noop_when_k_large(self, figure1):
        assert prune_edges_to_k(figure1, 100).structurally_equal(figure1)


class TestParameterValidation:
    def test_m_positive(self, figure1):
        with pytest.raises(ValueError):
            staccato_approximate(figure1, m=0, k=5)

    def test_k_positive(self, figure1):
        with pytest.raises(ValueError):
            staccato_approximate(figure1, m=5, k=0)


class TestDegenerateSettings:
    def test_m_one_equals_kmap(self):
        """Paper Section 5.1: 'When m = 1, Staccato is equivalent to
        k-MAP'."""
        sfa = figure2_sfa()
        for k in (1, 3, 5):
            approx = staccato_approximate(sfa, m=1, k=k)
            assert approx.num_edges == 1
            got = ops.string_distribution(approx)
            want = dict(k_best_strings(sfa, k))
            assert set(got) == set(want)
            for string in got:
                assert got[string] == pytest.approx(want[string])

    def test_m_at_least_edges_keeps_structure(self, figure1):
        approx = staccato_approximate(figure1, m=figure1.num_edges, k=2)
        assert approx.num_edges == figure1.num_edges
        assert set(approx.edges) == set(figure1.edges)

    def test_figure2_m2_k3_stores_k_pow_m(self):
        """Paper Figure 2: m=2, k=3 stores 3**2 = 9 strings."""
        approx = staccato_approximate(figure2_sfa(), m=2, k=3)
        assert approx.num_edges == 2
        assert ops.string_count(approx) == 9


class TestInvariants:
    @given(dag_sfas(min_length=3, max_length=9),
           st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_output_is_valid_bounded_subset(self, sfa, m, k):
        approx = staccato_approximate(sfa, m=m, k=k)
        ops.validate(approx)
        assert approx.num_edges <= max(m, 1) or approx.num_edges <= sfa.num_edges
        assert approx.max_strings_per_edge() <= k
        original = ops.string_distribution(sfa)
        for string, prob in ops.string_distribution(approx).items():
            assert string in original, "approximation invented a string"
            assert prob == pytest.approx(original[string])

    @given(dag_sfas(min_length=3, max_length=8), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_mass_grows_with_m(self, sfa, k):
        """More chunks retain (weakly) more probability mass."""
        masses = [
            ops.total_mass(staccato_approximate(sfa, m=m, k=k))
            for m in (1, 3, sfa.num_edges)
        ]
        # Not guaranteed monotone pointwise by the greedy heuristic, but
        # the endpoints must order: full structure >= single chunk.
        assert masses[-1] >= masses[0] - 1e-9

    @given(dag_sfas(min_length=3, max_length=8))
    @settings(max_examples=20, deadline=None)
    def test_mass_grows_with_k(self, sfa):
        masses = [
            ops.total_mass(staccato_approximate(sfa, m=2, k=k))
            for k in (1, 2, 4, 8)
        ]
        for small, big in zip(masses, masses[1:]):
            assert big >= small - 1e-9

    def test_deterministic(self, figure2):
        a = staccato_approximate(figure2, m=2, k=3)
        b = staccato_approximate(figure2, m=2, k=3)
        assert a.structurally_equal(b)


class TestFigure2ChunkGraph:
    def test_chunks_strings_and_mass(self, figure2):
        graph = staccato_approximate(figure2, m=2, k=3)
        assert graph.num_edges == 2
        assert ops.string_count(graph) == 9
        assert graph.num_emissions() == 6  # 2 chunks x 3 strings
        assert 0.0 < ops.total_mass(graph) <= 1.0
        for u, v in graph.edges:
            assert len(graph.emissions(u, v)) == 3
