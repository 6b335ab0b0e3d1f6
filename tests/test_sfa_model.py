"""Unit tests for the SFA data model (repro.sfa.model)."""

import pytest

from repro.sfa.model import Emission, Sfa, SfaError


class TestEmission:
    def test_fields(self):
        e = Emission("ab", 0.5)
        assert e.string == "ab"
        assert e.prob == 0.5

    def test_empty_string_rejected(self):
        with pytest.raises(SfaError):
            Emission("", 0.5)

    def test_probability_bounds(self):
        with pytest.raises(SfaError):
            Emission("a", -0.1)
        with pytest.raises(SfaError):
            Emission("a", 1.5)

    def test_boundary_probabilities_allowed(self):
        assert Emission("a", 0.0).prob == 0.0
        assert Emission("a", 1.0).prob == 1.0


class TestSfaConstruction:
    def test_start_final_distinct(self):
        with pytest.raises(SfaError):
            Sfa(start=3, final=3)

    def test_add_edge_creates_nodes(self):
        sfa = Sfa(0, 2)
        sfa.add_edge(0, 1, [("a", 1.0)])
        sfa.add_edge(1, 2, [("b", 1.0)])
        assert set(sfa.nodes) == {0, 1, 2}
        assert sfa.num_edges == 2

    def test_no_self_loops(self):
        sfa = Sfa(0, 1)
        with pytest.raises(SfaError):
            sfa.add_edge(1, 1, [("a", 1.0)])

    def test_no_duplicate_edges(self):
        sfa = Sfa(0, 1)
        sfa.add_edge(0, 1, [("a", 1.0)])
        with pytest.raises(SfaError):
            sfa.add_edge(0, 1, [("b", 1.0)])

    def test_edge_needs_emissions(self):
        sfa = Sfa(0, 1)
        with pytest.raises(SfaError):
            sfa.add_edge(0, 1, [])

    def test_emissions_sorted_by_probability(self):
        sfa = Sfa(0, 1)
        sfa.add_edge(0, 1, [("low", 0.1), ("high", 0.7), ("mid", 0.2)])
        strings = [e.string for e in sfa.emissions(0, 1)]
        assert strings == ["high", "mid", "low"]

    def test_emission_tie_broken_by_string(self):
        sfa = Sfa(0, 1)
        sfa.add_edge(0, 1, [("b", 0.5), ("a", 0.5)])
        strings = [e.string for e in sfa.emissions(0, 1)]
        assert strings == ["a", "b"]

    def test_duplicate_strings_merge(self):
        sfa = Sfa(0, 1)
        sfa.add_edge(0, 1, [("a", 0.3), ("a", 0.2), ("b", 0.4)])
        emissions = {e.string: e.prob for e in sfa.emissions(0, 1)}
        assert emissions == pytest.approx({"a": 0.5, "b": 0.4})

    def test_fresh_node(self):
        sfa = Sfa(0, 5)
        node = sfa.fresh_node()
        assert node == 6
        assert sfa.has_node(6)


class TestSfaMutation:
    def _diamond(self) -> Sfa:
        sfa = Sfa(0, 3)
        sfa.add_edge(0, 1, [("a", 0.5)])
        sfa.add_edge(0, 2, [("b", 0.5)])
        sfa.add_edge(1, 3, [("c", 1.0)])
        sfa.add_edge(2, 3, [("d", 1.0)])
        return sfa

    def test_remove_edge(self):
        sfa = self._diamond()
        sfa.remove_edge(0, 1)
        assert not sfa.has_edge(0, 1)
        assert sfa.num_edges == 3
        assert 1 not in sfa.successors(0)

    def test_remove_missing_edge(self):
        sfa = self._diamond()
        with pytest.raises(SfaError):
            sfa.remove_edge(1, 2)

    def test_remove_node_drops_incident_edges(self):
        sfa = self._diamond()
        sfa.remove_node(1)
        assert not sfa.has_node(1)
        assert not sfa.has_edge(0, 1)
        assert not sfa.has_edge(1, 3)
        assert sfa.num_edges == 2

    def test_cannot_remove_start_or_final(self):
        sfa = self._diamond()
        with pytest.raises(SfaError):
            sfa.remove_node(0)
        with pytest.raises(SfaError):
            sfa.remove_node(3)

    def test_replace_emissions(self):
        sfa = self._diamond()
        sfa.replace_emissions(0, 1, [("z", 0.9)])
        assert [e.string for e in sfa.emissions(0, 1)] == ["z"]

    def test_edge_mass(self):
        sfa = Sfa(0, 1)
        sfa.add_edge(0, 1, [("a", 0.3), ("b", 0.45)])
        assert sfa.edge_mass(0, 1) == pytest.approx(0.75)


class TestSfaInspection:
    def test_degrees(self, figure1):
        assert figure1.out_degree(2) == 2
        assert figure1.in_degree(4) == 2
        assert figure1.in_degree(0) == 0
        assert figure1.out_degree(5) == 0

    def test_iter_edge_emissions(self, figure1):
        triples = list(figure1.iter_edge_emissions())
        assert len(triples) == figure1.num_emissions()
        assert all(isinstance(e, Emission) for _, _, e in triples)

    def test_num_emissions(self, figure1):
        assert figure1.num_emissions() == 10

    def test_max_strings_per_edge(self, figure1):
        assert figure1.max_strings_per_edge() == 2
        assert Sfa(0, 1).max_strings_per_edge() == 0

    def test_no_copy_views_alias_internal_state(self, figure1):
        assert figure1.succ(0) is figure1.succ(0)
        assert figure1.successors(0) is not figure1.successors(0)


class TestCopyAndEquality:
    def test_copy_is_deep_structurally(self, figure1):
        clone = figure1.copy()
        assert clone.structurally_equal(figure1)
        clone.remove_edge(0, 1)
        assert not clone.structurally_equal(figure1)
        assert figure1.has_edge(0, 1)

    def test_copy_is_structural_and_shares_nothing_mutable(self, figure3):
        from repro.sfa.kernel import compile_kernel
        from repro.sfa.serialize import kernel_to_bytes, to_bytes

        # Move an edge to the back of its lists so the orders to keep are
        # not simply ascending.
        figure3.replace_emissions(1, 2, figure3.emissions(1, 2))
        before = to_bytes(figure3), kernel_to_bytes(compile_kernel(figure3))
        clone = figure3.copy()
        assert clone.structurally_equal(figure3)
        assert (to_bytes(clone), kernel_to_bytes(compile_kernel(clone))) == before
        assert clone.nodes == figure3.nodes and clone.edges == figure3.edges
        for node in figure3.nodes:
            assert clone.successors(node) == figure3.successors(node)
            assert clone.predecessors(node) == figure3.predecessors(node)
            assert clone.succ(node) is not figure3.succ(node)
        for u, v in figure3.edges:
            assert clone.emissions(u, v) == figure3.emissions(u, v)
            assert clone.edge_mass(u, v) == figure3.edge_mass(u, v)
        # Mutating either side leaves the other untouched (the memoised
        # edge masses included).
        clone.remove_node(2)
        clone.add_edge(1, 5, [("q", 0.5)])
        assert (to_bytes(figure3), kernel_to_bytes(compile_kernel(figure3))) == before
        figure3.replace_emissions(0, 1, [("z", 0.5)])
        assert [(e.string, e.prob) for e in clone.emissions(0, 1)] == [("a", 1.0)]
        assert (clone.edge_mass(0, 1), figure3.edge_mass(0, 1)) == (1.0, 0.5)

    def test_edge_mass_follows_replaced_emissions(self, figure1):
        assert figure1.edge_mass(4, 5) == pytest.approx(1.0)
        figure1.replace_emissions(4, 5, [("d", 0.5), ("3", 0.25)])
        assert figure1.edge_mass(4, 5) == 0.75

    def test_structural_inequality_on_probability(self, figure1):
        clone = figure1.copy()
        clone.replace_emissions(4, 5, [("d", 0.8), ("3", 0.2)])
        assert not clone.structurally_equal(figure1)

    def test_repr(self, figure1):
        text = repr(figure1)
        assert "nodes=6" in text
        assert "edges=6" in text
