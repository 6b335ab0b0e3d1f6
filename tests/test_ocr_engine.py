"""Tests for the simulated OCR engine (repro.ocr.engine)."""

import pytest

from repro.ocr.engine import SimulatedOcrEngine, stable_seed
from repro.ocr.noise import NoiseModel
from repro.sfa import ops
from repro.sfa.paths import map_string


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_distinguishes_inputs(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("ab") != stable_seed("a", "b")


class TestRecognizeLine:
    def test_empty_line_rejected(self, fast_ocr_engine):
        with pytest.raises(ValueError):
            fast_ocr_engine.recognize_line("")

    def test_output_is_valid_stochastic_sfa(self, fast_ocr_engine):
        sfa = fast_ocr_engine.recognize_line("Public Law 88")
        ops.validate(sfa, require_stochastic=True)

    def test_deterministic_per_seed(self, fast_ocr_engine):
        a = fast_ocr_engine.recognize_line("hello world", line_seed=3)
        b = fast_ocr_engine.recognize_line("hello world", line_seed=3)
        assert a.structurally_equal(b)

    def test_line_seed_changes_output(self, fast_ocr_engine):
        a = fast_ocr_engine.recognize_line("hello world rnm", line_seed=1)
        b = fast_ocr_engine.recognize_line("hello world rnm", line_seed=2)
        assert not a.structurally_equal(b)

    def test_engine_seed_changes_output(self):
        a = SimulatedOcrEngine(seed=1).recognize_line("merge rn here")
        b = SimulatedOcrEngine(seed=2).recognize_line("merge rn here")
        assert not a.structurally_equal(b)

    def test_true_text_always_representable(self, fast_ocr_engine):
        for text in ["the law", "U.S.C. 2301", "rn merge m split"]:
            sfa = fast_ocr_engine.recognize_line(text)
            dist = ops.string_distribution(sfa, limit=10_000_000)
            assert text in dist
            assert dist[text] > 0.0

    def test_deterministic_automaton_hence_unique_paths(self, ocr_engine):
        """Outgoing emission first-chars are distinct at every node, which
        makes the SFA deterministic and guarantees unique paths even when
        enumeration is infeasible."""
        sfa = ocr_engine.recognize_line("the President shall report rn")
        for node in sfa.nodes:
            first_chars = []
            for succ in set(sfa.successors(node)):
                first_chars.extend(
                    e.string[0] for e in sfa.emissions(node, succ)
                )
            assert len(first_chars) == len(set(first_chars)), node

    def test_unique_paths_small_line(self, fast_ocr_engine):
        sfa = fast_ocr_engine.recognize_line("rn m d", line_seed=4)
        assert ops.has_unique_paths(sfa, limit=10_000_000)

    def test_structural_branching_occurs(self):
        # With merge probability 1, 'rn' must produce a skip edge.
        model = NoiseModel(merge_prob=1.0, split_prob=0.0, tail_mass=0.0)
        engine = SimulatedOcrEngine(model, seed=0)
        sfa = engine.recognize_line("rn")
        # Chain edges (0,1),(1,2) plus the skip edge (0,2).
        assert sfa.has_edge(0, 2)
        merged = {e.string for e in sfa.emissions(0, 2)}
        assert merged == {"m"}

    def test_split_creates_aux_node(self):
        model = NoiseModel(split_prob=1.0, merge_prob=0.0, tail_mass=0.0)
        engine = SimulatedOcrEngine(model, seed=0)
        sfa = engine.recognize_line("m")
        assert sfa.num_nodes == 3  # 0, final, aux
        dist = ops.string_distribution(sfa)
        assert "rn" in dist

    def test_space_drop(self):
        model = NoiseModel(
            space_drop_prob=1.0, merge_prob=0.0, split_prob=0.0, tail_mass=0.0
        )
        engine = SimulatedOcrEngine(model, seed=0)
        sfa = engine.recognize_line("a b")
        dist = ops.string_distribution(sfa)
        assert any(" " not in s for s in dist)  # some string dropped the space

    def test_map_is_usually_close_to_truth(self, fast_ocr_engine):
        text = "the Commission shall review public works"
        sfa = fast_ocr_engine.recognize_line(text)
        best, _ = map_string(sfa)
        # Hard errors may flip a few characters but lengths stay comparable.
        assert abs(len(best) - len(text)) <= 3


class TestRecognizeDocument:
    """Ingest recognizes a document line by line, each line under its
    own ``(doc_id, line_no)`` seed."""

    def test_one_sfa_per_line(self, fast_ocr_engine):
        for line_no, line in enumerate(["ab", "cd", "ef"]):
            sfa = fast_ocr_engine.recognize_line(line, line_seed=(0, line_no))
            ops.validate(sfa, require_stochastic=True)

    def test_lines_seeded_independently(self, fast_ocr_engine):
        first, second = (
            fast_ocr_engine.recognize_line("same text", line_seed=(0, line_no))
            for line_no in range(2)
        )
        assert not first.structurally_equal(second)
