"""Tests for the synthetic corpora and ground truth (repro.ocr)."""

from repro.ocr.corpus import make_ca, make_db, make_lt, make_scale

from .oracles.ground_truth import true_match_count, true_matches


class TestGeneration:
    def test_sizes(self):
        ds = make_ca(num_docs=3, lines_per_doc=7)
        assert len(ds.documents) == 3
        assert ds.num_lines == 21

    def test_deterministic(self):
        assert make_lt(seed=5).lines() == make_lt(seed=5).lines()

    def test_seed_changes_content(self):
        assert make_lt(seed=5).lines() != make_lt(seed=6).lines()

    def test_line_ids_are_global_and_dense(self, tiny_ca):
        ids = [line_id for line_id, _, _, _ in tiny_ca.lines()]
        assert ids == list(range(tiny_ca.num_lines))

    def test_documents_have_metadata(self, tiny_ca):
        for doc in tiny_ca.documents:
            assert doc.name
            assert 2000 < doc.year < 2020
            assert doc.loss > 0

    def test_text_size(self, tiny_ca):
        assert tiny_ca.text_size() == sum(
            len(t) for _, _, _, t in tiny_ca.lines()
        )

    def test_scale_dataset(self):
        ds = make_scale(50)
        assert ds.num_lines == 50
        bigger = make_scale(100)
        assert bigger.num_lines == 100
        # Prefix stability: same seed, same generator sequence.
        assert bigger.documents[0].lines[:50] == ds.documents[0].lines


class TestVocabularyRoles:
    def test_ca_contains_citation_patterns(self):
        ds = make_ca(num_docs=10, lines_per_doc=25)
        assert true_match_count(ds, r"REGEX:U.S.C. 2\d\d\d") > 0
        assert true_match_count(ds, r"REGEX:Public Law (8|9)\d") > 0
        assert true_match_count(ds, "%President%") > 0

    def test_lt_contains_names_and_dates(self):
        ds = make_lt(num_docs=10, lines_per_doc=25)
        assert true_match_count(ds, "%Brinkmann%") > 0
        assert true_match_count(ds, r"REGEX:19\d\d, \d\d") > 0

    def test_db_contains_systems_vocabulary(self):
        ds = make_db(num_docs=10, lines_per_doc=25)
        assert true_match_count(ds, "%Trio%") > 0
        assert true_match_count(ds, "%lineage%") > 0

    def test_cross_dataset_isolation(self):
        assert true_match_count(make_lt(), "%Trio%") == 0
        assert true_match_count(make_db(), "%Brinkmann%") == 0


class TestTrueMatches:
    def test_subset_of_lines(self, tiny_ca):
        matches = true_matches(tiny_ca, "%the%")
        ids = {line_id for line_id, _, _, _ in tiny_ca.lines()}
        assert matches <= ids

    def test_empty_for_absent_term(self, tiny_ca):
        assert true_matches(tiny_ca, "%zyzzyva%") == set()
