"""Tests for metrics, workload and the experiment harness (repro.bench)."""

import pytest

from repro.bench.harness import MAX_CHUNKS, CorpusBench
from repro.bench.metrics import evaluate_answers
from repro.bench.report import format_series, format_table
from repro.bench.workload import queries_for, query_by_id, standard_workload
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel


class TestMetrics:
    def test_perfect(self):
        m = evaluate_answers({1, 2}, {1, 2})
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_partial(self):
        m = evaluate_answers({1, 2, 3, 4}, {1, 2, 5})
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3))
        assert (m.retrieved, m.relevant, m.hits) == (4, 3, 2)

    def test_empty_retrieval(self):
        m = evaluate_answers(set(), {1})
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_empty_truth(self):
        m = evaluate_answers({1}, set())
        assert m.recall == 1.0
        assert m.precision == 0.0


class TestWorkload:
    def test_twenty_one_queries(self):
        workload = standard_workload()
        assert len(workload) == 21
        assert len({q.query_id for q in workload}) == 21

    def test_seven_per_dataset(self):
        for name in ("CA", "LT", "DB"):
            queries = queries_for(name)
            assert len(queries) == 7
            kinds = [q.kind for q in queries]
            assert kinds.count("regex") == 2

    def test_lookup(self):
        q = query_by_id("CA7")
        assert q.dataset == "CA"
        assert q.is_regex
        with pytest.raises(KeyError):
            query_by_id("XX1")


@pytest.fixture(scope="module")
def ca_bench():
    dataset = make_ca(num_docs=2, lines_per_doc=6)
    engine = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=4)
    return CorpusBench(dataset, engine)


class TestCorpusBench:
    def test_sfas_cached(self, ca_bench):
        assert ca_bench.sfas() is ca_bench.sfas()
        assert len(ca_bench.sfas()) == 12

    def test_staccato_cached_per_point(self, ca_bench):
        assert ca_bench.staccato(5, 3) is ca_bench.staccato(5, 3)
        for graph in ca_bench.staccato(5, 3):
            assert graph.num_edges <= 5

    def test_max_chunks_sentinel(self, ca_bench):
        graphs = ca_bench.staccato(MAX_CHUNKS, 2)
        for graph, sfa in zip(graphs, ca_bench.sfas()):
            assert graph.num_edges == sfa.num_edges
            assert graph.max_strings_per_edge() <= 2

    def test_truth(self, ca_bench):
        truth = ca_bench.truth("%the%")
        assert truth <= {line_id for line_id, _, _, _ in ca_bench.lines}

    def test_search_approaches(self, ca_bench):
        for approach, kwargs in [
            ("map", {}),
            ("kmap", {"k": 3}),
            ("fullsfa", {}),
            ("staccato", {"m": 5, "k": 3}),
        ]:
            answers, elapsed = ca_bench.search("%the%", approach, **kwargs)
            assert elapsed >= 0.0
            assert answers, approach

    def test_search_requires_params(self, ca_bench):
        with pytest.raises(AssertionError):
            ca_bench.search("%a%", "kmap")
        with pytest.raises(AssertionError):
            ca_bench.search("%a%", "staccato")
        with pytest.raises(ValueError):
            ca_bench.search("%a%", "bogus")

    def test_run_experiment(self, ca_bench):
        query = query_by_id("CA4")
        result = ca_bench.run(query, "fullsfa")
        assert result.query_id == "CA4"
        assert 0.0 <= result.recall <= 1.0
        assert 0.0 <= result.precision <= 1.0
        assert result.runtime_s >= 0.0


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "--" in lines[1]

    def test_format_series(self):
        assert format_series("s", [1, 2], [3, 4]) == "s: 1->3, 2->4"
