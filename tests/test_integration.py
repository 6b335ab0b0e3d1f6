"""End-to-end integration tests: the paper's claims on a small corpus.

These exercise the full pipeline (corpus -> simulated OCR -> storage ->
query evaluation -> metrics) and assert the *shape* of the paper's
results: the recall ordering MAP <= k-MAP <= Staccato <= FullSFA, the
runtime ordering MAP < Staccato < FullSFA, and index/filescan agreement.
"""

import statistics

import pytest

from repro import counters
from repro.bench.harness import CorpusBench
from repro.bench.metrics import evaluate_answers
from repro.bench.workload import queries_for
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine


@pytest.fixture(scope="module")
def bench():
    dataset = make_ca(num_docs=4, lines_per_doc=12)
    return CorpusBench(dataset, SimulatedOcrEngine(seed=20))


def _recall(bench, query, approach, **kwargs):
    result = bench.run(query, approach, **kwargs)
    return result.recall


class TestRecallOrdering:
    def test_regex_recall_bridges_map_to_fullsfa(self, bench):
        """The paper's central claim (Figures 4 and 6): Staccato recall
        lies between MAP and FullSFA, and rises with m."""
        query = queries_for("CA")[6]  # CA7: U.S.C. 2\d\d\d
        recall_map = _recall(bench, query, "map")
        recall_kmap = _recall(bench, query, "kmap", k=10)
        recall_small = _recall(bench, query, "staccato", m=4, k=10)
        recall_large = _recall(bench, query, "staccato", m=24, k=10)
        recall_full = _recall(bench, query, "fullsfa")
        assert recall_full == 1.0
        assert recall_map <= recall_kmap + 1e-9
        assert recall_kmap <= recall_large + 1e-9
        assert recall_small <= recall_large + 1e-9
        assert recall_large <= recall_full + 1e-9
        assert recall_map < recall_full  # the gap actually exists

    def test_keyword_recall_high_for_map(self, bench):
        query = queries_for("CA")[3]  # CA4: President
        assert _recall(bench, query, "map") >= 0.5


class TestRuntimeOrdering:
    #: Interleaved timed runs per approach; their medians are compared.
    REPEATS = 15

    def test_map_faster_than_staccato_faster_than_fullsfa(self, bench):
        """The paper's runtime order (Table 8), as work and as time.  The
        work -- DP cells and transitions -- is exact; the time is the
        median of interleaved repeats, each of which runs the DP rather
        than hitting the memo, as its counters show."""
        query = queries_for("CA")[6]
        points = {"map": {}, "staccato": {"m": 10, "k": 10}, "fullsfa": {}}
        for approach, params in points.items():
            bench.run(query, approach, **params)  # ingest and warm-up
        work, times = {}, {approach: [] for approach in points}
        for _ in range(self.REPEATS):
            for approach, params in points.items():
                with counters.collect() as counts:
                    result = bench.run(query, approach, **params)
                assert counts["dp_cells"] > 0 and not counts.get("memo_hits")
                assert work.setdefault(approach, dict(counts)) == counts
                times[approach].append(result.runtime_s)
        for counter in ("dp_cells", "dp_transitions"):
            assert (
                work["map"][counter]
                < work["staccato"][counter]
                < work["fullsfa"][counter]
            ), counter
        median = {a: statistics.median(runs) for a, runs in times.items()}
        assert median["map"] < median["staccato"] < median["fullsfa"]
        # The paper reports ~3 orders of magnitude between MAP and FullSFA;
        # at this tiny scale we still expect a wide gap.
        assert median["fullsfa"] / median["map"] > 20


class TestPrecisionShape:
    def test_fullsfa_precision_below_map(self, bench):
        """FullSFA returns NumAns answers (everything matches a little),
        so its precision is far below MAP's (paper Table 4)."""
        query = queries_for("CA")[3]
        p_map = bench.run(query, "map").precision
        p_full = bench.run(query, "fullsfa").precision
        assert p_full < p_map


#: Every stored approach: these tests query ``fullsfa`` too, which an
#: ingest stores only when asked.
WITH_FULLSFA = ("kmap", "fullsfa", "staccato")


class TestDbIntegration:
    @pytest.mark.parametrize(
        "approach, params",
        [
            ("fullsfa", {}),
            ("map", {"k": 1}),
            ("kmap", {"k": 3}),
            ("staccato", {"m": 5, "k": 3}),
        ],
        ids=["fullsfa", "map", "kmap", "staccato"],
    )
    def test_db_and_memory_agree(self, approach, params):
        """The harness answers as a file ingested by the engine does."""
        dataset = make_ca(num_docs=2, lines_per_doc=6)
        engine = SimulatedOcrEngine(seed=21)
        mem = CorpusBench(dataset, engine)
        db = StaccatoDB(**params)
        db.ingest(dataset, engine, approaches=WITH_FULLSFA)
        for pattern in ("%President%", "%the%"):
            mem_answers, _ = mem.search(pattern, approach, **params)
            db_answers = db.search(pattern, approach=approach)
            assert [(a.line_id, a.probability) for a in mem_answers] == [
                (a.line_id, a.probability) for a in db_answers
            ]
        assert mem_answers, approach
        db.close()

    def test_full_quality_loop(self):
        dataset = make_ca(num_docs=2, lines_per_doc=6)
        db = StaccatoDB(k=6, m=8)
        db.ingest(dataset, SimulatedOcrEngine(seed=22), WITH_FULLSFA)
        pattern = r"REGEX:Public Law (8|9)\d"
        truth = db.ground_truth_matches(pattern)
        answers = db.search(pattern, approach="fullsfa")
        metrics = evaluate_answers({a.line_id for a in answers}, truth)
        assert metrics.recall == 1.0
        db.close()
