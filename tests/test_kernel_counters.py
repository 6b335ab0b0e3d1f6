"""Counter parity for the batched compiled-kernel filescan.

The batched scan must report exactly the counters a per-line scan
would have: ``dp_cells``/``dp_transitions`` are the same DP executed
in a different order, and ``lines_scanned``/``lines_matched`` are
scan facts independent of batching.  That parity must hold through
every execution topology -- the in-process scan and the
subprocess-worker router -- and through the cross-request kernel memo (hits replay the memoized probability
without re-reporting DP work, so a memo-warm scan shows zero cells).
"""

from __future__ import annotations

import pytest

from repro import counters
from repro.bench.service_load import get_json, post_json
from repro.db import storage
from repro.db.engine import StaccatoDB, shard_paths
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.query.memo import KernelMemo
from repro.service import QueryService, start_sharded_service

from .test_service import _batch_payload, K, M

PATTERN = "%Congress%"

#: Counter names whose totals must be identical across topologies.
#: Memo traffic is intentionally excluded: a memo-equipped engine
#: reports misses a memo-less reference scan never performs.
PARITY = ("dp_cells", "dp_transitions", "lines_scanned", "lines_matched")


def _ingest(db: StaccatoDB, num_docs: int = 2, lines_per_doc: int = 6) -> None:
    dataset = make_ca(num_docs=num_docs, lines_per_doc=lines_per_doc)
    engine = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=13)
    db.ingest(dataset, engine)


def _scan(db: StaccatoDB, approach: str, **kwargs):
    """One search plus exactly the counters it flushed."""
    with counters.collect() as counts:
        answers = db.search(PATTERN, approach, num_ans=None, **kwargs)
    return answers, dict(counts)


def _per_line_reference(db: StaccatoDB, approach: str):
    """The summed answers/counters of one scan per data key."""
    answers = []
    totals: dict[str, int] = {}
    for key in storage.all_data_keys(db.conn):
        line_answers, counts = _scan(db, approach, data_keys=[key])
        answers.extend(line_answers)
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    return sorted(answers, key=lambda a: a.line_id), totals


@pytest.fixture(scope="module")
def loaded_db():
    db = StaccatoDB(k=8, m=10)
    _ingest(db)
    yield db
    db.close()


class TestInProcessParity:
    @pytest.mark.parametrize("approach", ["staccato", "fullsfa", "map", "kmap"])
    def test_batched_equals_per_line_sum(self, loaded_db, approach):
        """Batched scan == the exact sum of 12 single-line scans."""
        batched, batched_counts = _scan(loaded_db, approach)
        expected, expected_counts = _per_line_reference(loaded_db, approach)
        assert sorted(batched, key=lambda a: a.line_id) == expected
        assert batched_counts == expected_counts
        assert batched_counts["lines_scanned"] == loaded_db.num_lines


class TestMemoCounters:
    def test_warm_scan_hits_without_dp_work(self):
        """Second identical scan: all memo hits, zero DP, same answers."""
        db = StaccatoDB(k=8, m=10, kernel_memo=KernelMemo())
        _ingest(db)
        cold, cold_counts = _scan(db, "staccato")
        warm, warm_counts = _scan(db, "staccato")
        assert warm == cold
        assert cold_counts["memo_misses"] == db.num_lines
        assert cold_counts.get("memo_hits", 0) == 0
        assert warm_counts["memo_hits"] == db.num_lines
        assert warm_counts.get("memo_misses", 0) == 0
        # Hits replay the memoized probability; the DP never runs.
        assert warm_counts.get("dp_cells", 0) == 0
        assert warm_counts.get("dp_transitions", 0) == 0
        # Scan facts are counted identically either way.
        assert warm_counts["lines_scanned"] == cold_counts["lines_scanned"]
        assert warm_counts["lines_matched"] == cold_counts["lines_matched"]
        db.close()

    def test_ingest_invalidates(self):
        """A write advances the generation clock and empties the memo."""
        memo = KernelMemo()
        db = StaccatoDB(k=8, m=10, kernel_memo=memo)
        _ingest(db)
        _scan(db, "staccato")
        generation = memo.generation
        assert memo.stats()["size"] > 0
        db.ingest(make_ca(num_docs=1, lines_per_doc=1, seed=7))
        assert memo.generation == generation + 1
        assert memo.stats()["size"] == 0
        # The next scan recomputes (and re-fills) rather than serving
        # entries computed against the pre-ingest snapshot.
        _, counts = _scan(db, "staccato")
        assert counts["memo_misses"] == db.num_lines
        db.close()

    def test_service_stats_expose_memo_block(self, tmp_path):
        service = QueryService(str(tmp_path / "ca.db"), k=K, m=M, pool_size=2)
        try:
            block = service.stats()["shards"][0]["kernel_memo"]
            assert {"size", "hits", "misses", "generation"} <= set(block)
        finally:
            service.close()


class TestWorkerTopologyParity:
    def test_router_engine_counters_equal_per_line_sums(self, tmp_path):
        """Worker-procs filescan counters == recomputed per-line sums.

        The router's ``/stats`` stitches each worker's process-global
        engine block; with a cold cache and exactly one filescan, the
        summed per-shard counters must equal what a per-line reference
        scan over the same shard files reports.
        """
        shard_dir = tmp_path / "shards"
        running = start_sharded_service(
            str(shard_dir), 2, k=K, m=M, pool_size=2, cache_size=0,
            range_width=2, worker_procs=True,
        )
        try:
            corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            status, _ = post_json(
                running.base_url, "/ingest", _batch_payload(corpus)
            )
            assert status == 200
            status, reply = post_json(
                running.base_url,
                "/search",
                {"pattern": PATTERN, "plan": "filescan"},
            )
            assert status == 200 and reply["plan"] == "filescan"
            status, stats = get_json(running.base_url, "/stats")
            assert status == 200
            observed = {name: 0 for name in PARITY}
            for entry in stats["shards"]:
                engine = entry["engine"]
                for name in PARITY:
                    observed[name] += engine[name]
        finally:
            running.stop()
        expected = {name: 0 for name in PARITY}
        for path in shard_paths(str(shard_dir), 2):
            shard = StaccatoDB(path, k=K, m=M)
            try:
                _, totals = _per_line_reference(shard, "staccato")
            finally:
                shard.close()
            for name in PARITY:
                expected[name] += totals.get(name, 0)
        assert observed == expected
        assert expected["lines_scanned"] == 6
