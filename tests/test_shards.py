"""Tests for the shard router (repro.service.shards).

The acceptance bar: a 2-shard service must answer queries with results
*identical* -- same answers, same ranking -- to one database holding
the whole corpus.  The reference is a plain ``StaccatoDB`` handle
(``db.search`` / ``execute_select``), code the router does not run.
Unit tests cover routing and merging; the live tests run the sharded
service over real HTTP, and exercise routed ingest with per-shard cache
invalidation plus the ``POST /index`` round-trip.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.service_load import get_json, post_json
from repro.db.engine import (
    StaccatoDB,
    discover_shard_paths,
    shard_path,
    shard_paths,
)
from repro.db.sql import (
    execute_select,
    merge_shard_rows,
    parse_select,
    shard_select,
)
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.query.answers import Answer
from repro.service import QueryService, start_sharded_service
from repro.service.shards import DEFAULT_RANGE_WIDTH, merge_ranked, shard_for_doc

K, M = 4, 6
NUM_SHARDS = 2
#: Small enough that a handful of consecutive DocIds spread over both shards.
RANGE_WIDTH = 2


# ----------------------------------------------------------------------
class TestRouting:
    def test_range_striping(self):
        width = 4
        for doc_id in range(32):
            expected = (doc_id // width) % 3
            assert shard_for_doc(doc_id, 3, width) == expected

    def test_whole_range_shares_a_shard(self):
        first = shard_for_doc(0, 4)
        assert all(
            shard_for_doc(i, 4) == first for i in range(DEFAULT_RANGE_WIDTH)
        )
        assert shard_for_doc(DEFAULT_RANGE_WIDTH, 4) != first

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_for_doc(1, 0)
        with pytest.raises(ValueError):
            shard_for_doc(1, 2, range_width=0)

    def test_shard_paths_are_canonical_and_discoverable(self, tmp_path):
        paths = shard_paths(str(tmp_path), 3)
        assert paths == [shard_path(str(tmp_path), i) for i in range(3)]
        for path in paths:
            StaccatoDB(path).close()
        assert discover_shard_paths(str(tmp_path)) == paths


class TestMergeRanked:
    def test_probability_then_docid_lineno(self):
        a = [Answer(0, 5, 0, 0.9), Answer(1, 5, 1, 0.4)]
        b = [Answer(0, 2, 0, 0.9), Answer(1, 9, 0, 0.6)]
        merged = merge_ranked([(0, a), (1, b)], num_ans=None)
        assert [(s, x.doc_id, x.probability) for s, x in merged] == [
            (1, 2, 0.9),
            (0, 5, 0.9),
            (1, 9, 0.6),
            (0, 5, 0.4),
        ]

    def test_num_ans_cutoff(self):
        a = [Answer(i, i, 0, 1.0 - i / 10) for i in range(5)]
        merged = merge_ranked([(0, a)], num_ans=2)
        assert len(merged) == 2

    def test_duplicate_lines_collapse_to_lowest_shard(self):
        # The same (DocId, LineNo) from two shards happens only while a
        # rebalance has copied a line to the target but not yet deleted
        # it from the source (copies carry identical probabilities).
        # The merge de-duplicates, keeping the sort-order first (lowest
        # shard index), no matter which fan-out leg delivered first.
        tie = Answer(0, 5, 1, 0.5)
        forward = merge_ranked([(0, [tie]), (1, [tie])], num_ans=None)
        reverse = merge_ranked([(1, [tie]), (0, [tie])], num_ans=None)
        assert forward == reverse
        assert [shard for shard, _ in forward] == [0]

    def test_distinct_lines_same_probability_all_survive(self):
        # De-duplication is by (DocId, LineNo), never by probability:
        # genuine ties between different lines keep every row.
        a = Answer(0, 5, 1, 0.5)
        b = Answer(0, 5, 2, 0.5)
        merged = merge_ranked([(0, [a]), (1, [b])], num_ans=None)
        assert [(s, x.line_no) for s, x in merged] == [(0, 1), (1, 2)]


class TestShardSelectPlan:
    def test_avg_needs_count_and_sum(self):
        parsed = parse_select("SELECT AVG(Loss) FROM Claims")
        base = shard_select(parsed)
        assert base.aggregates == [("count", "*"), ("sum", "Loss")]
        assert base.limit is None

    def test_projection_widens_to_star_without_cutoffs(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE Year = 2010 "
            "AND DocData LIKE '%x%' ORDER BY Loss DESC LIMIT 3"
        )
        base = shard_select(parsed)
        assert base.columns == ["*"]
        assert base.order_by is None and base.limit is None
        assert base.scalar_predicates == parsed.scalar_predicates
        assert base.like_patterns == parsed.like_patterns

    def test_merge_applies_order_limit_and_projection(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims ORDER BY Loss DESC LIMIT 2"
        )
        shard_rows = [
            [
                {"DocId": 1, "DocName": "a", "Year": 1, "Loss": 5.0,
                 "Probability": 0.5},
            ],
            [
                {"DocId": 2, "DocName": "b", "Year": 1, "Loss": 9.0,
                 "Probability": 0.1},
                {"DocId": 3, "DocName": "c", "Year": 1, "Loss": 1.0,
                 "Probability": 0.9},
            ],
        ]
        rows = merge_shard_rows(parsed, shard_rows, num_ans=100)
        assert rows == [
            {"DocId": 2, "Probability": 0.1},
            {"DocId": 1, "Probability": 0.5},
        ]


# ----------------------------------------------------------------------
def _batch_payload(corpus) -> dict:
    return {
        "dataset": corpus.name,
        "documents": [
            {
                "doc_id": doc.doc_id,
                "name": doc.name,
                "year": doc.year,
                "loss": doc.loss,
                "lines": list(doc.lines),
            }
            for doc in corpus.documents
        ],
        "ocr_seed": 0,
    }


@pytest.fixture(scope="module")
def corpus():
    return make_ca(num_docs=4, lines_per_doc=3, seed=1)


@pytest.fixture(scope="module")
def single(tmp_path_factory, corpus):
    """The reference: one plain database handle over the whole corpus."""
    db_path = str(tmp_path_factory.mktemp("single") / "ca.db")
    with StaccatoDB(db_path, k=K, m=M) as db:
        db.ingest(corpus, SimulatedOcrEngine(seed=0))
        yield db


@pytest.fixture(scope="module")
def cluster(tmp_path_factory, corpus):
    """A live 2-shard HTTP service over the same corpus."""
    shard_dir = str(tmp_path_factory.mktemp("cluster") / "shards")
    running = start_sharded_service(
        shard_dir,
        NUM_SHARDS,
        k=K,
        m=M,
        pool_size=2,
        cache_size=64,
        range_width=RANGE_WIDTH,
    )
    status, reply = post_json(
        running.base_url, "/ingest", _batch_payload(corpus)
    )
    assert status == 200 and reply["ingested_lines"] == corpus.num_lines
    yield running
    running.stop()


def _rows(answers) -> list[tuple[int, int, float]]:
    """Engine answers as the placement-independent projection."""
    return [
        (a.doc_id, a.line_no, pytest.approx(a.probability)) for a in answers
    ]


class TestCrossShardSearch:
    @pytest.mark.parametrize("pattern", ["%Congress%", "%Law%", "%President%"])
    def test_merged_ranking_matches_single_db(self, single, cluster, pattern):
        query = {"pattern": pattern, "approach": "staccato", "num_ans": 20}
        expected = single.search(pattern, approach="staccato", num_ans=20)
        status, body = post_json(cluster.base_url, "/search", query)
        assert status == 200
        assert body["count"] == len(expected)
        assert _rows(expected) == [
            (a["doc_id"], a["line_no"], a["probability"])
            for a in body["answers"]
        ]

    def test_answers_tag_their_shard(self, cluster, corpus):
        status, body = post_json(
            cluster.base_url, "/search", {"pattern": "%Congress%"}
        )
        assert status == 200 and body["answers"]
        for answer in body["answers"]:
            assert answer["shard"] == shard_for_doc(
                answer["doc_id"], NUM_SHARDS, RANGE_WIDTH
            )

    def test_docs_land_on_both_shards(self, cluster, corpus):
        owners = {
            shard_for_doc(d.doc_id, NUM_SHARDS, RANGE_WIDTH)
            for d in corpus.documents
        }
        assert owners == set(range(NUM_SHARDS))

    def test_shard_scope_restricts_results(self, cluster, corpus):
        status, full = post_json(
            cluster.base_url, "/search", {"pattern": "%the%", "num_ans": 50}
        )
        assert status == 200
        status, scoped = post_json(
            cluster.base_url,
            "/search",
            {"pattern": "%the%", "num_ans": 50, "shards": [0]},
        )
        assert status == 200
        assert scoped["shards"] == [0]
        assert all(a["shard"] == 0 for a in scoped["answers"])
        assert [a for a in full["answers"] if a["shard"] == 0] == scoped[
            "answers"
        ]

    def test_unknown_shard_scope_rejected(self, cluster):
        status, body = post_json(
            cluster.base_url,
            "/search",
            {"pattern": "%x%", "shards": [NUM_SHARDS + 3]},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_shard"


class TestCrossShardSql:
    def test_projection_matches_single_db(self, single, cluster):
        sql = "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%Congress%'"
        expected = execute_select(single, sql)
        status, body = post_json(cluster.base_url, "/sql", {"query": sql})
        assert status == 200
        assert body["count"] == len(expected)
        for got, want in zip(body["rows"], expected):
            assert got["DocId"] == want["DocId"]
            assert got["Loss"] == want["Loss"]
            assert got["Probability"] == pytest.approx(want["Probability"])

    def test_expected_aggregates_merge_exactly(self, single, cluster):
        sql = (
            "SELECT COUNT(*), SUM(Loss), AVG(Loss) FROM Claims "
            "WHERE DocData LIKE '%the%'"
        )
        (want,) = execute_select(single, sql)
        status, body = post_json(cluster.base_url, "/sql", {"query": sql})
        assert status == 200
        (got,) = body["rows"]
        for key in ("COUNT(*)", "SUM(Loss)", "AVG(Loss)"):
            assert got[key] == pytest.approx(want[key])

    def test_order_by_limit_matches_single_db(self, single, cluster):
        sql = "SELECT DocId FROM Claims ORDER BY Loss DESC LIMIT 2"
        expected = execute_select(single, sql)
        status, body = post_json(cluster.base_url, "/sql", {"query": sql})
        assert status == 200
        assert body["rows"] == [
            {**row, "Probability": pytest.approx(row["Probability"])}
            for row in expected
        ]

    def test_sql_error_is_structured(self, cluster):
        status, body = post_json(
            cluster.base_url, "/sql", {"query": "DELETE FROM Claims"}
        )
        assert status == 400
        assert body["error"]["code"] == "sql_error"

    def test_unknown_projection_column_is_400_not_500(self, cluster):
        # The widened per-shard plan selects *, so the bad column only
        # surfaces at merge time -- it must still map to sql_error.
        status, body = post_json(
            cluster.base_url, "/sql", {"query": "SELECT Bogus FROM Claims"}
        )
        assert status == 400
        assert body["error"]["code"] == "sql_error"


class TestIndexEndpoint:
    # NOTE: runs before TestRoutedIngest -- the cross-topology
    # comparisons below need `single` and `cluster` to still hold the
    # same corpus, and the routed-ingest tests grow only the cluster.
    def test_index_round_trip_matches_single_db(self, single, cluster):
        terms = ["public", "law", "congress", "president"]
        pattern = r"REGEX:Public Law (8|9)\d"
        query = {"pattern": pattern, "plan": "indexed", "num_ans": 20}

        # POST /index is a rebuild_index job now; "wait": true keeps the
        # synchronous response shape (plus the job id) for clients that
        # want it.
        status, reply = post_json(
            cluster.base_url, "/index", {"terms": terms, "wait": True}
        )
        assert status == 200
        assert reply["approach"] == "staccato"
        assert reply["job_id"]
        assert set(reply["shards"]) == {"0", "1"}
        assert all(s["reloaded"] for s in reply["shards"].values())

        assert single.build_index(terms) == reply["postings"]
        want = single.indexed_search(pattern, num_ans=20)

        status, body = post_json(cluster.base_url, "/search", query)
        assert status == 200
        assert body["plan"] == "indexed"
        assert _rows(want) == [
            (a["doc_id"], a["line_no"], a["probability"])
            for a in body["answers"]
        ]

    def test_index_rebuild_invalidates_cached_plans(self, cluster):
        query = {"pattern": "%employment%"}
        post_json(cluster.base_url, "/search", query)
        _, cached = post_json(cluster.base_url, "/search", query)
        assert cached["cached"] is True
        # Default (no wait): 202 + the queued job row; poll to completion.
        status, job = post_json(
            cluster.base_url, "/index", {"terms": ["employment"]}
        )
        assert status == 202
        assert job["type"] == "rebuild_index"
        deadline = time.time() + 30
        while time.time() < deadline:
            _, row = get_json(cluster.base_url, f"/jobs/{job['id']}")
            if row["state"] not in ("queued", "running"):
                break
            time.sleep(0.02)
        assert row["state"] == "succeeded", row
        _, after = post_json(cluster.base_url, "/search", query)
        assert after["cached"] is False

    def test_index_validation(self, cluster):
        status, body = post_json(cluster.base_url, "/index", {"terms": []})
        assert status == 400
        status, body = post_json(
            cluster.base_url,
            "/index",
            {"terms": ["ok"], "approach": "fullsfa"},
        )
        assert status == 400 and "approach" in body["error"]["message"]


class TestRoutedIngest:
    def test_ingest_lands_on_owning_shard(self, cluster):
        doc_id = 2 * RANGE_WIDTH * NUM_SHARDS + 1  # owner: shard 0
        owner = shard_for_doc(doc_id, NUM_SHARDS, RANGE_WIDTH)
        batch = {
            "dataset": "routed",
            "documents": [
                {"doc_id": doc_id, "lines": ["The Senate confirmed the bill"]}
            ],
        }
        status, reply = post_json(cluster.base_url, "/ingest", batch)
        assert status == 200
        assert set(reply["shards"]) == {str(owner)}
        # The document's line really is in the owning shard file and in
        # no other (verified via ATTACH from one inspection connection).
        inspector = StaccatoDB(
            shard_path(cluster.service.shard_dir, 0), check_same_thread=False
        )
        try:
            inspector.attach(
                shard_path(cluster.service.shard_dir, 1), "shard1"
            )
            per_shard = {
                0: inspector.conn.execute(
                    "SELECT COUNT(*) FROM MasterData WHERE DocId = ?",
                    (doc_id,),
                ).fetchone()[0],
                1: inspector.conn.execute(
                    "SELECT COUNT(*) FROM shard1.MasterData WHERE DocId = ?",
                    (doc_id,),
                ).fetchone()[0],
            }
        finally:
            inspector.detach("shard1")
            inspector.close()
        assert per_shard[owner] == 1
        assert per_shard[1 - owner] == 0

    def test_ingest_invalidates_only_owning_shards_entries(self, cluster):
        scoped = {"pattern": "%annual%", "shards": [0]}
        full = {"pattern": "%annual%"}
        post_json(cluster.base_url, "/search", scoped)
        post_json(cluster.base_url, "/search", full)
        _, again = post_json(cluster.base_url, "/search", scoped)
        assert again["cached"] is True
        # Ingest a document owned by shard 1 only.
        doc_id = RANGE_WIDTH  # (RANGE_WIDTH // RANGE_WIDTH) % 2 == 1
        assert shard_for_doc(doc_id, NUM_SHARDS, RANGE_WIDTH) == 1
        batch = {
            "dataset": "invalidation",
            "documents": [
                {"doc_id": doc_id, "lines": ["the annual appropriation"]}
            ],
        }
        status, reply = post_json(cluster.base_url, "/ingest", batch)
        assert status == 200 and set(reply["shards"]) == {"1"}
        # Shard-0-scoped entry survives; the full-fan-out entry does not.
        _, scoped_after = post_json(cluster.base_url, "/search", scoped)
        assert scoped_after["cached"] is True
        _, full_after = post_json(cluster.base_url, "/search", full)
        assert full_after["cached"] is False
        assert any(a["doc_id"] == doc_id for a in full_after["answers"])

    def test_partial_failure_still_invalidates_committed_shards(self, tmp_path):
        """A failing shard leg must not mask another shard's commit.

        If shard 1's write fails after shard 0's landed, shard 0's
        generation must still advance (and its cached entries drop), or
        readers would keep serving pre-batch answers for data that is
        now visibly different.
        """
        from repro.service.shards import ShardedQueryService

        with ShardedQueryService(
            str(tmp_path / "partial"), 2, k=K, m=M, pool_size=1, range_width=1
        ) as service:
            service.ingest(
                {
                    "dataset": "seed",
                    "documents": [
                        {"doc_id": 0, "lines": ["the annual budget"]},
                        {"doc_id": 1, "lines": ["the annual report"]},
                    ],
                }
            )
            first = service.search({"pattern": "%annual%"})
            assert service.search({"pattern": "%annual%"})["cached"] is True

            broken = service.pool.shard(1).writer
            def explode(*args, **kwargs):
                raise RuntimeError("disk full")
            broken.write_batch = explode
            with pytest.raises(RuntimeError, match="disk full"):
                service.ingest(
                    {
                        "dataset": "split",
                        "documents": [
                            {"doc_id": 2, "lines": ["the annual review"]},
                            {"doc_id": 3, "lines": ["never lands"]},
                        ],
                    }
                )
            after = service.search({"pattern": "%annual%"})
            assert after["cached"] is False
            assert any(a["doc_id"] == 2 for a in after["answers"])
            assert after["count"] == first["count"] + 1

    def test_round_robin_route_spreads_docs(self, tmp_path):
        from repro.service.shards import ShardedQueryService

        with ShardedQueryService(
            str(tmp_path / "rr"), 2, k=K, m=M, pool_size=1
        ) as service:
            reply = service.ingest(
                {
                    "dataset": "rr",
                    "route": "round_robin",
                    "documents": [
                        {"doc_id": i, "lines": ["one line here"]}
                        for i in range(4)
                    ],
                }
            )
            assert reply["route"] == "round_robin"
            assert set(reply["shards"]) == {"0", "1"}
            assert all(
                entry["ingested_lines"] == 2
                for entry in reply["shards"].values()
            )


class TestShardedOps:
    def test_health_reports_all_shards(self, cluster):
        status, body = get_json(cluster.base_url, "/health")
        assert status == 200 and body["status"] == "ok"
        assert body["num_shards"] == NUM_SHARDS
        assert set(body["shard_lines"]) == {"0", "1"}
        assert body["lines"] == sum(body["shard_lines"].values())

    def test_stats_reports_per_shard_and_fanout_metrics(self, cluster):
        post_json(cluster.base_url, "/search", {"pattern": "%Law%"})
        status, stats = get_json(cluster.base_url, "/stats")
        assert status == 200
        assert stats["db"]["num_shards"] == NUM_SHARDS
        assert len(stats["shards"]) == NUM_SHARDS
        for shard_stat in stats["shards"]:
            assert shard_stat["pool"]["label"].startswith("shard-")
            assert "lines" in shard_stat and "generation" in shard_stat
        shard_metrics = stats["requests"]["shards"]
        assert "search" in shard_metrics["0"] and "search" in shard_metrics["1"]

    def test_one_file_service_is_the_one_shard_router(self, tmp_path):
        """``QueryService`` honours a ``[0]`` scope and refuses any other
        with the router's own error -- there is no second service."""
        from repro.service.validation import ApiError

        with QueryService(str(tmp_path / "one.db"), k=K, m=M) as service:
            reply = service.search({"pattern": "%x%", "shards": [0]})
            assert reply["shards"] == [0]
            with pytest.raises(ApiError) as excinfo:
                service.search({"pattern": "%x%", "shards": [1]})
            assert excinfo.value.code == "unknown_shard"
            assert type(service).__dict__.keys() <= {
                "__module__", "__doc__", "__init__", "__qualname__",
                "__firstlineno__", "__static_attributes__",
            }

    def test_single_service_index_endpoint(self, tmp_path):
        service = QueryService(str(tmp_path / "one.db"), k=K, m=M, pool_size=1)
        try:
            service.ingest(
                {
                    "dataset": "d",
                    "documents": [
                        {"doc_id": 0, "lines": ["Public Law 88 enacted"]}
                    ],
                }
            )
            reply = service.index({"terms": ["public", "law"]})
            assert reply["shards"]["0"]["reloaded"] is True
            assert reply["postings"] > 0
            body = service.search(
                {"pattern": r"REGEX:Public Law 8\d", "plan": "indexed"}
            )
            assert body["plan"] == "indexed"
        finally:
            service.close()
