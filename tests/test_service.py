"""Tests for the query service (repro.service).

Unit tests cover the cache, metrics, pool and the HTTP core in
isolation; the integration tests run a live one-file service on an
ephemeral port and exercise ingest -> search -> sql round-trips over
real HTTP, including cache hit/miss behaviour, invalidation on ingest,
concurrent clients and malformed-request handling.  The last class pins
that ``--db`` is the one-shard case of the router: the same transcript
against ``start_service(db)`` and ``start_sharded_service(dir, 1)``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.automata.dfa import QueryTooComplex
from repro.automata.regex import MAX_NESTING, RegexError
from repro.bench.service_load import get_json, post_json, run_search_load
from repro.db.engine import StaccatoDB
from repro.db.sql import execute_select
from repro.ocr.corpus import make_ca
from repro.query.like import MAX_PATTERN_CHARS, compile_like
from repro.service import (
    ConnectionPool,
    PoolClosed,
    QueryCache,
    QueryService,
    ServiceMetrics,
    start_service,
    start_sharded_service,
)
from repro.service import http_common
from repro.service.metrics import percentile
from repro.service.validation import (
    MAX_INGEST_LINES,
    MAX_LINE_CHARS,
    ApiError,
    validate_ingest,
)

K, M = 4, 6


# ----------------------------------------------------------------------
class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = QueryCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a'; 'b' becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = QueryCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_invalidate_where_counts_each_dropped_entry(self):
        # One sweep dropping three entries must add three to the
        # counter, not one -- /stats readers compare it against hit
        # volume, and a per-sweep count would hide the churn.
        cache = QueryCache(8)
        for key in ("a1", "a2", "a3", "b1"):
            cache.put(key, key)
        dropped = cache.invalidate_where(lambda key: key.startswith("a"))
        assert dropped == 3
        assert cache.invalidations == 3
        assert cache.get("b1") == "b1"
        # An empty sweep adds nothing.
        assert cache.invalidate_where(lambda key: False) == 0
        assert cache.invalidations == 3

    def test_stats_hit_rate(self):
        cache = QueryCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)


class TestServiceMetrics:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile([], 50) == 0.0

    def test_snapshot_counts_and_errors(self):
        metrics = ServiceMetrics()
        metrics.observe("requests", ("search",), 0.010)
        metrics.observe("requests", ("search",), 0.030, error=True)
        snap = metrics.snapshot()
        assert snap["total"] == 2 and snap["total_errors"] == 1
        search = snap["endpoints"]["search"]
        assert search["count"] == 2 and search["errors"] == 1
        assert search["latency_ms"]["p50"] == pytest.approx(10.0, rel=0.01)


class TestConnectionPool:
    def test_exclusive_checkout(self, tmp_path):
        path = str(tmp_path / "pool.db")
        StaccatoDB(path).close()  # create schema
        pool = ConnectionPool(path, size=2)
        with pool.acquire() as a, pool.acquire() as b:
            assert a is not b
            assert pool.stats()["in_use"] == 2
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["checkouts"] == 2
        pool.close()

    def test_acquire_timeout_when_exhausted(self, tmp_path):
        path = str(tmp_path / "pool.db")
        StaccatoDB(path).close()
        pool = ConnectionPool(path, size=1)
        with pool.acquire():
            with pytest.raises(TimeoutError):
                with pool.acquire(timeout=0.05):
                    pass
        pool.close()

    def test_readers_share_one_memo(self, tmp_path):
        path = str(tmp_path / "pool.db")
        StaccatoDB(path).close()
        pool = ConnectionPool(path, size=3)
        with pool.acquire() as a, pool.acquire() as b, pool.acquire() as c:
            assert a.kernel_memo is b.kernel_memo is c.kernel_memo
        pool.close()

    def test_closed_pool_raises(self, tmp_path):
        path = str(tmp_path / "pool.db")
        StaccatoDB(path).close()
        pool = ConnectionPool(path, size=1)
        pool.close()
        with pytest.raises(PoolClosed):
            with pool.acquire():
                pass

    def test_concurrent_readers_never_share(self, tmp_path):
        path = str(tmp_path / "pool.db")
        StaccatoDB(path).close()
        pool = ConnectionPool(path, size=2)
        in_use: set[int] = set()
        overlap: list[str] = []
        guard = threading.Lock()

        def reader(_: int) -> None:
            with pool.acquire() as db:
                with guard:
                    if id(db) in in_use:
                        overlap.append("shared connection!")
                    in_use.add(id(db))
                db.num_lines
                with guard:
                    in_use.discard(id(db))

        with ThreadPoolExecutor(max_workers=8) as workers:
            list(workers.map(reader, range(32)))
        assert not overlap
        pool.close()

    def test_memory_db_rejected_by_service(self):
        with pytest.raises(ValueError):
            QueryService(":memory:")


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


# The one-value ``thread`` parameter keeps the ids these tests had while
# there were two front ends (``test_health[thread]``): the tier-1 floor
# tracks tests by id.
@pytest.fixture(scope="module", params=["thread"])
def live(tmp_path_factory):
    """A running service with one small CA batch already ingested."""
    db_path = str(tmp_path_factory.mktemp("service") / "ca.db")
    running = start_service(db_path, k=K, m=M, pool_size=3, cache_size=64)
    corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
    status, reply = post_json(running.base_url, "/ingest", _batch_payload(corpus))
    assert status == 200 and reply["ingested_lines"] == 6
    yield running
    running.stop()


class TestEndpoints:
    def test_health(self, live):
        status, body = get_json(live.base_url, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["lines"] >= 6

    def test_search_matches_in_process_engine(self, live):
        pattern = "%Congress%"
        status, body = post_json(
            live.base_url,
            "/search",
            {"pattern": pattern, "approach": "staccato", "num_ans": 20},
        )
        assert status == 200 and body["plan"] == "filescan"
        with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
            expected = db.search(pattern, approach="staccato", num_ans=20)
        assert [a["line_id"] for a in body["answers"]] == [
            e.line_id for e in expected
        ]
        for got, want in zip(body["answers"], expected):
            assert got["probability"] == pytest.approx(want.probability)
            assert (got["doc_id"], got["line_no"]) == (want.doc_id, want.line_no)

    @pytest.mark.parametrize("approach", ["map", "kmap"])
    def test_search_other_approaches(self, live, approach):
        status, body = post_json(
            live.base_url,
            "/search",
            {"pattern": "%Law%", "approach": approach},
        )
        assert status == 200
        with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
            expected = db.search("%Law%", approach=approach)
        assert [a["line_id"] for a in body["answers"]] == [
            e.line_id for e in expected
        ]

    def test_sql_round_trip(self, live):
        """Bit for bit: the ``repr`` of every value, aggregates included."""
        for sql in (
            "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%Congress%'",
            "SELECT COUNT(*), SUM(Loss), AVG(Loss) FROM Claims "
            "WHERE DocData LIKE '%a%'",
        ):
            status, body = post_json(live.base_url, "/sql", {"query": sql})
            assert status == 200
            with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
                expected = execute_select(db, sql, approach="staccato")
            assert body["count"] == len(expected)
            assert repr(body["rows"]) == repr(expected)

    def test_indexed_plan_reports_fallback_without_index(self, live):
        status, body = post_json(
            live.base_url,
            "/search",
            {"pattern": "%Commission%", "plan": "indexed"},
        )
        assert status == 200
        assert body["plan"] == "indexed:filescan-fallback"

    def test_indexed_plan_after_index_reload(self, live):
        # '%word%' queries have no left anchor and always fall back; the
        # paper's anchored query class is a regex whose literal prefix
        # starts with a dictionary word.
        pattern = r"REGEX:Public Law (8|9)\d"
        with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
            db.build_index(["public", "law", "congress", "president"])
            expected = db.indexed_search(pattern, num_ans=20)
            assert db.index_covers(pattern, "staccato")
        live.service.pool.shard(0).pool.reload_index()
        status, body = post_json(
            live.base_url,
            "/search",
            {"pattern": pattern, "plan": "indexed", "num_ans": 20},
        )
        assert status == 200 and body["plan"] == "indexed"
        assert [a["line_id"] for a in body["answers"]] == [
            e.line_id for e in expected
        ]
        for got, want in zip(body["answers"], expected):
            assert got["probability"] == pytest.approx(want.probability)

    def test_start_anchored_like_on_the_index_plan(self, live):
        """No leading %: a whole-string DFA, which the index covers (its
        first word is a dictionary term) but cannot project.  It used to
        be a 500; its candidates are evaluated full-line, so both index
        plans answer exactly what the filescan answers."""
        with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
            db.build_index(["public", "law", "congress", "president"])
        live.service.pool.shard(0).pool.reload_index()
        for pattern in ("Public Law%", "Public Law 8%"):
            replies = {}
            for plan in ("filescan", "indexed", "auto"):
                status, body = post_json(
                    live.base_url,
                    "/search",
                    {"pattern": pattern, "plan": plan, "num_ans": 30},
                )
                assert status == 200, body
                replies[plan] = body
            assert replies["indexed"]["plan"] == "indexed"
            assert replies["auto"]["plan"] == "auto:index"
            assert replies["filescan"]["answers"]
            for plan in ("indexed", "auto"):
                assert replies[plan]["answers"] == replies["filescan"]["answers"]

    def test_auto_plan_reports_choice(self, live):
        status, body = post_json(
            live.base_url,
            "/search",
            {"pattern": "%Congress%", "plan": "auto"},
        )
        assert status == 200
        assert body["plan"].startswith("auto:")


class TestCaching:
    def test_repeat_query_hits_cache(self, live):
        query = {"pattern": "%employment%", "approach": "staccato"}
        _, hits_before = get_json(live.base_url, "/stats")
        status, first = post_json(live.base_url, "/search", query)
        assert status == 200 and first["cached"] is False
        status, second = post_json(live.base_url, "/search", query)
        assert status == 200 and second["cached"] is True
        assert second["answers"] == first["answers"]
        _, stats = get_json(live.base_url, "/stats")
        assert (
            stats["cache"]["hits"] >= hits_before["cache"]["hits"] + 1
        )

    def test_ingest_invalidates_cache(self, live):
        query = {"pattern": "%annual%", "approach": "staccato"}
        _, first = post_json(live.base_url, "/search", query)
        _, second = post_json(live.base_url, "/search", query)
        assert second["cached"] is True
        batch = {
            "dataset": "extra",
            "documents": [
                {
                    "doc_id": 100,
                    "lines": ["The President shall submit the annual budget"],
                }
            ],
        }
        status, reply = post_json(live.base_url, "/ingest", batch)
        assert status == 200 and reply["ingested_lines"] == 1
        status, third = post_json(live.base_url, "/search", query)
        assert status == 200 and third["cached"] is False
        # The new line is visible to pooled readers post-invalidation.
        assert any(a["doc_id"] == 100 for a in third["answers"])
        _, stats = get_json(live.base_url, "/stats")
        assert stats["cache"]["invalidations"] >= 1

    def test_batches_append_not_collide(self, live):
        _, health = get_json(live.base_url, "/health")
        before = health["lines"]
        batch = {
            "dataset": "extra2",
            "documents": [{"doc_id": 200, "lines": ["Public Law 88 amended"]}],
        }
        status, reply = post_json(live.base_url, "/ingest", batch)
        assert status == 200
        assert reply["total_lines"] == before + 1


class TestConcurrency:
    def test_concurrent_mixed_queries(self, live):
        patterns = ["%Congress%", "%Law%", "%President%", "%employment%"]
        with StaccatoDB(live.service.paths[0], k=K, m=M) as db:
            expected = {
                p: [a.line_id for a in db.search(p, approach="staccato")]
                for p in patterns
            }

        def one(pattern: str):
            status, body = post_json(
                live.base_url, "/search", {"pattern": pattern}
            )
            return pattern, status, [a["line_id"] for a in body["answers"]]

        with ThreadPoolExecutor(max_workers=8) as workers:
            results = list(workers.map(one, patterns * 6))
        for pattern, status, line_ids in results:
            assert status == 200
            assert line_ids == expected[pattern]

    def test_load_driver_reports_clean_run(self, live):
        result = run_search_load(
            live.base_url,
            ["%Congress%", "%Law%"],
            concurrency=4,
            repeats=3,
            num_ans=5,
        )
        assert result.requests == 6 and result.errors == 0
        assert result.throughput_rps > 0
        assert result.latency_p99_ms >= result.latency_p50_ms
        assert "req/s" in result.summary()


class TestErrors:
    def test_missing_pattern(self, live):
        status, body = post_json(live.base_url, "/search", {})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "pattern" in body["error"]["message"]

    def test_bad_approach(self, live):
        status, body = post_json(
            live.base_url, "/search", {"pattern": "%a%", "approach": "nope"}
        )
        assert status == 400
        assert "approach" in body["error"]["message"]

    def test_bad_num_ans(self, live):
        status, body = post_json(
            live.base_url, "/search", {"pattern": "%a%", "num_ans": 0}
        )
        assert status == 400

    def test_invalid_json_body(self, live):
        request = urllib.request.Request(
            live.base_url + "/search",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad_json"

    def test_unknown_route(self, live):
        status, body = get_json(live.base_url, "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_sql_error_is_structured(self, live):
        status, body = post_json(
            live.base_url, "/sql", {"query": "DELETE FROM Claims"}
        )
        assert status == 400
        assert body["error"]["code"] == "sql_error"

    def test_ingest_rejects_empty_documents(self, live):
        status, body = post_json(
            live.base_url, "/ingest", {"documents": []}
        )
        assert status == 400

    def test_ingest_rejects_duplicate_doc_ids(self, live):
        status, body = post_json(
            live.base_url,
            "/ingest",
            {
                "documents": [
                    {"doc_id": 7, "lines": ["a line"]},
                    {"doc_id": 7, "lines": ["another"]},
                ]
            },
        )
        assert status == 400
        assert "duplicate" in body["error"]["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss", "NaN"),  # ran OCR, then died as an IntegrityError
            ("loss", "1e400"),  # stored as inf, served as ``Infinity``
            ("doc_id", str(2**70)),  # OverflowError binding the INTEGER
            ("year", str(2**70)),
        ],
    )
    def test_ingest_rejects_values_the_relation_cannot_hold(
        self, live, field, value
    ):
        doc = {"doc_id": "7001", "lines": '["a line"]', field: value}
        raw = '{"documents": [{%s}]}' % ", ".join(
            f'"{key}": {token}' for key, token in doc.items()
        )
        request = urllib.request.Request(
            live.base_url + "/ingest", data=raw.encode("utf-8"), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad_request"
        assert field in body["error"]["message"]

    def test_ingest_refuses_lines_it_cannot_build(self, live):
        """An empty line (the OCR engine's ``ValueError``, a 500 before)
        and one past ``MAX_LINE_CHARS`` (seconds of construction under
        the write lock) are 400s; nothing of their batch is stored."""
        _, health = get_json(live.base_url, "/health")
        before = health["lines"]
        for line in ("", "a" * (MAX_LINE_CHARS + 1)):
            status, body = post_json(
                live.base_url,
                "/ingest",
                {"documents": [{"doc_id": 300, "lines": ["a line", line]}]},
            )
            assert status == 400, body
            assert body["error"]["code"] == "bad_request"
            assert "lines[1]" in body["error"]["message"]
        _, health = get_json(live.base_url, "/health")
        assert health["lines"] == before
        status, reply = post_json(
            live.base_url,
            "/ingest",
            {"documents": [{"doc_id": 300, "lines": ["a line"]}]},
        )
        assert status == 200 and reply["total_lines"] == before + 1

    def test_ingest_refuses_a_batch_over_the_line_cap(self, live):
        """More than ``MAX_INGEST_LINES`` lines over all documents is a
        400 before any shard builds a line; a batch of exactly the cap
        validates (checked without building it)."""
        _, health = get_json(live.base_url, "/health")
        half = MAX_INGEST_LINES // 2
        status, body = post_json(
            live.base_url,
            "/ingest",
            {
                "documents": [
                    {"doc_id": 400, "lines": ["a line"] * half},
                    {"doc_id": 401, "lines": ["a line"] * (half + 1)},
                ]
            },
        )
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        assert str(MAX_INGEST_LINES) in body["error"]["message"]
        assert get_json(live.base_url, "/health")[1]["lines"] == health["lines"]
        request = validate_ingest(
            {"documents": [{"doc_id": 400, "lines": ["a"] * MAX_INGEST_LINES}]}
        )
        assert len(request.dataset.documents[0].lines) == MAX_INGEST_LINES

    def test_errors_counted_in_stats(self, live):
        post_json(live.base_url, "/search", {})
        _, stats = get_json(live.base_url, "/stats")
        assert stats["requests"]["total_errors"] >= 1


#: "e", 13 wildcards, "s": 16 385 DFA states, and seconds of DP per line
#: had it been evaluated.
_TOO_COMPLEX = "REGEX:e" + "\\x" * 13 + "s"


class TestQueryTooComplex:
    def test_library_compile_raises(self):
        with pytest.raises(QueryTooComplex):
            compile_like(_TOO_COMPLEX)

    @pytest.mark.parametrize("topology", ["db", "shards", "worker_procs"])
    def test_a_fast_400_on_every_topology(self, tmp_path, topology):
        """Refused from the pattern alone, before any leg runs: a 400 on
        ``/search`` and ``/sql`` within 10 ms, and, a client's mistake
        rather than a replica fault, no breaker opens."""
        if topology == "db":
            running = start_service(
                str(tmp_path / "one.db"), k=K, m=M, pool_size=2
            )
        else:
            running = start_sharded_service(
                str(tmp_path / "shards"), 2,
                worker_procs=topology == "worker_procs",
                k=K, m=M, pool_size=2, range_width=2,
            )
        try:
            url = running.base_url
            corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            assert post_json(url, "/ingest", _batch_payload(corpus))[0] == 200
            sql = f"SELECT DocId FROM Claims WHERE DocData LIKE '{_TOO_COMPLEX}'"
            for path, body in (
                ("/search", {"pattern": _TOO_COMPLEX}),
                ("/sql", {"query": sql}),
            ):
                elapsed = []
                for _ in range(3):
                    started = time.perf_counter()
                    status, reply = post_json(url, path, body)
                    elapsed.append(time.perf_counter() - started)
                    assert status == 400, reply
                    assert reply["error"]["code"] == "query_too_complex"
                assert min(elapsed) < 0.010, elapsed
            status, reply = post_json(url, "/search", {"pattern": "%Congress%"})
            assert status == 200 and reply["count"] > 0
        finally:
            running.stop()


#: Hostile patterns and the 400 each must get on ``/search`` and ``/sql``:
#: groups nested past the parser's bound, stacked stars and a literal
#: past the length cap.  Each was a 500 ``RecursionError`` or seconds of
#: compilation before either bound existed.
_HOSTILE = [
    ("REGEX:" + "(" * 500 + "a" + ")" * 500, "bad_pattern", "sql_error"),
    ("REGEX:" + "(a|" * 400 + "a" + ")" * 400, "bad_pattern", "sql_error"),
    ("REGEX:a" + "*" * 5000, "query_too_complex", "query_too_complex"),
    ("%" + "a" * 200_000 + "%", "query_too_complex", "query_too_complex"),
]


class TestHostilePatterns:
    def test_library_bounds(self):
        with pytest.raises(RegexError, match="nest"):
            compile_like(_HOSTILE[0][0])
        deepest = "REGEX:" + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
        assert compile_like(deepest).accepts("a")
        with pytest.raises(QueryTooComplex, match="characters"):
            compile_like("%" + "a" * MAX_PATTERN_CHARS + "%")
        # Below the cap, a run of stars is one star.
        assert compile_like("REGEX:ab" + "*" * 1000).accepts("a")

    @pytest.mark.parametrize("topology", ["db", "shards"])
    def test_a_fast_400_not_a_500(self, tmp_path, topology):
        if topology == "db":
            running = start_service(
                str(tmp_path / "one.db"), k=K, m=M, pool_size=2
            )
        else:
            running = start_sharded_service(
                str(tmp_path / "shards"), 2,
                k=K, m=M, pool_size=2, range_width=2,
            )
        try:
            url = running.base_url
            corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            assert post_json(url, "/ingest", _batch_payload(corpus))[0] == 200
            for pattern, search_code, sql_code in _HOSTILE:
                sql = f"SELECT DocId FROM Claims WHERE DocData LIKE '{pattern}'"
                for path, body, code in (
                    ("/search", {"pattern": pattern}, search_code),
                    ("/sql", {"query": sql}, sql_code),
                ):
                    elapsed = []
                    for _ in range(3):
                        started = time.perf_counter()
                        status, reply = post_json(url, path, body)
                        elapsed.append(time.perf_counter() - started)
                        assert status == 400, reply
                        assert reply["error"]["code"] == code
                    assert min(elapsed) < 0.010, (path, elapsed)
            status, stars = post_json(
                url, "/search", {"pattern": "REGEX:Congress" + "*" * 1000}
            )
            assert status == 200
            status, star = post_json(
                url, "/search", {"pattern": "REGEX:Congress*"}
            )
            assert status == 200 and star["count"] > 0
            assert stars["answers"] == star["answers"]
        finally:
            running.stop()


# ----------------------------------------------------------------------
# The HTTP core (repro.service.http_common): the routing and framing
# decisions the front end delegates to.
# ----------------------------------------------------------------------
class TestHttpCommon:
    def test_split_path_drops_query_string(self):
        assert http_common.split_path("/health?probe=1") == "/health"
        assert http_common.split_path("/jobs/abc?x=1&y=2") == "/jobs/abc"
        assert http_common.split_path("/stats") == "/stats"

    def test_resolve_exact_and_prefix(self):
        routed = http_common.resolve("GET", "/health")
        assert (routed.endpoint, routed.arg, routed.with_body) == (
            "health", None, False
        )
        routed = http_common.resolve("GET", "/jobs/abc123")
        assert (routed.endpoint, routed.arg) == ("jobs_get", "abc123")
        routed = http_common.resolve("DELETE", "/jobs/abc123")
        assert (routed.endpoint, routed.arg) == ("jobs_cancel", "abc123")
        assert http_common.resolve("POST", "/search").with_body is True

    def test_resolve_rejects_embedded_slash_in_prefix_arg(self):
        with pytest.raises(ApiError) as excinfo:
            http_common.resolve("GET", "/jobs/abc/def")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_resolve_unknown_method_is_405(self):
        for method in ("PUT", "PATCH", "HEAD", "OPTIONS", "TRACE"):
            with pytest.raises(ApiError) as excinfo:
                http_common.resolve(method, "/search")
            assert excinfo.value.status == 405
            assert excinfo.value.code == "method_not_allowed"

    def test_body_length_framing_codes(self):
        assert http_common.body_length("12") == 12
        with pytest.raises(ApiError) as excinfo:
            http_common.body_length("nope")
        assert excinfo.value.status == 400
        with pytest.raises(ApiError) as excinfo:
            http_common.body_length(None)
        assert "JSON body" in excinfo.value.message
        with pytest.raises(ApiError) as excinfo:
            http_common.body_length(str(http_common.MAX_BODY_BYTES + 1))
        assert excinfo.value.code == "payload_too_large"

    def test_dispatch_normalizes_status_payload_tuples(self):
        class Stub:
            def plain(self):
                return {"ok": True}

            def tuple_status(self):
                return 202, {"queued": True}

            def boom(self):
                raise ValueError("nope")

        routed = http_common.Routed("plain", None, False)
        assert http_common.dispatch(Stub(), routed) == (200, {"ok": True})
        routed = http_common.Routed("tuple_status", None, False)
        assert http_common.dispatch(Stub(), routed) == (202, {"queued": True})
        routed = http_common.Routed("boom", None, False)
        status, payload = http_common.dispatch(Stub(), routed)
        assert status == 500
        assert payload["error"]["code"] == "internal_error"


# ----------------------------------------------------------------------
# HTTP-layer regressions, over the wire via `live`.
# ----------------------------------------------------------------------
class TestHttpLayerRegressions:
    def test_query_string_does_not_404(self, live):
        # Routing used to match on the raw target, so any query string
        # missed every route.
        status, body = get_json(live.base_url, "/health?probe=1")
        assert status == 200 and body["status"] == "ok"
        status, body = get_json(live.base_url, "/stats?pretty=1")
        assert status == 200 and "requests" in body

    def test_prefix_route_rejects_embedded_slash(self, live):
        # /jobs/abc/def used to pass "abc/def" as the job id and leak
        # a confusing job_not_found.
        status, body = get_json(live.base_url, "/jobs/abc/def")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    @pytest.mark.parametrize("method", ["PUT", "PATCH"])
    def test_unknown_method_is_json_405(self, live, method):
        # These used to fall through to http.server's HTML 501 page.
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request(method, "/search", body=b"{}",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        assert response.status == 405
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Allow") == "DELETE, GET, POST"
        body = json.loads(raw)
        assert body["error"]["code"] == "method_not_allowed"

    def test_head_is_405_with_headers_and_no_body(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request("HEAD", "/health")
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        assert response.status == 405
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Allow") == "DELETE, GET, POST"
        assert raw == b""  # HEAD states the length but sends no body

    def test_incomplete_body_keeps_its_error_code(self, live):
        # Declare 100 bytes, send 10, hang up: the framing loop must
        # answer incomplete_body, not bad_json.
        status, headers, body = _raw_http(
            live.port,
            b"POST /search HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n"
            b'{"pattern"',
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "incomplete_body"

    def test_oversized_declaration_is_413(self, live):
        status, headers, body = _raw_http(
            live.port,
            b"POST /search HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 999999999\r\n\r\n",
        )
        assert status == 413
        assert json.loads(body)["error"]["code"] == "payload_too_large"

    def test_unconsumed_body_drops_keepalive(self, live):
        # A 413 answered without reading the declared body must close
        # the connection: otherwise the unread bytes are parsed as the
        # next request (here they spell a valid pipelined GET, which a
        # buggy server would answer -- or worse, answer as garbage).
        pipelined = (
            b"POST /search HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 999999999\r\n\r\n"
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        status, headers, body = _raw_http(live.port, pipelined)
        assert status == 413
        # Exactly one response came back: the connection closed after
        # the 413 instead of mis-parsing the leftover bytes.
        assert len(body) == int(headers["content-length"])

    def test_head_with_body_drops_keepalive(self, live):
        # HEAD suppresses the *response* body, but a HEAD request that
        # declared a *request* body still left it unread -- the
        # connection must close, not serve the body bytes as a request.
        status, headers, body = _raw_http(
            live.port,
            b"HEAD /health HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 5\r\n\r\nhello"
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert status == 405
        assert body == b""  # no response body, and no second response


def _raw_http(port: int, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes, half-close, read the whole response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


# ----------------------------------------------------------------------
# ``serve --db`` is the one-shard router: the same request sequence
# against start_service(db) and start_sharded_service(dir, 1) produces
# identical payloads (volatile fields like timings and paths masked).
# ----------------------------------------------------------------------
#: Values that legitimately differ across two service instances or two
#: runs: timings, absolute paths, trace ids and generated job ids.
_VOLATILE_KEYS = {
    "elapsed_s", "uptime_s", "latency_ms", "journal", "created_at",
    "started_at", "finished_at", "id", "job_id", "path", "db",
    "shard_dir", "bytes", "trace_id", "start_ms", "duration_ms",
    # Process-lifetime engine work counters: both services run inside
    # one pytest process, so the second starts with whatever totals the
    # first already accumulated.
    "engine",
}


def _canonical(payload: object) -> bytes:
    def mask(node):
        if isinstance(node, dict):
            return {
                key: "<volatile>" if key in _VOLATILE_KEYS else mask(value)
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [mask(item) for item in node]
        return node

    return json.dumps(mask(payload), sort_keys=True).encode("utf-8")


_CLAIMS = "FROM Claims WHERE DocData LIKE '%Congress%'"

#: ingest -> index -> search on three plans -> sql (projection,
#: aggregate, limit) -> every error family, plus the admin surface.
_TRANSCRIPT = [
    ("GET", "/health", None),
    ("POST", "/index", {"terms": ["public", "law"], "wait": True}),
    ("POST", "/search", {"pattern": "%Congress%", "num_ans": 10}),
    ("POST", "/search", {"pattern": r"REGEX:Public Law (8|9)\d", "plan": "indexed"}),
    ("POST", "/search", {"pattern": "Public Law%", "plan": "auto"}),
    ("POST", "/search", {"pattern": "%Law%", "shards": [0], "trace": True}),
    ("POST", "/search", {"pattern": "%Congress%", "num_ans": 10}),  # LRU hit
    ("POST", "/sql", {"query": f"SELECT DocId, Loss {_CLAIMS}"}),
    ("POST", "/sql", {"query": f"SELECT COUNT(*), SUM(Loss), AVG(Loss) {_CLAIMS}"}),
    ("POST", "/sql",
     {"query": f"SELECT DocId {_CLAIMS} ORDER BY DocId LIMIT 1", "num_ans": 3}),
    ("POST", "/search", {"pattern": "%a%", "approach": "nope"}),
    ("POST", "/search", {}),
    ("POST", "/search", {"pattern": "REGEX:(", "plan": "auto"}),
    ("POST", "/search", {"pattern": "%a%", "shards": [1]}),
    ("POST", "/sql", {"query": "DELETE FROM Claims"}),
    ("POST", "/sql", {"query": f"SELECT DocId {_CLAIMS}", "shards": [3]}),
    ("POST", "/ingest", {"documents": [{"doc_id": 1, "loss": 1e400, "lines": ["x"]}]}),
    ("POST", "/replicas", {"action": "detach", "shard": 0, "replica": 0}),
    ("POST", "/replicas", {"action": "attach", "shard": 4}),
    ("POST", "/jobs", {"type": "nope", "params": {}}),
    ("POST", "/jobs",
     {"type": "rebalance",
      "params": {"doc_lo": 0, "doc_hi": 9, "source": 0, "target": 1}}),
    ("POST", "/jobs",
     {"type": "rebuild_index", "params": {"terms": ["congress"]}, "wait": True}),
    ("GET", "/jobs/zzz", None),
    ("GET", "/jobs/abc/def", None),
    ("DELETE", "/jobs/zzz", None),
    ("GET", "/nope", None),
    ("PUT", "/search", {}),
    ("GET", "/stats", None),
]


def _http_case(base_url: str, method: str, path: str, body):
    if method == "GET":
        return get_json(base_url, path)
    if method == "POST":
        return post_json(base_url, path, body)
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base_url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestOneFileIsTheOneShardRouter:
    def test_db_and_one_shard_transcripts_are_equal(self, tmp_path):
        """Every endpoint (and error) answers identically on ``--db``
        and ``--shards 1``: one service core, one wire shape.

        Two fresh services over identically ingested data (the OCR
        channel is deterministic) receive the same request sequence;
        the collected payloads must match once volatile fields
        (timings, paths, trace and job ids) are masked.
        """
        corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
        options = dict(k=K, m=M, pool_size=2, cache_size=16)
        services = {
            "db": lambda: start_service(str(tmp_path / "one.db"), **options),
            "shards": lambda: start_sharded_service(
                str(tmp_path / "shards"), 1, **options
            ),
        }
        transcripts = {}
        for name, start in services.items():
            with start() as running:
                status, reply = post_json(
                    running.base_url, "/ingest", _batch_payload(corpus)
                )
                transcript = [("ingest", status, _canonical(reply))]
                for method, path, body in _TRANSCRIPT:
                    status, reply = _http_case(
                        running.base_url, method, path, body
                    )
                    transcript.append(
                        (f"{method} {path} {body}", status, _canonical(reply))
                    )
            transcripts[name] = transcript
        for one_file, one_shard in zip(transcripts["db"], transcripts["shards"]):
            assert one_file == one_shard, f"divergence on {one_file[0]}"
        # The transcript really exercised the shapes it claims to pin.
        statuses = [status for _, status, _ in transcripts["db"]]
        assert statuses.count(200) >= 13 and statuses.count(400) >= 9
        reply = json.loads(transcripts["db"][3][2])
        assert reply["shards"] == [0] and reply["plans"] == {"0": "filescan"}
