"""Tests for replicated shard reads with router failover.

The acceptance bar: with 2 shards x 2 replicas, killing one replica's
file mid-query must be invisible to clients (the retry serves from a
sibling), ``POST /replicas`` must attach/detach copies at runtime, and
the replicated topology must answer exactly like a single database
over the same corpus -- a plain ``StaccatoDB`` handle, code the router
does not run.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.bench.service_load import get_json, post_json
from repro.db.engine import StaccatoDB
from repro.db.schema import LINE_TABLES
from repro.db.sql import execute_select
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.service import QueryService, start_sharded_service
from repro.service.replicas import (
    CircuitBreaker,
    ReplicaUnavailable,
    replica_path,
)
from repro.service.shards import ShardedQueryService

K, M = 4, 6
NUM_SHARDS = 2
NUM_REPLICAS = 2
RANGE_WIDTH = 2
#: Long enough that a tripped breaker stays open for a whole test.
COOLDOWN = 60.0


# ----------------------------------------------------------------------
class TestReplicaPath:
    def test_replica_zero_is_the_primary(self):
        assert replica_path("/x/shard-0000.db", 0) == "/x/shard-0000.db"

    def test_secondary_replicas_live_beside_the_primary(self):
        assert replica_path("/x/shard-0003.db", 2) == "/x/shard-0003.r2.db"

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            replica_path("/x/shard-0000.db", -1)


class TestCircuitBreaker:
    def test_closed_allows_and_failure_opens(self):
        now = [0.0]
        breaker = CircuitBreaker(cooldown_s=5.0, clock=lambda: now[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure(RuntimeError("boom"))
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.errors == 1 and breaker.trips == 1
        assert "boom" in breaker.last_error

    def test_cooldown_releases_exactly_one_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(cooldown_s=5.0, clock=lambda: now[0])
        breaker.record_failure(RuntimeError("boom"))
        now[0] = 4.9
        assert not breaker.allow()
        now[0] = 5.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # concurrent caller refused

    def test_passthrough_error_resolves_a_half_open_probe(self, tmp_path):
        """A client error during the probe must not wedge the breaker.

        Regression: the probe consumes the single half-open slot; if a
        passthrough (client) exception left it unrecorded, allow()
        would refuse forever and the replica would never return.
        """
        from repro.service.replicas import ReplicaSet

        replica_set = ReplicaSet(
            0, str(tmp_path / "s.db"), 1, k=K, m=M, pool_size=1, cooldown_s=0.0
        )
        try:
            replica = replica_set.replicas()[0]
            replica.breaker.record_failure(RuntimeError("transient"))

            class ClientError(Exception):
                pass

            def bad_request(_replica):
                raise ClientError("malformed query")

            with pytest.raises(ClientError):
                replica_set.run(bad_request, passthrough=(ClientError,))
            assert replica.breaker.state == "closed"
            assert replica_set.run(lambda r: 42) == 42
        finally:
            replica_set.close()

    def test_probe_outcome_closes_or_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(cooldown_s=5.0, clock=lambda: now[0])
        breaker.record_failure(RuntimeError("boom"))
        now[0] = 5.0
        assert breaker.allow()
        breaker.record_failure(RuntimeError("still dead"))
        assert breaker.state == "open"
        assert not breaker.allow()  # a fresh cooldown started
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()


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
    """The ground truth: one database over the whole corpus."""
    db_path = str(tmp_path_factory.mktemp("single") / "ca.db")
    with StaccatoDB(db_path, k=K, m=M) as db:
        db.ingest(corpus, SimulatedOcrEngine(seed=0))
        yield db


@pytest.fixture
def replicated(tmp_path, corpus):
    """An in-process 2-shard x 2-replica service over the corpus.

    Function-scoped: several tests kill or detach replicas, and each
    deserves a pristine set.
    """
    service = ShardedQueryService(
        str(tmp_path / "shards"),
        NUM_SHARDS,
        k=K,
        m=M,
        pool_size=2,
        cache_size=0,  # every request must really read a replica
        range_width=RANGE_WIDTH,
        replicas=NUM_REPLICAS,
        replica_cooldown_s=COOLDOWN,
    )
    service.ingest(_batch_payload(corpus))
    yield service
    service.close()


class TestReplicaSync:
    def test_every_replica_file_holds_the_full_shard(self, replicated):
        for shard in replicated.pool.shards:
            counts = set()
            for replica in shard.replicas.replicas():
                with StaccatoDB(replica.path) as db:
                    counts.add(db.num_lines)
            assert len(counts) == 1 and counts != {0}

    def test_startup_resyncs_a_leftover_replica_file(self, tmp_path, corpus):
        shard_dir = str(tmp_path / "shards")
        with ShardedQueryService(
            shard_dir, 1, k=K, m=M, pool_size=1, replicas=2
        ) as service:
            service.ingest(_batch_payload(corpus))
        # The replica file survives shutdown but may be arbitrarily old;
        # a fresh service must rebuild it from the primary, not trust it.
        stale = replica_path(os.path.join(shard_dir, "shard-0000.db"), 1)
        assert os.path.exists(stale)
        with StaccatoDB(stale) as db:
            lines_before = db.num_lines
        os.truncate(stale, 0)
        with ShardedQueryService(
            shard_dir, 1, k=K, m=M, pool_size=1, replicas=2
        ) as service:
            reply = service.search({"pattern": "%the%", "num_ans": 50})
            assert reply["count"] > 0
        with StaccatoDB(stale) as db:
            assert db.num_lines == lines_before

    def test_reads_round_robin_over_replicas(self, replicated):
        for _ in range(6):
            replicated.search({"pattern": "%Congress%"})
        for shard in replicated.pool.shards:
            served = [r.served for r in shard.replicas.replicas()]
            assert all(count > 0 for count in served)


def _kill_a_replica_and_keep_serving(service) -> None:
    victim = service.pool.shard(0).replicas.replicas()[1]
    before = service.search({"pattern": "%annual%", "num_ans": 50})
    os.remove(victim.path)
    for _ in range(8):
        after = service.search({"pattern": "%annual%", "num_ans": 50})
        assert after["count"] == before["count"]
    assert victim.breaker.state == "open"
    assert "FileNotFoundError" in victim.breaker.last_error
    # The survivor absorbed the load; no request-level error counted,
    # and the vanished file was caught before any evaluation started.
    snapshot = service.metrics.snapshot()
    assert snapshot["total_errors"] == 0
    attempted_errors = sum(
        endpoints.get("search", {}).get("errors", 0)
        for endpoints in snapshot["replicas"]["0"].values()
    )
    assert attempted_errors == 0


class TestFailover:
    def test_killed_replica_file_fails_over_silently(self, replicated):
        _kill_a_replica_and_keep_serving(replicated)

    def test_killed_replica_of_a_one_file_service_fails_over_silently(
        self, tmp_path, corpus
    ):
        # ``serve --db x.db --replicas 2``: the copy lands beside the file.
        path = str(tmp_path / "one.db")
        with QueryService(
            path, k=K, m=M, cache_size=0, replicas=2,
            replica_cooldown_s=COOLDOWN,
        ) as service:
            service.ingest(_batch_payload(corpus))
            assert os.path.exists(replica_path(path, 1))
            _kill_a_replica_and_keep_serving(service)

    def test_replica_error_mid_query_retries_on_sibling(self, replicated):
        shard = replicated.pool.shard(0)
        victim = shard.replicas.replicas()[0]
        # Poison the replica's pooled connections: the failure happens
        # *inside* the borrowed-connection attempt, after acquisition.
        for entry in victim.pool._entries:
            entry.db.close()
        # Round-robin guarantees the poisoned replica is attempted
        # within a couple of requests; every request must still succeed.
        for _ in range(4):
            result = replicated.search({"pattern": "%annual%", "num_ans": 50})
            assert result["count"] > 0
        assert victim.breaker.state == "open"
        snapshot = replicated.metrics.snapshot()
        assert snapshot["replicas"]["0"]["0"]["search"]["errors"] >= 1
        assert snapshot["total_errors"] == 0

    def test_all_replicas_down_is_a_structured_503(self, replicated):
        from repro.service.validation import ApiError

        for replica in replicated.pool.shard(1).replicas.replicas():
            os.remove(replica.path)
        with pytest.raises(ApiError) as excinfo:
            replicated.search({"pattern": "%annual%"})
        assert excinfo.value.status == 503
        assert excinfo.value.code == "shard_unavailable"
        # A scope avoiding the dead shard still serves.
        scoped = replicated.search({"pattern": "%annual%", "shards": [0]})
        assert scoped["shards"] == [0]

    def test_missed_write_marks_the_replica_stale(self, replicated, corpus):
        shard = replicated.pool.shard(0)
        diverged = shard.replicas.replicas()[1]

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        diverged.writer.write_batch = explode
        doc_id = RANGE_WIDTH * NUM_SHARDS * 3  # owned by shard 0
        reply = replicated.ingest(
            {
                "dataset": "diverge",
                "documents": [{"doc_id": doc_id, "lines": ["the new budget"]}],
            }
        )
        assert reply["shards"]["0"]["ingested_lines"] == 1
        assert diverged.stale and "disk full" in diverged.stale_reason
        # Reads keep serving (from the committed sibling) and include
        # the new document -- a stale copy never re-enters the rotation.
        for _ in range(4):
            result = replicated.search({"pattern": "%budget%", "num_ans": 50})
            assert any(a["doc_id"] == doc_id for a in result["answers"])

    def test_one_ingest_builds_once_and_writes_every_replica(
        self, replicated, monkeypatch
    ):
        """Construction is the cost of an ingest: a shard pays it once per
        batch, however many replicas then store the rows."""
        from repro.db import storage

        built = []
        real_approximate = storage.staccato_approximate

        def counting(sfa, m, k):
            built.append((m, k))
            return real_approximate(sfa, m=m, k=k)

        monkeypatch.setattr(storage, "staccato_approximate", counting)
        doc_id = RANGE_WIDTH * NUM_SHARDS * 3  # owned by shard 0
        lines = ["the new budget", "the annual report of the board"]
        reply = replicated.ingest(
            {
                "dataset": "once",
                "documents": [{"doc_id": doc_id, "lines": lines}],
            }
        )
        assert reply["shards"]["0"]["ingested_lines"] == len(lines)
        assert built == [(M, K)] * len(lines)  # once per line, not per replica
        copies = replicated.pool.shard(0).replicas.replicas()
        assert len(copies) == NUM_REPLICAS
        for table in ("Documents", *set(LINE_TABLES) - {"InvertedIndex"}):
            first, second = (
                sorted(replica.writer.conn.execute(f"SELECT * FROM {table}"))
                for replica in copies
            )
            assert first and first == second, table
        assert not any(replica.stale for replica in copies)

    def test_bad_pattern_is_a_400_and_never_breaker_food(self, replicated):
        """A client's uncompilable pattern must not open any breaker.

        Regression: compilation errors are deterministic, so without
        the up-front check one malformed request would fail every
        replica it was retried on and 503 healthy shards for a whole
        cooldown.
        """
        from repro.service.validation import ApiError

        with pytest.raises(ApiError) as excinfo:
            replicated.search({"pattern": "REGEX:("})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_pattern"
        for shard in replicated.pool.shards:
            for replica in shard.replicas.replicas():
                assert replica.breaker.state == "closed"
        assert replicated.search({"pattern": "%annual%"})["count"] > 0

    def test_lost_primary_recovers_from_a_surviving_replica(
        self, tmp_path, corpus
    ):
        """Restart after losing the primary file must not wipe the data.

        Regression: startup re-syncs every secondary from the primary;
        a primary lost to a disk fault must first be re-seeded *from*
        the surviving copy, not back an empty file up over it.
        """
        shard_dir = str(tmp_path / "shards")
        with ShardedQueryService(
            shard_dir, 1, k=K, m=M, pool_size=1, replicas=2
        ) as service:
            service.ingest(_batch_payload(corpus))
            lines = service.total_lines()
        primary = os.path.join(shard_dir, "shard-0000.db")
        for path in (primary, f"{primary}-wal", f"{primary}-shm"):
            if os.path.exists(path):
                os.remove(path)
        with ShardedQueryService(
            shard_dir, 1, k=K, m=M, pool_size=1, replicas=2
        ) as service:
            assert service.total_lines() == lines
            assert service.search({"pattern": "%the%", "num_ans": 5})["count"] > 0

    def test_degraded_health_names_the_shard(self, replicated):
        for replica in replicated.pool.shard(1).replicas.replicas():
            os.remove(replica.path)
        health = replicated.health()
        assert health["status"] == "degraded"
        assert health["shard_lines"]["1"] is None
        assert health["shard_lines"]["0"] is not None
        assert health["replicas"]["0"]["healthy"] == NUM_REPLICAS


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster(tmp_path_factory, corpus):
    """A live replicated HTTP service (2 shards x 2 replicas)."""
    shard_dir = str(tmp_path_factory.mktemp("cluster") / "shards")
    running = start_sharded_service(
        shard_dir,
        NUM_SHARDS,
        k=K,
        m=M,
        pool_size=2,
        cache_size=0,
        range_width=RANGE_WIDTH,
        replicas=NUM_REPLICAS,
        replica_cooldown_s=COOLDOWN,
    )
    status, reply = post_json(
        running.base_url, "/ingest", _batch_payload(corpus)
    )
    assert status == 200 and reply["ingested_lines"] == corpus.num_lines
    yield running
    running.stop()


def _rows(answers) -> list[tuple[int, int, float]]:
    return [
        (a.doc_id, a.line_no, pytest.approx(a.probability)) for a in answers
    ]


class TestReplicatedEquivalence:
    @pytest.mark.parametrize("pattern", ["%Congress%", "%Law%", "%President%"])
    def test_search_matches_single_db(self, single, cluster, pattern):
        query = {"pattern": pattern, "approach": "staccato", "num_ans": 20}
        expected = single.search(pattern, approach="staccato", num_ans=20)
        status, body = post_json(cluster.base_url, "/search", query)
        assert status == 200
        assert body["count"] == len(expected)
        assert _rows(expected) == [
            (a["doc_id"], a["line_no"], a["probability"])
            for a in body["answers"]
        ]

    def test_sql_matches_single_db(self, single, cluster):
        sql = "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%Congress%'"
        expected = execute_select(single, sql)
        status, body = post_json(cluster.base_url, "/sql", {"query": sql})
        assert status == 200
        assert body["count"] == len(expected)
        for got, want in zip(body["rows"], expected):
            assert got["DocId"] == want["DocId"]
            assert got["Probability"] == pytest.approx(want["Probability"])


class TestLiveFailover:
    def test_kill_under_concurrent_load_zero_client_errors(self, cluster):
        """Delete a replica file while requests are in flight: all 200s."""
        victim = cluster.service.pool.shard(0).replicas.replicas()[-1]
        patterns = ["%Congress%", "%Law%", "%President%", "%the%"]
        statuses: list[int] = []
        lock = threading.Lock()

        def fire(pattern: str) -> None:
            status, _ = post_json(
                cluster.base_url,
                "/search",
                {"pattern": pattern, "num_ans": 10},
            )
            with lock:
                statuses.append(status)

        threads = [
            threading.Thread(target=fire, args=(patterns[i % len(patterns)],))
            for i in range(12)
        ]
        for started, thread in enumerate(threads):
            if started == 4:
                os.remove(victim.path)
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * len(threads)
        _, stats = get_json(cluster.base_url, "/stats")
        roster = {
            r["replica"]: r for r in stats["shards"][0]["replicas"]
        }
        assert roster[victim.replica_index]["healthy"] is False

    def test_detach_and_reattach_over_http(self, cluster):
        shard = cluster.service.pool.shard(0)
        victim = shard.replicas.replicas()[-1]
        status, body = post_json(
            cluster.base_url,
            "/replicas",
            {"action": "detach", "shard": 0, "replica": victim.replica_index},
        )
        assert status == 200
        assert body["replica"] == victim.replica_index
        assert len(body["replicas"]) == NUM_REPLICAS - 1
        status, body = post_json(
            cluster.base_url, "/replicas", {"action": "attach", "shard": 0}
        )
        assert status == 200
        assert os.path.exists(body["path"])
        assert len(body["replicas"]) == NUM_REPLICAS
        assert all(r["healthy"] for r in body["replicas"])
        # The re-attached copy is a full clone and serves reads.
        with StaccatoDB(body["path"]) as db:
            assert db.num_lines > 0
        status, result = post_json(
            cluster.base_url, "/search", {"pattern": "%Congress%"}
        )
        assert status == 200 and result["count"] > 0

    def test_replicas_endpoint_validation(self, cluster):
        for payload, code in [
            ({"action": "resync", "shard": 0}, "bad_request"),
            ({"action": "detach", "shard": 0}, "bad_request"),
            ({"action": "attach", "shard": 99}, "unknown_shard"),
        ]:
            status, body = post_json(cluster.base_url, "/replicas", payload)
            assert status == 400
            assert body["error"]["code"] == code
        status, body = post_json(
            cluster.base_url,
            "/replicas",
            {"action": "detach", "shard": 1, "replica": 42},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_replica"

    def test_detaching_down_to_last_replica_is_refused(self, tmp_path):
        with ShardedQueryService(
            str(tmp_path / "solo"), 1, k=K, m=M, pool_size=1
        ) as service:
            from repro.service.validation import ApiError

            with pytest.raises(ApiError) as excinfo:
                service.replicas(
                    {"action": "detach", "shard": 0, "replica": 0}
                )
            assert excinfo.value.status == 409
            assert excinfo.value.code == "last_replica"

    def test_one_file_service_attaches_a_replica_beside_the_file(
        self, tmp_path
    ):
        path = str(tmp_path / "one.db")
        with QueryService(path, k=K, m=M) as service:
            reply = service.replicas({"action": "attach", "shard": 0})
            assert reply["path"] == replica_path(path, 1)
            assert len(reply["replicas"]) == 2

    def test_stats_expose_per_replica_health_and_latency(self, cluster):
        post_json(cluster.base_url, "/search", {"pattern": "%Law%"})
        _, stats = get_json(cluster.base_url, "/stats")
        assert stats["db"]["num_replicas"] == NUM_REPLICAS
        for shard_stat in stats["shards"]:
            assert shard_stat["replicas"]
            for replica_stat in shard_stat["replicas"]:
                assert {"replica", "role", "healthy", "breaker", "pool"} <= set(
                    replica_stat
                )
        replica_metrics = stats["requests"]["replicas"]
        served = [
            endpoint_stats["search"]
            for shard_block in replica_metrics.values()
            for endpoint_stats in shard_block.values()
            if "search" in endpoint_stats
        ]
        assert served and all("latency_ms" in s for s in served)


# ----------------------------------------------------------------------
class TestRoundRobinOwnerRouting:
    def test_reingest_follows_the_original_owner(self, tmp_path):
        """Regression: round_robin must not split a known document."""
        with ShardedQueryService(
            str(tmp_path / "rr"), 2, k=K, m=M, pool_size=1
        ) as service:
            first = service.ingest(
                {
                    "dataset": "a",
                    "route": "round_robin",
                    "documents": [{"doc_id": 7, "lines": ["the first line"]}],
                }
            )
            (owner,) = (int(s) for s in first["shards"])
            # The round-robin cursor now points at the other shard; a
            # naive deal would split doc 7 across both files.
            second = service.ingest(
                {
                    "dataset": "b",
                    "route": "round_robin",
                    "documents": [{"doc_id": 7, "lines": ["the second line"]}],
                }
            )
            assert set(second["shards"]) == {str(owner)}
            with StaccatoDB(service.paths[1 - owner]) as other:
                assert (
                    other.conn.execute(
                        "SELECT COUNT(*) FROM MasterData WHERE DocId = 7"
                    ).fetchone()[0]
                    == 0
                )
            # Every row of the document carries the same shard tag in
            # the merged ranking (no cross-shard split).
            merged = service.search({"pattern": "%line%", "num_ans": 50})
            tags = {
                a["shard"] for a in merged["answers"] if a["doc_id"] == 7
            }
            assert tags == {owner}

    def test_in_flight_placements_beat_the_shard_probe(self, tmp_path):
        """A racing batch's uncommitted placement still routes doc kin.

        The shard probe only sees committed rows; the in-process
        placement registry is what keeps two concurrent batches
        carrying the same new document on one shard.  Simulate the
        race's ordering directly: a placement recorded before the
        probe could observe any rows must win over a fresh assignment.
        """
        with ShardedQueryService(
            str(tmp_path / "race"), 2, k=K, m=M, pool_size=1
        ) as service:
            with service._rr_lock:
                service._placements[5] = 1
            reply = service.ingest(
                {
                    "dataset": "racer",
                    "route": "round_robin",  # cursor would pick shard 0
                    "documents": [{"doc_id": 5, "lines": ["the line"]}],
                }
            )
            assert set(reply["shards"]) == {"1"}

    def test_dead_shard_write_is_a_structured_503(self, tmp_path):
        # One shard so the owner probe (which would 503 first on a
        # multi-shard service) is skipped and the write leg itself hits
        # the all-replicas-stale condition.
        from repro.service.validation import ApiError

        with ShardedQueryService(
            str(tmp_path / "dead"), 1, k=K, m=M, pool_size=1
        ) as service:
            service.pool.shard(0).replicas.replicas()[0].mark_stale(
                "simulated divergence"
            )
            with pytest.raises(ApiError) as excinfo:
                service.ingest(
                    {
                        "dataset": "late",
                        "documents": [{"doc_id": 0, "lines": ["x"]}],
                    }
                )
            assert excinfo.value.status == 503
            assert excinfo.value.code == "shard_unavailable"

    def test_range_reingest_follows_a_round_robin_placement(self, tmp_path):
        """A doc placed by round_robin keeps its owner under route=range."""
        with ShardedQueryService(
            str(tmp_path / "mixed"), 2, k=K, m=M, pool_size=1, range_width=1
        ) as service:
            service.ingest(
                {
                    "dataset": "a",
                    "route": "round_robin",
                    "documents": [{"doc_id": 3, "lines": ["first"]}],
                }
            )
            natural = 3 % 2  # what range routing alone would pick
            placed = 0  # round-robin cursor started at shard 0
            assert natural != placed
            reply = service.ingest(
                {
                    "dataset": "b",
                    "documents": [{"doc_id": 3, "lines": ["second"]}],
                }
            )
            assert set(reply["shards"]) == {str(placed)}


class TestIncompleteBody:
    def test_truncated_body_is_a_distinct_400(self, cluster):
        """A client dying mid-body gets incomplete_body, not bad_json."""
        body = b'{"pattern": "%x%"}'
        declared = len(body) + 64
        host, port = "127.0.0.1", cluster.port
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                (
                    f"POST /search HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {declared}\r\n"
                    "Content-Type: application/json\r\n\r\n"
                ).encode()
                + body
            )
            sock.shutdown(socket.SHUT_WR)  # the "disconnect" mid-body
            sock.settimeout(10)
            response = b""
            while True:
                try:
                    chunk = sock.recv(4096)
                except TimeoutError:
                    break
                if not chunk:
                    break
                response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"incomplete_body" in response
        assert b"bad_json" not in response

    def test_exact_body_still_parses(self, cluster):
        status, body = post_json(
            cluster.base_url, "/search", {"pattern": "%Congress%"}
        )
        assert status == 200 and body["count"] >= 0
