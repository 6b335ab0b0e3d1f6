"""Process-level tests for the subprocess-worker topology.

Three families, matching the failure contract of
:mod:`repro.service.workers`:

* **Routing properties** -- Hypothesis checks that the striped
  :class:`RoutingTable` plus move overrides always assigns every DocId
  to exactly one live shard, including every intermediate state a
  rebalance can publish.
* **Topology equivalence** -- the same request sequence against the
  in-process shard router and the subprocess-worker router must produce
  byte-identical payloads (volatile fields masked, router-only blocks
  stripped); the single-database service must agree on the
  placement-independent projection.
* **Fault injection** -- SIGKILL mid-load is invisible to clients (the
  supervisor respawns, idempotent reads retry inside their deadline),
  a kill mid-ingest never leaves a partial batch (StaccatoDB batches
  are atomic per shard), a write sent while a worker is down is served
  once by its successor on the same port, SIGSTOP trips the router
  deadline as a 503 ``deadline_exceeded`` with a matching trace span,
  and SIGTERM drains in-flight requests before the worker exits.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.service_load import get_json, post_json
from repro.db.engine import StaccatoDB, shard_path
from repro.db.sql import execute_select
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.service.server import start_sharded_service
from repro.service.shards import RoutingTable, shard_for_doc

from .strategies import routing_moves, routing_tables
from .test_service import (
    _batch_payload,
    _canonical,
    _http_case,
    K,
    M,
)


# ----------------------------------------------------------------------
# Routing properties: every DocId has exactly one owner, always
# ----------------------------------------------------------------------
class TestRoutingTableProperties:
    @given(table=routing_tables(), doc_id=st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_every_doc_has_exactly_one_live_owner(self, table, doc_id):
        owner = table.owner(doc_id)
        assert 0 <= owner < table.num_shards
        # Overrides stay well-formed: in-range targets, non-empty
        # ranges, sorted and non-overlapping (lookups bisect on this).
        for lo, hi, shard in table.overrides:
            assert lo <= hi
            assert 0 <= shard < table.num_shards
        for (_, hi, _), (next_lo, _, _) in zip(
            table.overrides, table.overrides[1:]
        ):
            assert hi < next_lo
        # The owner is the override when one covers the doc, the
        # striped default otherwise -- never both, never neither.
        override = table.override_owner(doc_id)
        if override is None:
            assert owner == shard_for_doc(
                doc_id, table.num_shards, table.range_width
            )
        else:
            assert owner == override

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_with_move_reassigns_exactly_the_range(self, data):
        table = data.draw(routing_tables())
        a = data.draw(st.integers(0, 600))
        b = data.draw(st.integers(0, 600))
        lo, hi = min(a, b), max(a, b)
        target = data.draw(st.integers(0, table.num_shards - 1))
        successor = table.with_move(lo, hi, target)
        probes = {lo, hi, max(0, lo - 1), hi + 1}
        probes.update(data.draw(st.lists(st.integers(0, 600), max_size=6)))
        for doc_id in probes:
            if lo <= doc_id <= hi:
                assert successor.owner(doc_id) == target
            else:
                assert successor.owner(doc_id) == table.owner(doc_id)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_mid_rebalance_state_is_consistent(self, data):
        """Each table along a move sequence -- the states a router can
        publish while rebalances are in flight -- is fully owned."""
        num_shards = data.draw(st.integers(1, 4))
        table = RoutingTable(num_shards, data.draw(st.integers(1, 32)))
        for lo, hi, target in data.draw(routing_moves(num_shards)):
            table = table.with_move(lo, hi, target)
            for doc_id in (lo, (lo + hi) // 2, hi):
                assert table.owner(doc_id) == target
            for (_, prev_hi, _), (next_lo, _, _) in zip(
                table.overrides, table.overrides[1:]
            ):
                assert prev_hi < next_lo
            # Round-tripping through JSON preserves ownership (the
            # persisted sidecar must describe the same placement).
            reloaded = RoutingTable(
                table.num_shards,
                table.range_width,
                [tuple(entry) for entry in table.to_json()["overrides"]],
            )
            assert reloaded.overrides == table.overrides


# ----------------------------------------------------------------------
# Topology equivalence
# ----------------------------------------------------------------------
#: Blocks that legitimately differ between the in-process router and the
#: worker router: the worker census, per-instance request counters,
#: connection-pool counters (the worker topology adds a second pool
#: layer inside each worker process), and per-shard engine counters
#: (only worker processes can attribute the process-global engine
#: counters to one shard).
_TOPOLOGY_ONLY_KEYS = {"workers", "requests", "checkouts", "served", "engine"}


def _strip_topology(node):
    if isinstance(node, dict):
        return {
            key: _strip_topology(value)
            for key, value in node.items()
            if key not in _TOPOLOGY_ONLY_KEYS
        }
    if isinstance(node, list):
        return [_strip_topology(item) for item in node]
    return node


#: One request per endpoint and per error family, including the routes
#: the HTTP bugfix sweep touched (query strings, embedded slashes).
_EQUIVALENCE_CASES = [
    ("GET", "/health", None),
    ("GET", "/health?probe=1", None),
    ("GET", "/stats", None),
    ("POST", "/search", {"pattern": "%Congress%", "num_ans": 10}),
    ("POST", "/search", {"pattern": "%Law%", "plan": "indexed"}),
    ("POST", "/search", {"pattern": "%a%", "approach": "nope"}),
    ("POST", "/search", {}),
    ("POST", "/search", {"pattern": "%a%", "shards": [0]}),
    ("POST", "/sql",
     {"query": "SELECT DocId FROM Claims WHERE DocData LIKE '%Congress%'"}),
    ("POST", "/sql", {"query": "DELETE FROM Claims"}),
    ("POST", "/replicas", {"action": "attach", "shard": 0}),
    ("GET", "/jobs", None),
    ("GET", "/jobs/zzz", None),
    ("GET", "/jobs/abc/def", None),
    ("DELETE", "/jobs/zzz", None),
    ("POST", "/jobs", {"type": "nope", "params": {}}),
    ("GET", "/nope", None),
    ("PUT", "/search", {}),
    ("PATCH", "/health", {}),
    ("POST", "/index",
     {"terms": ["public", "law"], "wait": True}),
]


def _transcript(running, corpus):
    status, reply = post_json(
        running.base_url, "/ingest", _batch_payload(corpus)
    )
    out = [("ingest", status, _canonical(_strip_topology(reply)))]
    for method, path, body in _EQUIVALENCE_CASES:
        status, reply = _http_case(running.base_url, method, path, body)
        out.append(
            (f"{method} {path}", status, _canonical(_strip_topology(reply)))
        )
    return out


_SQL = "SELECT DocId FROM Claims WHERE DocData LIKE '%Congress%'"
_AGGREGATE_SQL = (
    "SELECT COUNT(*), SUM(Loss), AVG(Loss) FROM Claims WHERE DocData LIKE '%a%'"
)


def _projection(status, reply):
    """What placement cannot change about a successful reply."""
    if "answers" in reply:
        return (
            status,
            reply.get("count"),
            sorted(
                (row["doc_id"], row["line_no"], round(row["probability"], 9))
                for row in reply["answers"]
            ),
        )
    if "rows" in reply:
        return (status, reply.get("count"), reply["rows"])
    return (status, reply.get("status"), reply.get("lines"))  # /health


class TestTopologyEquivalence:
    def test_worker_and_in_process_routers_answer_identically(self, tmp_path):
        """Every endpoint (and error family) is byte-identical across
        the in-process and subprocess shard topologies.

        Two services over identically ingested 2-shard layouts (the OCR
        channel is deterministic; ``range_width=2`` spreads the corpus
        over both shards) replay the same request sequence; payloads
        must match byte for byte once volatile fields are masked and
        the router-only blocks are stripped.
        """
        corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
        transcripts = {}
        for name, worker_procs in (("in-process", False), ("workers", True)):
            running = start_sharded_service(
                str(tmp_path / name), 2,
                k=K, m=M, pool_size=2, cache_size=0, range_width=2,
                worker_procs=worker_procs,
            )
            try:
                transcripts[name] = _transcript(running, corpus)
            finally:
                running.stop()
        in_process, workers = (
            transcripts["in-process"], transcripts["workers"]
        )
        assert len(in_process) == len(workers)
        for local, remote in zip(in_process, workers):
            assert local == remote, f"topology divergence on {local[0]}"

    def test_single_db_agrees_on_placement_independent_projection(
        self, tmp_path
    ):
        """The worker topology against one plain database handle -- code
        no router runs -- on what placement cannot change: answer
        identities (not line ids, those are shard-local) and SQL rows."""
        corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
        with StaccatoDB(str(tmp_path / "single.db"), k=K, m=M) as db:
            db.ingest(corpus, SimulatedOcrEngine(seed=0))
            lines = db.num_lines
            searches = {
                pattern: sorted(
                    (a.doc_id, a.line_no, round(a.probability, 9))
                    for a in db.search(pattern, num_ans=10)
                )
                for pattern in ("%Congress%", "%Law%")
            }
            rows = execute_select(db, _SQL)
            aggregates = execute_select(db, _AGGREGATE_SQL)
        running = start_sharded_service(
            str(tmp_path / "workers"), 2,
            k=K, m=M, pool_size=2, cache_size=0, range_width=2,
            worker_procs=True,
        )
        try:
            url = running.base_url
            status, reply = post_json(url, "/ingest", _batch_payload(corpus))
            assert (status, reply["ingested_lines"]) == (200, lines)
            assert _projection(*get_json(url, "/health")) == (200, "ok", lines)
            for pattern, expected in searches.items():
                # No index yet: the indexed plan falls back to the scan.
                for plan in ("filescan", "indexed"):
                    body = {"pattern": pattern, "num_ans": 10, "plan": plan}
                    assert _projection(*post_json(url, "/search", body)) == (
                        200, len(expected), expected
                    )
            assert _projection(*post_json(url, "/sql", {"query": _SQL})) == (
                200, len(rows), rows
            )
            # Bit for bit: the repr of every value, aggregates included.
            for sql, expected in ((_SQL, rows), (_AGGREGATE_SQL, aggregates)):
                status, reply = post_json(url, "/sql", {"query": sql})
                assert (status, repr(reply["rows"])) == (200, repr(expected))
        finally:
            running.stop()


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def _start_workers(path, **kwargs):
    options = dict(k=K, m=M, pool_size=2, cache_size=0, range_width=2)
    options.update(kwargs)
    return start_sharded_service(str(path), 2, worker_procs=True, **options)


def _stored_lines(path: str) -> int:
    """``MasterData``'s line count, read on a read-only connection of
    its own; 0 while the file has no such table yet."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return conn.execute("SELECT COUNT(*) FROM MasterData").fetchone()[0]
    except sqlite3.OperationalError:
        return 0
    finally:
        conn.close()


def _worker_pid(running, index: int) -> int:
    return running.service._workers.handle(index).pid


def _await_stopped(pid: int, timeout_s: float = 5.0) -> None:
    """Wait until every thread of ``pid`` reads state ``T``: ``kill``
    returns before the group stop has landed on each thread, and a
    thread still running could answer the next request."""
    tasks = f"/proc/{pid}/task"
    if not os.path.isdir(tasks):
        return  # no procfs: nothing to wait on
    deadline = time.monotonic() + timeout_s
    while True:
        states = []
        for tid in os.listdir(tasks):
            with contextlib.suppress(OSError):
                with open(f"{tasks}/{tid}/stat", encoding="utf-8") as stat:
                    states.append(stat.read().rsplit(")", 1)[1].split()[0])
        if states and set(states) == {"T"}:
            return
        assert time.monotonic() < deadline, f"not stopped: {states}"
        time.sleep(0.01)


def _accept_queue(port: int) -> int | None:
    """Connections waiting to be accepted on the socket listening at
    127.0.0.1:``port`` (``None`` without procfs or no such socket)."""
    try:
        with open("/proc/net/tcp", encoding="ascii") as table:
            rows = table.read().splitlines()[1:]
    except OSError:
        return None
    for row in rows:
        fields = row.split()
        if fields[1] == f"0100007F:{port:04X}" and fields[3] == "0A":
            return int(fields[4].split(":")[1], 16)  # rx_queue of a LISTEN
    return None


def _await_healthy(running, timeout_s: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout_s
    health: dict = {}
    while time.monotonic() < deadline:
        status, health = get_json(running.base_url, "/health")
        if status == 200 and health.get("status") == "ok":
            return health
        time.sleep(0.1)
    return health


class TestFaultInjection:
    def test_sigkill_mid_load_is_invisible_to_clients(self, tmp_path):
        """Reads retry across a worker crash within their deadline: the
        supervisor respawns the process and not one client sees an
        error."""
        running = _start_workers(tmp_path / "shards")
        try:
            corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
            status, _ = post_json(
                running.base_url, "/ingest", _batch_payload(corpus)
            )
            assert status == 200
            victim = _worker_pid(running, 0)
            patterns = ["%Congress%", "%Law%", "%public%", "%of%"]
            replies = []
            lock = threading.Lock()

            def one_search(at: int) -> None:
                result = post_json(
                    running.base_url,
                    "/search",
                    {"pattern": patterns[at % len(patterns)], "num_ans": 10},
                )
                with lock:
                    replies.append(result)

            with ThreadPoolExecutor(max_workers=4) as load:
                futures = [load.submit(one_search, at) for at in range(8)]
                os.kill(victim, signal.SIGKILL)
                futures += [load.submit(one_search, at) for at in range(8, 24)]
                for future in futures:
                    future.result()
            failed = [(s, r) for s, r in replies if s != 200]
            assert not failed, failed
            assert len(replies) == 24
            assert (
                running.service.metrics.event_count("worker_restart") >= 1
            )
            health = _await_healthy(running)
            assert health.get("status") == "ok", health
            assert health["workers"]["0"]["pid"] != victim
            assert health["workers"]["0"]["restarts"] >= 1
        finally:
            running.stop()

    def test_sigkill_mid_ingest_never_leaves_a_partial_batch(self, tmp_path):
        """An ingest interrupted by a worker crash either fully commits
        or fully rolls back -- never a half-applied batch.  Killed 0.05 s
        in, the batch has usually not committed."""
        self._kill_mid_ingest(tmp_path, lambda shard_file, lines: time.sleep(0.05))

    def test_sigkill_after_the_batch_commits_keeps_all_of_it(self, tmp_path):
        """Killed once the batch is in the file (a read-only connection
        sees every line), before or after the reply: the whole batch
        stays, and the search cached before it is not served."""

        def committed(shard_file: str, lines: int) -> None:
            deadline = time.monotonic() + 60.0
            while _stored_lines(shard_file) < lines:
                assert time.monotonic() < deadline, "the batch never committed"
                time.sleep(0.002)

        assert self._kill_mid_ingest(tmp_path, committed)

    @staticmethod
    def _kill_mid_ingest(tmp_path, kill_when) -> bool:
        """Start a 48-line ingest, ``kill_when(shard file, 48)``, SIGKILL
        shard 0's worker, and check the batch is all there or not at
        all.  The wide stripe routes every document to shard 0, so its
        line count is the whole batch or nothing.  A search cached
        before the crash is not served once the batch is there: the
        commit moved the file's version, acknowledged or not.  Returns
        whether the batch is there."""
        shard_dir = tmp_path / "shards"
        running = _start_workers(shard_dir, range_width=64, cache_size=16)
        try:
            corpus = make_ca(num_docs=12, lines_per_doc=4, seed=3)
            expected = sum(len(doc.lines) for doc in corpus.documents)
            query = {"pattern": "%Congress%", "num_ans": 100}
            assert post_json(running.base_url, "/search", query)[1]["count"] == 0
            assert post_json(running.base_url, "/search", query)[1]["cached"]
            victim = _worker_pid(running, 0)
            outcome: dict = {}

            def ingest() -> None:
                outcome["reply"] = post_json(
                    running.base_url, "/ingest", _batch_payload(corpus)
                )

            thread = threading.Thread(target=ingest)
            thread.start()
            kill_when(shard_path(str(shard_dir), 0), expected)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()
            status, reply = outcome["reply"]
            # Either the batch won the race (200) or the crash made the
            # outcome unknowable and the router refused to blind-retry
            # a possibly-committed batch (503).
            assert status in (200, 503), reply
            health = _await_healthy(running)
            assert health.get("status") == "ok", health
            lines = health["shard_lines"]["0"]
            assert lines in (0, expected), (status, lines, expected)
            if status == 200:
                assert lines == expected
            if lines == expected:
                status, after = post_json(running.base_url, "/search", query)
                assert status == 200 and not after["cached"], after
                batch = {doc.doc_id for doc in corpus.documents}
                found = {answer["doc_id"] for answer in after["answers"]}
                assert found and found <= batch
            return lines == expected
        finally:
            running.stop()

    def test_a_write_sent_while_the_worker_is_down_commits_once(
        self, tmp_path
    ):
        """The router holds each worker's listening socket across
        restarts.  An ``/ingest`` sent after a SIGKILL and before the
        respawn waits in the accept queue, and the next worker serves it
        exactly once, on the same port."""
        shard_dir = tmp_path / "shards"
        running = _start_workers(shard_dir, range_width=64)
        try:
            first = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            assert post_json(
                running.base_url, "/ingest", _batch_payload(first)
            )[0] == 200
            health = _await_healthy(running)
            port = health["workers"]["0"]["port"]
            before = health["shard_lines"]["0"]
            batch = _batch_payload(
                make_ca(num_docs=3, lines_per_doc=4, seed=2)
            )
            for doc in batch["documents"]:
                doc["doc_id"] += 20  # new documents, all owned by shard 0
            expected = sum(len(doc["lines"]) for doc in batch["documents"])
            # Hold the supervisor: the write must reach the socket while
            # no worker runs, and the respawn comes after it.
            workers = running.service._workers
            workers._stop.set()
            workers._supervisor.join(timeout=10)
            assert not workers._supervisor.is_alive()
            handle = workers.handle(0)
            victim = handle.pid
            os.kill(victim, signal.SIGKILL)
            handle.proc.wait(timeout=10)
            outcome: dict = {}

            def ingest() -> None:
                outcome["reply"] = post_json(
                    running.base_url, "/ingest", batch
                )

            thread = threading.Thread(target=ingest)
            thread.start()
            deadline = time.monotonic() + 10.0
            while not _accept_queue(port) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert thread.is_alive()  # no worker, so no answer yet
            handle.respawn()
            thread.join(timeout=120)
            assert not thread.is_alive()
            status, reply = outcome["reply"]
            assert status == 200, reply
            assert reply["ingested_lines"] == expected
            health = _await_healthy(running)
            assert health["shard_lines"]["0"] == before + expected
            stored = _stored_lines(shard_path(str(shard_dir), 0))
            assert stored == before + expected
            assert health["workers"]["0"]["pid"] != victim
            assert health["workers"]["0"]["port"] == port
        finally:
            running.stop()

    def test_sigstop_trips_the_deadline_with_trace_span(self, tmp_path):
        """A wedged (not dead) worker is the deadline's job: the router
        answers 503 ``deadline_exceeded`` with a matching trace span,
        while the supervisor correctly leaves the live process alone."""
        running = _start_workers(tmp_path / "shards", deadline_s=1.5)
        stopped = None
        try:
            corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
            status, _ = post_json(
                running.base_url, "/ingest", _batch_payload(corpus)
            )
            assert status == 200
            victim = _worker_pid(running, 0)
            os.kill(victim, signal.SIGSTOP)
            stopped = victim
            _await_stopped(victim)
            request = urllib.request.Request(
                running.base_url + "/search",
                data=json.dumps(
                    {"pattern": "%Congress%", "num_ans": 5}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            started = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=60)
            elapsed = time.monotonic() - started
            error = caught.value
            reply = json.loads(error.read())
            assert error.code == 503
            assert reply["error"]["code"] == "deadline_exceeded"
            # The deadline fired, not some much larger socket timeout.
            assert elapsed < 15.0, elapsed
            assert (
                running.service.metrics.event_count("deadline_exceeded") >= 1
            )
            # No respawn: a SIGSTOPped process is alive, just wedged.
            assert running.service._workers.handle(0).pid == victim
            trace_id = error.headers.get("X-Trace-Id")
            assert trace_id
            status, record = get_json(
                running.base_url, f"/traces/{trace_id}"
            )
            assert status == 200, record

            def span_names(node):
                yield node.get("name")
                for child in node.get("children", ()):
                    yield from span_names(child)

            assert "deadline_exceeded" in set(span_names(record["spans"]))
        finally:
            if stopped is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(stopped, signal.SIGCONT)
            running.stop()

    def test_sigterm_drains_inflight_requests_before_exit(self, tmp_path):
        """Graceful drain: a SIGTERMed worker finishes every in-flight
        request (its stop waits for them) before its process exits, so
        the client still gets its 200."""
        running = _start_workers(tmp_path / "shards", range_width=64)
        try:
            corpus = make_ca(num_docs=10, lines_per_doc=4, seed=5)
            expected = sum(len(doc.lines) for doc in corpus.documents)
            victim = _worker_pid(running, 0)
            outcome: dict = {}

            def ingest() -> None:
                outcome["reply"] = post_json(
                    running.base_url, "/ingest", _batch_payload(corpus)
                )

            thread = threading.Thread(target=ingest)
            thread.start()
            time.sleep(0.05)
            os.kill(victim, signal.SIGTERM)
            thread.join(timeout=120)
            assert not thread.is_alive()
            status, reply = outcome["reply"]
            assert status == 200, reply
            assert reply["ingested_lines"] == expected
            # The drained worker exited; the supervisor brings up a
            # fresh one serving the committed batch.
            health = _await_healthy(running)
            assert health.get("status") == "ok", health
            assert health["shard_lines"]["0"] == expected
        finally:
            running.stop()
