"""Tests for the observability layer: request tracing, the Prometheus
exposition of the metrics registry, and the slow-query / access logs.

Unit tests cover the span primitives of :mod:`repro.tracing` (context
propagation across executor hops included), the
:class:`~repro.service.trace.Tracer` lifecycle and its structured logs,
and :class:`ServiceMetrics` under concurrent writers.  The integration
tests run live servers over both front ends and assert the wire
surface: ``X-Trace-Id``, inline ``"trace": true`` echo, ``GET /traces``
filters, ``GET /metrics`` format -- and the acceptance span tree of a
replicated, sharded search with a forced failover.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import tracing
from repro.bench.service_load import get_json, post_json
from repro.ocr.corpus import make_ca
from repro.service import (
    ServiceMetrics,
    start_service,
    start_sharded_service,
)
from repro.service.trace import Tracer

K, M = 4, 6


def find_spans(tree: dict, name: str) -> list[dict]:
    """Every span named ``name`` in a JSON span tree, depth-first."""
    found = [tree] if tree["name"] == name else []
    for child in tree.get("children", ()):
        found.extend(find_spans(child, name))
    return found


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under a fresh request root, in a copied
    context so nothing stays installed -> ``(root, result)``."""
    context = contextvars.copy_context()
    root = context.run(Tracer().begin_request, "test", "TEST", "/")
    return root, context.run(fn, *args, **kwargs)


def _batch_payload(corpus) -> dict:
    return {
        "documents": [
            {"doc_id": doc.doc_id, "year": doc.year, "lines": list(doc.lines)}
            for doc in corpus.documents
        ],
        "ocr_seed": 0,
    }


# ----------------------------------------------------------------------
class TestSpanPrimitives:
    def test_span_is_noop_without_context(self):
        assert tracing.current_span() is None
        with tracing.span("anything") as node:
            assert node is None
        assert tracing.current_span() is None

    def test_span_tree_and_error_flag(self):
        def body():
            with tracing.span("ok") as ok:
                ok.annotate(detail=1)
            with pytest.raises(ValueError):
                with tracing.span("boom"):
                    raise ValueError("x")

        root, _ = traced(body)
        assert tracing.current_span() is None
        names = [child.name for child in root.children]
        assert names == ["ok", "boom"]
        assert root.children[0].attrs == {"detail": 1}
        assert not root.children[0].error
        assert root.children[1].error
        assert all(c.duration_s is not None for c in root.children)

    def test_copied_context_propagates_across_executor_threads(self):
        # The hop every fan-out point must handle: a pool thread runs
        # whatever context it last had; a copied context carries the
        # caller's span.
        def leg(index: int):
            with tracing.span("leg", index=index):
                return tracing.current_root()

        def fan_out() -> list:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, leg, index)
                    for index in range(8)
                ]
                return [future.result() for future in futures]

        root, results = traced(fan_out)
        assert results == [root] * 8
        assert len(root.children) == 8
        assert sorted(c.attrs["index"] for c in root.children) == list(range(8))

    def test_to_dict_offsets_relative_to_root(self):
        def body():
            with tracing.span("child"):
                pass

        root, _ = traced(body)
        root.finish()
        tree = root.to_dict()
        assert tree["start_ms"] == 0.0
        child = tree["children"][0]
        assert child["start_ms"] >= 0.0
        assert child["duration_ms"] <= tree["duration_ms"]


# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_begins_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin_request("search", "POST", "/search") is None
        assert tracer.records() == []

    def test_lifecycle_records_and_ring_bound(self):
        tracer = Tracer(ring=2)
        for index in range(3):
            root = tracer.begin_request("search", "POST", f"/search?{index}")
            assert tracing.current_root() is root
            tracer.finish_request(root, status=200)
            tracer.release(root)
            assert tracing.current_span() is None
        records = tracer.records()
        assert len(records) == 2  # oldest dropped
        assert records[-1]["path"] == "/search?2"
        assert records[-1]["status"] == 200
        assert tracer.get(records[-1]["trace_id"]) is records[-1]
        assert tracer.get("nope") is None

    def test_error_status_flags_record(self):
        tracer = Tracer()
        root = tracer.begin_request("search", "POST", "/search")
        tracer.finish_request(root, status=400)
        tracer.release(root)
        assert tracer.records()[-1]["error"] is True

    def test_client_trace_id_wins(self):
        tracer = Tracer()
        root = tracer.begin_request("search", "POST", "/search", "abc123")
        tracer.finish_request(root, status=200)
        tracer.release(root)
        assert tracer.records()[-1]["trace_id"] == "abc123"

    def test_tracing_off_is_one_contextvar_read(self):
        # The --no-trace fast path: begin_request returns None and the
        # span() instrumentation point reduces to a context-var read
        # that yields None -- no Span allocation anywhere.
        tracer = Tracer(enabled=False)
        assert tracer.begin_request("search", "POST", "/search") is None
        with tracing.span("anything") as node:
            assert node is None

    def test_slow_query_log_threshold(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        tracer = Tracer(slow_query_ms=10_000.0, slow_log_path=path)
        root = tracer.begin_request("search", "POST", "/search")
        tracer.finish_request(root, status=200)  # far under threshold
        tracer.release(root)
        tracer.slow_query_ms = 0.0  # everything is now slow
        root = tracer.begin_request("sql", "POST", "/sql")
        tracer.finish_request(root, status=200)
        tracer.release(root)
        tracer.close()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == 1
        entry = lines[0]
        assert entry["kind"] == "slow_query"
        assert entry["endpoint"] == "sql"
        assert entry["threshold_ms"] == 0.0
        assert entry["spans"]["name"] == "sql"

    def test_access_log_line_per_request(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tracer = Tracer(access_log_path=path)
        for endpoint in ("search", "sql"):
            root = tracer.begin_request(endpoint, "POST", f"/{endpoint}")
            tracer.finish_request(root, status=200)
            tracer.release(root)
        tracer.close()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert [line["endpoint"] for line in lines] == ["search", "sql"]
        assert all(line["kind"] == "access" for line in lines)
        assert all("duration_ms" in line for line in lines)


# ----------------------------------------------------------------------
class TestMetricsConcurrency:
    def test_concurrent_observers_exact_counts(self):
        # Many writer threads hammer every series family while a
        # reader snapshots and renders concurrently; at the end the
        # counters must be exact and no reader may have raised.
        metrics = ServiceMetrics()
        per_thread, threads = 200, 8
        stop = threading.Event()
        reader_errors: list[BaseException] = []

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    snap = metrics.snapshot()
                    assert "uptime_s" in snap
                    metrics.render_prometheus()
            except BaseException as exc:  # pragma: no cover - failure path
                reader_errors.append(exc)

        def write_loop() -> None:
            for index in range(per_thread):
                error = index % 10 == 0
                metrics.observe("requests", ("search",), 0.001, error)
                metrics.observe("shard_requests", (0, "search"), 0.001, error)
                metrics.observe(
                    "replica_attempts", (0, 1, "search"), 0.001, error
                )
                metrics.observe("jobs", ("rebalance",), 0.001, error)

        reader = threading.Thread(target=read_loop)
        reader.start()
        workers = [
            threading.Thread(target=write_loop) for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        reader.join()
        assert reader_errors == []
        snap = metrics.snapshot()
        total = per_thread * threads
        errors = threads * len(range(0, per_thread, 10))
        assert snap["endpoints"]["search"]["count"] == total
        assert snap["endpoints"]["search"]["errors"] == errors
        assert snap["shards"]["0"]["search"]["count"] == total
        assert snap["replicas"]["0"]["1"]["search"]["count"] == total
        assert snap["jobs"]["rebalance"]["count"] == total

    def test_snapshot_has_uptime_and_p95(self):
        metrics = ServiceMetrics()
        for millis in range(1, 101):
            metrics.observe("requests", ("search",), millis / 1000.0)
        snap = metrics.snapshot()
        assert snap["uptime_s"] >= 0.0
        block = snap["endpoints"]["search"]["latency_ms"]
        assert block["p95"] == pytest.approx(95.0, rel=0.02)
        assert block["p50"] <= block["p95"] <= block["p99"]


class TestPrometheusRender:
    LINE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
        r"[-+]?[0-9.eE+Inf]+$"
    )

    def test_text_format_and_histogram_invariants(self):
        metrics = ServiceMetrics()
        for millis in (0.5, 3.0, 30.0, 400.0):
            metrics.observe("requests", ("search",), millis / 1000.0)
        metrics.observe("requests", ("search",), 0.002, error=True)
        metrics.observe("shard_requests", (1, "search"), 0.004)
        text = metrics.render_prometheus()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert self.LINE.match(line), line
        # Counters by label.
        assert 'staccato_requests_total{endpoint="search"} 5' in text
        assert 'staccato_requests_errors_total{endpoint="search"} 1' in text
        # Histogram: cumulative buckets, +Inf equals _count.
        buckets = re.findall(
            r'staccato_requests_duration_ms_bucket\{endpoint="search",'
            r'le="([^"]+)"\} (\d+)',
            text,
        )
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1][0] == "+Inf" and counts[-1] == 5
        assert (
            'staccato_requests_duration_ms_count{endpoint="search"} 5' in text
        )
        assert "staccato_uptime_seconds" in text

    def test_label_escaping(self):
        assert ServiceMetrics._escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


# ----------------------------------------------------------------------
# A live server: the tracing surface over the wire.  (The one-value
# ``thread`` parameter keeps the test ids the tier-1 floor tracks.)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["thread"])
def live(tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("obs") / "ca.db")
    running = start_service(db_path, k=K, m=M, pool_size=3, cache_size=64)
    corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
    status, _ = post_json(running.base_url, "/ingest", _batch_payload(corpus))
    assert status == 200
    yield running
    running.stop()


def _raw_get(base_url: str, path: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(base_url + path, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _raw_post(
    base_url: str, path: str, payload: dict
) -> tuple[int, dict, dict]:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestTracingOverHttp:
    def test_trace_id_header_on_every_response(self, live):
        status, headers, _ = _raw_post(
            live.base_url, "/search", {"pattern": "%Law%"}
        )
        assert status == 200
        assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Trace-Id"])

    def test_client_supplied_trace_id_round_trips(self, live):
        request = urllib.request.Request(
            live.base_url + "/search",
            data=json.dumps({"pattern": "%Law%"}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": "feedfacefeedface",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Trace-Id"] == "feedfacefeedface"
        status, record = get_json(live.base_url, "/traces/feedfacefeedface")
        assert status == 200 and record["endpoint"] == "search"

    def test_inline_trace_echo_has_expected_spans(self, live):
        status, headers, body = _raw_post(
            live.base_url,
            "/search",
            {"pattern": "%Congress%", "plan": "filescan", "trace": True},
        )
        assert status == 200
        echoed = body["trace"]
        assert echoed["trace_id"] == headers["X-Trace-Id"]
        tree = echoed["spans"]
        assert tree["name"] == "search"
        assert tree["attrs"]["method"] == "POST"
        for name in ("read_body", "handler"):
            assert find_spans(tree, name), name
        handler = find_spans(tree, "handler")[0]
        child_names = [c["name"] for c in handler.get("children", ())]
        assert "validate" in child_names
        assert "cache_probe" in child_names
        plans = find_spans(tree, "plan")
        assert plans and plans[0]["attrs"]["plan"] == "filescan"
        assert find_spans(tree, "engine_scan")
        if live.server.__class__.__name__ == "AsyncHTTPServer":
            assert find_spans(tree, "queue_wait")

    def test_cached_result_not_polluted_by_trace_echo(self, live):
        body = {"pattern": "%employment%", "num_ans": 5}
        _raw_post(live.base_url, "/search", body)  # prime the cache
        status, _, traced = _raw_post(
            live.base_url, "/search", {**body, "trace": True}
        )
        assert status == 200 and "trace" in traced
        status, _, untraced = _raw_post(live.base_url, "/search", body)
        assert status == 200 and "trace" not in untraced

    def test_traces_list_filters(self, live):
        _raw_post(live.base_url, "/search", {"pattern": "%Law%"})
        _raw_post(live.base_url, "/search", {"pattern": 123})  # 400
        status, body = get_json(live.base_url, "/traces?endpoint=search")
        assert status == 200 and body["count"] >= 2
        assert all(t["endpoint"] == "search" for t in body["traces"])
        assert all("spans" not in t for t in body["traces"])
        status, body = get_json(
            live.base_url, "/traces?endpoint=search&error=true"
        )
        assert status == 200
        assert body["traces"] and all(t["error"] for t in body["traces"])
        status, body = get_json(live.base_url, "/traces?limit=1")
        assert status == 200 and len(body["traces"]) == 1
        status, body = get_json(live.base_url, "/traces?min_ms=1e12")
        assert status == 200 and body["count"] == 0
        status, body = get_json(live.base_url, "/traces?error=maybe")
        assert status == 400 and body["error"]["code"] == "bad_request"

    def test_traces_get_full_tree_and_404(self, live):
        status, headers, _ = _raw_post(
            live.base_url, "/search", {"pattern": "%Law%"}
        )
        trace_id = headers["X-Trace-Id"]
        status, record = get_json(live.base_url, f"/traces/{trace_id}")
        assert status == 200
        assert record["spans"]["name"] == "search"
        # The ring record is written after serialization, so the tree
        # includes the serialize leg the inline echo cannot see.
        assert find_spans(record["spans"], "serialize")
        status, body = get_json(live.base_url, "/traces/ffffffffffffffff")
        assert status == 404 and body["error"]["code"] == "unknown_trace"

    def test_metrics_prometheus_exposition(self, live):
        _raw_post(live.base_url, "/search", {"pattern": "%Law%"})
        status, headers, raw = _raw_get(live.base_url, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = raw.decode("utf-8")
        assert 'staccato_requests_total{endpoint="search"}' in text
        assert "staccato_requests_duration_ms_bucket" in text
        assert "staccato_uptime_seconds" in text
        # Scrapes must not trace themselves into the ring.
        status, body = get_json(live.base_url, "/traces?endpoint=metrics_text")
        assert status == 200 and body["count"] == 0

    def test_profile_route_is_gone(self, live):
        # The service has no in-process profiler: /profile is an
        # ordinary unknown path, and a "profile" flag is not echoed.
        status, body = get_json(live.base_url, "/profile")
        assert status == 404 and body["error"]["code"] == "not_found"
        status, _, body = _raw_post(
            live.base_url, "/search", {"pattern": "%Law%", "profile": True}
        )
        assert status == 200 and "profile" not in body

    def test_job_runs_get_their_own_trace(self, live):
        status, _ = post_json(
            live.base_url,
            "/jobs",
            {"type": "rebuild_index", "params": {"terms": ["law"]}, "wait": True},
        )
        assert status == 200
        status, body = get_json(
            live.base_url, "/traces?endpoint=job:rebuild_index"
        )
        assert status == 200 and body["count"] >= 1
        assert body["traces"][0]["method"] == "JOB"


class TestTracingDisabled:
    def test_no_trace_service_serves_untraced(self, tmp_path):
        running = start_service(
            str(tmp_path / "ca.db"), k=K, m=M, trace_enabled=False
        )
        try:
            corpus = make_ca(num_docs=1, lines_per_doc=2, seed=1)
            post_json(running.base_url, "/ingest", _batch_payload(corpus))
            status, headers, body = _raw_post(
                running.base_url,
                "/search",
                {"pattern": "%Law%", "trace": True},
            )
            assert status == 200
            assert "X-Trace-Id" not in headers
            assert "trace" not in body
            status, body = get_json(running.base_url, "/traces")
            assert status == 200
            assert body["enabled"] is False and body["count"] == 0
        finally:
            running.stop()


# ----------------------------------------------------------------------
# The acceptance tree: sharded + replicated search with a forced
# failover must show the router, both shard legs, the failed attempt
# and its retry, and the engine scans -- with the root's time accounted
# for by its children.
# ----------------------------------------------------------------------
class TestShardedAcceptanceTrace:
    def test_failover_span_tree(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        running = start_sharded_service(
            shard_dir,
            2,
            k=K,
            m=M,
            replicas=2,
            range_width=1,
            cache_size=0,
        )
        try:
            corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
            status, _ = post_json(
                running.base_url, "/ingest", _batch_payload(corpus)
            )
            assert status == 200
            # Kill shard 0's primary: the first read attempt on it must
            # fail over to replica 1, visibly, inside the same leg.
            os.remove(os.path.join(shard_dir, "shard-0000.db"))
            status, headers, body = _raw_post(
                running.base_url,
                "/search",
                {"pattern": "%Congress%", "plan": "filescan", "trace": True},
            )
            assert status == 200
            status, record = get_json(
                running.base_url, f"/traces/{headers['X-Trace-Id']}"
            )
            assert status == 200
            tree = record["spans"]

            routers = find_spans(tree, "router")
            assert len(routers) == 1
            legs = find_spans(tree, "shard_leg")
            assert sorted(leg["attrs"]["shard"] for leg in legs) == [0, 1]
            leg0 = next(l for l in legs if l["attrs"]["shard"] == 0)
            attempts0 = find_spans(leg0, "replica_attempt")
            assert len(attempts0) >= 2  # the failure plus its retry
            failed = [a for a in attempts0 if a.get("error")]
            assert failed and failed[0]["attrs"]["failure"] == "missing_file"
            assert any(not a.get("error") for a in attempts0)
            assert all("breaker" in a["attrs"] for a in attempts0)
            assert find_spans(tree, "engine_scan")
            assert find_spans(tree, "merge")

            # >= 90% of the root's duration is explained by its
            # (sequential) direct children.
            child_ms = sum(c["duration_ms"] for c in tree["children"])
            assert child_ms >= 0.9 * tree["duration_ms"]
        finally:
            running.stop()
