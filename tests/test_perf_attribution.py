"""Tests for the performance-attribution layer: engine work counters,
cross-process trace stitching, and the machine-readable bench history.

Unit tests cover the counter collector (context-local nesting, the
process-global fold, exact totals under concurrent writers), the history
schema, and every committed ``benchmarks/history/BENCH_*.json`` entry
against it.  The integration tests run live servers -- including the
subprocess-worker topology -- and assert the wire surface:
``staccato_engine_*`` counter families on ``GET /metrics``, per-shard
engine blocks on ``/stats``, strict ``GET /traces`` parameter
validation, and the acceptance criterion of this layer: one coherent
span tree across the router/worker process boundary.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from repro import counters
from repro.bench import history
from repro.bench.service_load import get_json, post_json
from repro.ocr.corpus import make_ca
from repro.service import (
    start_service,
    start_sharded_service,
)

from .test_observability import _batch_payload, _raw_get, _raw_post, find_spans

K, M = 4, 6


# ----------------------------------------------------------------------
# Engine counters: the collector primitives
# ----------------------------------------------------------------------
class TestCounterPrimitives:
    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            counters.add(not_a_counter=1)

    def test_add_outside_collect_goes_global(self):
        counters.reset_global()
        counters.add(dp_cells=3, lines_scanned=2)
        snap = counters.global_snapshot()
        assert snap["dp_cells"] == 3
        assert snap["lines_scanned"] == 2

    def test_collect_captures_locally_then_folds_global(self):
        counters.reset_global()
        with counters.collect() as outer:
            counters.add(dp_cells=5)
            with counters.collect() as inner:
                counters.add(dp_cells=2, postings_probed=1)
            # The inner collector saw only its own window...
            assert inner == {"dp_cells": 2, "postings_probed": 1}
        # ...and folded into the enclosing one on exit.
        assert outer == {"dp_cells": 7, "postings_probed": 1}
        # The whole tree folded into the process-global aggregate.
        snap = counters.global_snapshot()
        assert snap["dp_cells"] == 7
        assert snap["postings_probed"] == 1

    def test_evaluation_reports_dp_work(self):
        from repro.ocr.engine import SimulatedOcrEngine
        from repro.query.eval_sfa import match_probability
        from repro.query.like import compile_like

        sfa = SimulatedOcrEngine(seed=3).recognize_line(
            "Public Law 101", line_seed=(1, 1)
        )
        with counters.collect() as counts:
            match_probability(sfa, compile_like("%Law%"))
        assert counts["dp_cells"] > 0
        assert counts["dp_transitions"] > 0

    def test_concurrent_writers_exact_global_totals(self):
        counters.reset_global()
        per_thread, threads = 500, 8

        def write_loop() -> None:
            for _ in range(per_thread):
                counters.add(dp_cells=2, lines_scanned=1)

        workers = [
            threading.Thread(target=write_loop) for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snap = counters.global_snapshot()
        assert snap["dp_cells"] == 2 * per_thread * threads
        assert snap["lines_scanned"] == per_thread * threads


# ----------------------------------------------------------------------
# A live one-file server.  (The one-value ``thread`` parameter keeps
# the test ids the tier-1 floor tracks.)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["thread"])
def live(tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("perf") / "ca.db")
    running = start_service(db_path, k=K, m=M, pool_size=3, cache_size=64)
    corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
    status, _ = post_json(running.base_url, "/ingest", _batch_payload(corpus))
    assert status == 200
    yield running
    running.stop()


PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?[0-9.eE+Inf]+$"
)


def _engine_totals(text: str) -> dict[str, int]:
    return {
        name: int(value)
        for name, value in re.findall(
            r"^staccato_engine_(\w+)_total (\d+)$", text, flags=re.M
        )
    }


class TestEngineCountersOverHttp:
    def test_prometheus_engine_families_grammar(self, live):
        _raw_post(live.base_url, "/search", {"pattern": "%Law%"})
        status, headers, raw = _raw_get(live.base_url, "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert PROM_LINE.match(line), line
        totals = _engine_totals(text)
        # Every declared counter is exposed, HELP'd and TYPE'd.
        assert set(totals) == set(counters.COUNTER_NAMES)
        for name in counters.COUNTER_NAMES:
            assert f"# HELP staccato_engine_{name}_total " in text
            assert f"# TYPE staccato_engine_{name}_total counter" in text
        assert totals["dp_cells"] > 0
        assert totals["lines_scanned"] > 0

    def test_engine_counters_monotonic_across_scrapes(self, live):
        _, _, raw = _raw_get(live.base_url, "/metrics")
        before = _engine_totals(raw.decode("utf-8"))
        for index in range(3):
            # Distinct patterns so the result cache cannot absorb them.
            status, _, _ = _raw_post(
                live.base_url, "/search", {"pattern": f"%mono{index}%"}
            )
            assert status == 200
        _, _, raw = _raw_get(live.base_url, "/metrics")
        after = _engine_totals(raw.decode("utf-8"))
        assert all(after[name] >= before[name] for name in before)
        assert after["lines_scanned"] > before["lines_scanned"]
        assert after["dp_cells"] > before["dp_cells"]

    def test_stats_surfaces_engine_block(self, live):
        status, body = get_json(live.base_url, "/stats")
        assert status == 200
        engine = body["requests"]["engine"]
        assert set(engine) == set(counters.COUNTER_NAMES)
        assert engine["dp_cells"] >= 0

    def test_engine_scan_span_carries_counters(self, live):
        status, _, body = _raw_post(
            live.base_url,
            "/search",
            {"pattern": "%span counters%", "plan": "filescan", "trace": True},
        )
        assert status == 200
        scans = find_spans(body["trace"]["spans"], "engine_scan")
        assert scans
        attrs = scans[0]["attrs"]
        assert attrs["lines"] > 0
        assert attrs["counters"]["dp_cells"] > 0
        assert attrs["counters"]["lines_scanned"] == attrs["lines"]


# ----------------------------------------------------------------------
# GET /traces parameter validation (over the wire via the live fixture)
# ----------------------------------------------------------------------
class TestTracesValidation:
    @pytest.mark.parametrize(
        "params",
        [
            "limit=0",
            "limit=-1",
            "limit=1.5",
            "limit=abc",
            "min_ms=-1",
            "min_ms=abc",
            "min_ms=nan",
        ],
    )
    def test_bad_parameters_are_400(self, live, params):
        status, body = get_json(live.base_url, f"/traces?{params}")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_valid_parameters_still_serve(self, live):
        _raw_post(live.base_url, "/search", {"pattern": "%Law%"})
        status, body = get_json(live.base_url, "/traces?limit=1")
        assert status == 200 and len(body["traces"]) == 1
        status, body = get_json(live.base_url, "/traces?min_ms=1e12")
        assert status == 200 and body["count"] == 0


# ----------------------------------------------------------------------
# Cross-process trace stitching (the worker topology)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker_service(tmp_path_factory):
    shard_dir = str(tmp_path_factory.mktemp("stitch") / "shards")
    running = start_sharded_service(
        shard_dir,
        2,
        worker_procs=True,
        k=K,
        m=M,
        pool_size=2,
        cache_size=0,
        range_width=1,
        trace_ring=1,  # tiny router ring: lets tests force proxy lookups
    )
    corpus = make_ca(num_docs=4, lines_per_doc=3, seed=1)
    status, _ = post_json(running.base_url, "/ingest", _batch_payload(corpus))
    assert status == 200
    yield running
    running.stop()


def _remote_children(leg: dict) -> list[dict]:
    return [
        child
        for child in leg.get("children", ())
        if child.get("attrs", {}).get("remote") is True
    ]


def _router_legs(tree: dict) -> list[dict]:
    """The router's ``shard_leg`` spans: the direct children of its
    ``router`` span, one per fan-out leg."""
    router = find_spans(tree, "router")[0]
    return [c for c in router["children"] if c["name"] == "shard_leg"]


class TestCrossProcessStitching:
    def test_stitched_tree_spans_both_processes(self, worker_service):
        status, headers, body = _raw_post(
            worker_service.base_url,
            "/search",
            {"pattern": "%Congress%", "plan": "filescan", "trace": True},
        )
        assert status == 200
        tree = body["trace"]["spans"]
        assert body["trace"]["trace_id"] == headers["X-Trace-Id"]
        legs = _router_legs(tree)
        assert sorted(leg["attrs"]["shard"] for leg in legs) == [0, 1]
        for leg in legs:
            remotes = _remote_children(leg)
            assert remotes, f"shard {leg['attrs']['shard']} leg not stitched"
            (worker_root,) = remotes
            # The grafted subtree is the worker's own request root,
            # labelled with which worker it came from and which caller
            # span it hangs under.
            assert worker_root["name"] == "search"
            assert worker_root["attrs"]["worker"] == leg["attrs"]["shard"]
            assert worker_root["attrs"]["parent_span"]
            scans = find_spans(worker_root, "engine_scan")
            assert scans, "worker subtree lost its engine spans"
            attrs = scans[0]["attrs"]
            assert attrs["counters"]["lines_scanned"] == attrs["lines"]
            assert attrs["counters"]["dp_cells"] > 0

    def test_ring_record_is_stitched_too(self, worker_service):
        status, headers, _ = _raw_post(
            worker_service.base_url,
            "/search",
            {"pattern": "%ring stitched%", "plan": "filescan"},
        )
        assert status == 200
        status, record = get_json(
            worker_service.base_url, f"/traces/{headers['X-Trace-Id']}"
        )
        assert status == 200
        legs = _router_legs(record["spans"])
        assert legs and all(_remote_children(leg) for leg in legs)

    def test_worker_only_trace_is_proxied(self, worker_service):
        status, headers, _ = _raw_post(
            worker_service.base_url,
            "/search",
            {"pattern": "%proxy me%", "plan": "filescan"},
        )
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        # Evict it from the router's one-deep ring; the workers keep
        # their own records of the legs they served.
        status, _, _ = _raw_get(worker_service.base_url, "/health")
        assert status == 200
        status, record = get_json(
            worker_service.base_url, f"/traces/{trace_id}"
        )
        assert status == 200
        assert record["worker"] in (0, 1)
        assert record["trace_id"] == trace_id
        # The proxied record is the worker's own view of the leg it
        # served, whose root carries the router-side parent span id.
        assert record["spans"]["attrs"]["parent_span"]

    def test_unknown_trace_404_names_probed_workers(self, worker_service):
        status, body = get_json(
            worker_service.base_url, "/traces/ffffffffffffffff"
        )
        assert status == 404
        error = body["error"]
        assert error["code"] == "unknown_trace"
        assert "[0, 1]" in error["hint"]

    def test_router_stats_reindex_per_shard_engine_blocks(
        self, worker_service
    ):
        status, _, _ = _raw_post(
            worker_service.base_url,
            "/search",
            {"pattern": "%stats engines%", "plan": "filescan"},
        )
        assert status == 200
        status, body = get_json(worker_service.base_url, "/stats")
        assert status == 200
        shards = body["shards"]
        assert [entry["index"] for entry in shards] == [0, 1]
        for entry in shards:
            engine = entry["engine"]
            assert set(engine) == set(counters.COUNTER_NAMES)
            assert engine["lines_scanned"] > 0, entry["index"]
        # The router's own block exists too (its process-global view --
        # which in this test process includes earlier in-process work,
        # so only its shape is asserted).
        assert set(body["requests"]["engine"]) == set(counters.COUNTER_NAMES)

    def test_untraced_request_sends_no_worker_headers(self, worker_service):
        # A request with tracing off at the router (no root span on the
        # hop) must not make workers build/echo subtrees; the response
        # simply has no trace block.
        status, _, body = _raw_post(
            worker_service.base_url,
            "/search",
            {"pattern": "%no trace%", "plan": "filescan"},
        )
        assert status == 200
        assert "trace" not in body


# ----------------------------------------------------------------------
# Bench history
# ----------------------------------------------------------------------
HISTORY_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "history"


class TestBenchHistory:
    def test_record_run_schema_and_append(self, tmp_path):
        metrics = {"p50_ms": history.metric(12.5, "ms")}
        path = history.record_run(
            "demo", metrics, topology={"shards": 2}, history_dir=tmp_path,
            created_at="2026-08-08T00:00:00+00:00",
        )
        assert path == tmp_path / "BENCH_demo.json"
        history.record_run("demo", metrics, history_dir=tmp_path)
        entries = json.loads(path.read_text())
        assert len(entries) == 2
        entry = entries[0]
        assert entry["schema"] == history.SCHEMA_VERSION
        assert entry["name"] == "demo"
        assert entry["created_at"] == "2026-08-08T00:00:00+00:00"
        assert entry["topology"] == {"shards": 2}
        assert entry["metrics"]["p50_ms"] == {
            "value": 12.5, "unit": "ms", "direction": "lower_is_better"
        }
        assert isinstance(entry["git_rev"], str) and entry["git_rev"]

    def test_history_keeps_every_entry(self, tmp_path):
        # The committed history is evidence: nothing ages out of it.
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps([
            {"schema": 1, "name": "demo", "created_at": "t", "git_rev": "r",
             "topology": {}, "metrics": {"v": history.metric(index, "n")}}
            for index in range(200)
        ]))
        for index in range(200, 205):
            history.record_run(
                "demo", {"v": history.metric(index, "n")}, history_dir=tmp_path
            )
        entries = json.loads(path.read_text())
        assert [e["metrics"]["v"]["value"] for e in entries] == [
            float(index) for index in range(205)
        ]

    @pytest.mark.parametrize(
        "content", [b"{not json", b'{"an": "object"}', b"\xff\xfe", b""]
    )
    def test_unreadable_history_is_refused_untouched(self, tmp_path, content):
        path = tmp_path / "BENCH_demo.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="BENCH_demo.json"):
            history.record_run(
                "demo", {"v": history.metric(1, "n")}, history_dir=tmp_path
            )
        assert path.read_bytes() == content
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    def test_invalid_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            history.metric(1.0, "ms", direction="sideways")
        with pytest.raises(ValueError):
            history.record_run(
                "bad/name", {"v": history.metric(1, "n")}, history_dir=tmp_path
            )
        with pytest.raises(ValueError):
            history.record_run(
                "demo", {"v": {"value": 1}}, history_dir=tmp_path
            )
        with pytest.raises(ValueError):
            history.check_metrics(
                {"v": {"value": "1", "direction": "lower_is_better"}}
            )

    def test_committed_history_is_well_formed(self):
        files = sorted(HISTORY_DIR.glob("BENCH_*.json"))
        assert files, HISTORY_DIR
        for path in files:
            entries = json.loads(path.read_text(encoding="utf-8"))
            assert isinstance(entries, list) and entries, path.name
            name = path.stem.removeprefix("BENCH_")
            for index, entry in enumerate(entries):
                where = f"{path.name}[{index}]"
                assert entry["schema"] == history.SCHEMA_VERSION, where
                assert entry["name"] == name, where
                assert entry["metrics"], where
                try:
                    history.check_metrics(entry["metrics"])
                except ValueError as exc:
                    pytest.fail(f"{where}: {exc}")
