"""The metrics fold, pinned byte for byte.

A fixed sequence of observations -- every series family, errors, a
latency window overflowing its ring, labels that sort numerically and
need escaping, lifecycle events, engine counters and caller gauges --
goes through :class:`ServiceMetrics`.  ``snapshot()`` (as JSON, key order
included) and ``render_prometheus()`` must reproduce the literals below,
which were captured from the registry before its four per-family stores
became one labelled table, plus the ``lines_pruned`` engine counter added
since (its help text now names index candidates too).  Only ``uptime``
is masked.
"""

from __future__ import annotations

import json
import re

from repro import counters
from repro.service import ServiceMetrics

#: (family, labels, seconds, error), in observation order.
OBSERVATIONS = [
    ("requests", ("search",), 0.0004, False),
    ("requests", ("search",), 0.003, False),
    ("requests", ("search",), 0.030, True),
    ("requests", ("search",), 0.7, False),
    ("requests", ("search",), 12.0, False),
    ("requests", ("search",), 0.002, False),
    ("requests", ("sql",), 0.0125, True),
    ("shard_requests", (10, "search"), 0.004, False),
    ("shard_requests", (2, "search"), 0.0051, True),
    ("replica_attempts", (0, 1, "search"), 0.26, True),
    ("replica_attempts", (0, 0, "search"), 0.001, False),
    ("jobs", ('re"balance',), 2.5, False),
]

GAUGES = [
    (
        "scan_image_bytes",
        "Bytes of decoded, laid-out kernels retained for filescans.",
        [([("shard", 0), ("approach", "staccato")], 4096)],
    ),
    ("empty_gauge", "Skipped: no series.", []),
]


def _fed() -> ServiceMetrics:
    metrics = ServiceMetrics(window=4)
    for family, labels, seconds, error in OBSERVATIONS:
        metrics.observe(family, labels, seconds, error)
    metrics.event("worker_restart")
    metrics.event("hedged_request", 3)
    counters.reset_global()
    counters.add(dp_cells=123, lines_scanned=4)
    return metrics


def test_snapshot_is_byte_identical():
    snap = _fed().snapshot()
    assert snap["uptime_s"] >= 0.0
    snap["uptime_s"] = 0.0
    assert json.dumps(snap, indent=2) == SNAPSHOT


def test_prometheus_text_is_byte_identical():
    text = _fed().render_prometheus(gauges=GAUGES)
    masked = re.sub(r"(?m)^(staccato_uptime_seconds) \S+$", r"\1 0", text)
    assert masked == EXPOSITION


SNAPSHOT = """\
{
  "total": 7,
  "total_errors": 2,
  "uptime_s": 0.0,
  "endpoints": {
    "search": {
      "count": 6,
      "errors": 1,
      "latency_ms": {
        "mean": 3183.0,
        "p50": 30.0,
        "p90": 12000.0,
        "p95": 12000.0,
        "p99": 12000.0
      }
    },
    "sql": {
      "count": 1,
      "errors": 1,
      "latency_ms": {
        "mean": 12.5,
        "p50": 12.5,
        "p90": 12.5,
        "p95": 12.5,
        "p99": 12.5
      }
    }
  },
  "shards": {
    "2": {
      "search": {
        "count": 1,
        "errors": 1,
        "latency_ms": {
          "mean": 5.1000000000000005,
          "p50": 5.1000000000000005,
          "p90": 5.1000000000000005,
          "p95": 5.1000000000000005,
          "p99": 5.1000000000000005
        }
      }
    },
    "10": {
      "search": {
        "count": 1,
        "errors": 0,
        "latency_ms": {
          "mean": 4.0,
          "p50": 4.0,
          "p90": 4.0,
          "p95": 4.0,
          "p99": 4.0
        }
      }
    }
  },
  "replicas": {
    "0": {
      "0": {
        "search": {
          "count": 1,
          "errors": 0,
          "latency_ms": {
            "mean": 1.0,
            "p50": 1.0,
            "p90": 1.0,
            "p95": 1.0,
            "p99": 1.0
          }
        }
      },
      "1": {
        "search": {
          "count": 1,
          "errors": 1,
          "latency_ms": {
            "mean": 260.0,
            "p50": 260.0,
            "p90": 260.0,
            "p95": 260.0,
            "p99": 260.0
          }
        }
      }
    }
  },
  "jobs": {
    "re\\"balance": {
      "count": 1,
      "errors": 0,
      "latency_ms": {
        "mean": 2500.0,
        "p50": 2500.0,
        "p90": 2500.0,
        "p95": 2500.0,
        "p99": 2500.0
      }
    }
  },
  "events": {
    "hedged_request": 3,
    "worker_restart": 1
  },
  "engine": {
    "dp_cells": 123,
    "dp_transitions": 0,
    "lines_scanned": 4,
    "lines_matched": 0,
    "lines_pruned": 0,
    "postings_probed": 0,
    "index_candidates": 0,
    "plan_index": 0,
    "plan_scan": 0,
    "memo_hits": 0,
    "memo_misses": 0
  }
}"""

EXPOSITION = """\
# HELP staccato_requests_total Handled requests per endpoint.
# TYPE staccato_requests_total counter
staccato_requests_total{endpoint="search"} 6
staccato_requests_total{endpoint="sql"} 1
# HELP staccato_requests_errors_total Errors among requests.
# TYPE staccato_requests_errors_total counter
staccato_requests_errors_total{endpoint="search"} 1
staccato_requests_errors_total{endpoint="sql"} 1
# HELP staccato_requests_duration_ms Latency of requests (windowed: last 4 samples per series).
# TYPE staccato_requests_duration_ms histogram
staccato_requests_duration_ms_bucket{endpoint="search",le="1"} 0
staccato_requests_duration_ms_bucket{endpoint="search",le="2.5"} 1
staccato_requests_duration_ms_bucket{endpoint="search",le="5"} 1
staccato_requests_duration_ms_bucket{endpoint="search",le="10"} 1
staccato_requests_duration_ms_bucket{endpoint="search",le="25"} 1
staccato_requests_duration_ms_bucket{endpoint="search",le="50"} 2
staccato_requests_duration_ms_bucket{endpoint="search",le="100"} 2
staccato_requests_duration_ms_bucket{endpoint="search",le="250"} 2
staccato_requests_duration_ms_bucket{endpoint="search",le="500"} 2
staccato_requests_duration_ms_bucket{endpoint="search",le="1000"} 3
staccato_requests_duration_ms_bucket{endpoint="search",le="2500"} 3
staccato_requests_duration_ms_bucket{endpoint="search",le="5000"} 3
staccato_requests_duration_ms_bucket{endpoint="search",le="10000"} 3
staccato_requests_duration_ms_bucket{endpoint="search",le="+Inf"} 4
staccato_requests_duration_ms_sum{endpoint="search"} 12732.000000
staccato_requests_duration_ms_count{endpoint="search"} 4
staccato_requests_duration_ms_bucket{endpoint="sql",le="1"} 0
staccato_requests_duration_ms_bucket{endpoint="sql",le="2.5"} 0
staccato_requests_duration_ms_bucket{endpoint="sql",le="5"} 0
staccato_requests_duration_ms_bucket{endpoint="sql",le="10"} 0
staccato_requests_duration_ms_bucket{endpoint="sql",le="25"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="50"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="100"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="250"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="500"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="1000"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="2500"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="5000"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="10000"} 1
staccato_requests_duration_ms_bucket{endpoint="sql",le="+Inf"} 1
staccato_requests_duration_ms_sum{endpoint="sql"} 12.500000
staccato_requests_duration_ms_count{endpoint="sql"} 1
# HELP staccato_shard_requests_total Per-shard legs of fanned-out requests.
# TYPE staccato_shard_requests_total counter
staccato_shard_requests_total{shard="2",endpoint="search"} 1
staccato_shard_requests_total{shard="10",endpoint="search"} 1
# HELP staccato_shard_requests_errors_total Errors among shard_requests.
# TYPE staccato_shard_requests_errors_total counter
staccato_shard_requests_errors_total{shard="2",endpoint="search"} 1
staccato_shard_requests_errors_total{shard="10",endpoint="search"} 0
# HELP staccato_shard_requests_duration_ms Latency of shard_requests (windowed: last 4 samples per series).
# TYPE staccato_shard_requests_duration_ms histogram
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="1"} 0
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="2.5"} 0
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="5"} 0
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="10"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="25"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="50"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="100"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="250"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="500"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="1000"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="2500"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="5000"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="10000"} 1
staccato_shard_requests_duration_ms_bucket{shard="2",endpoint="search",le="+Inf"} 1
staccato_shard_requests_duration_ms_sum{shard="2",endpoint="search"} 5.100000
staccato_shard_requests_duration_ms_count{shard="2",endpoint="search"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="1"} 0
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="2.5"} 0
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="5"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="10"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="25"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="50"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="100"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="250"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="500"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="1000"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="2500"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="5000"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="10000"} 1
staccato_shard_requests_duration_ms_bucket{shard="10",endpoint="search",le="+Inf"} 1
staccato_shard_requests_duration_ms_sum{shard="10",endpoint="search"} 4.000000
staccato_shard_requests_duration_ms_count{shard="10",endpoint="search"} 1
# HELP staccato_replica_attempts_total Per-replica attempts (failover may retry).
# TYPE staccato_replica_attempts_total counter
staccato_replica_attempts_total{shard="0",replica="0",endpoint="search"} 1
staccato_replica_attempts_total{shard="0",replica="1",endpoint="search"} 1
# HELP staccato_replica_attempts_errors_total Errors among replica_attempts.
# TYPE staccato_replica_attempts_errors_total counter
staccato_replica_attempts_errors_total{shard="0",replica="0",endpoint="search"} 0
staccato_replica_attempts_errors_total{shard="0",replica="1",endpoint="search"} 1
# HELP staccato_replica_attempts_duration_ms Latency of replica_attempts (windowed: last 4 samples per series).
# TYPE staccato_replica_attempts_duration_ms histogram
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="1"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="2.5"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="5"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="10"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="25"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="50"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="100"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="250"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="500"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="1000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="2500"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="5000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="10000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="0",endpoint="search",le="+Inf"} 1
staccato_replica_attempts_duration_ms_sum{shard="0",replica="0",endpoint="search"} 1.000000
staccato_replica_attempts_duration_ms_count{shard="0",replica="0",endpoint="search"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="1"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="2.5"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="5"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="10"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="25"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="50"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="100"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="250"} 0
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="500"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="1000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="2500"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="5000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="10000"} 1
staccato_replica_attempts_duration_ms_bucket{shard="0",replica="1",endpoint="search",le="+Inf"} 1
staccato_replica_attempts_duration_ms_sum{shard="0",replica="1",endpoint="search"} 260.000000
staccato_replica_attempts_duration_ms_count{shard="0",replica="1",endpoint="search"} 1
# HELP staccato_jobs_total Background job runs per type.
# TYPE staccato_jobs_total counter
staccato_jobs_total{type="re\\"balance"} 1
# HELP staccato_jobs_errors_total Errors among jobs.
# TYPE staccato_jobs_errors_total counter
staccato_jobs_errors_total{type="re\\"balance"} 0
# HELP staccato_jobs_duration_ms Latency of jobs (windowed: last 4 samples per series).
# TYPE staccato_jobs_duration_ms histogram
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="1"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="2.5"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="5"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="10"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="25"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="50"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="100"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="250"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="500"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="1000"} 0
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="2500"} 1
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="5000"} 1
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="10000"} 1
staccato_jobs_duration_ms_bucket{type="re\\"balance",le="+Inf"} 1
staccato_jobs_duration_ms_sum{type="re\\"balance"} 2500.000000
staccato_jobs_duration_ms_count{type="re\\"balance"} 1
# HELP staccato_engine_dp_cells_total DP cells visited ((SFA node, DFA state) pairs relaxed).
# TYPE staccato_engine_dp_cells_total counter
staccato_engine_dp_cells_total 123
# HELP staccato_engine_dp_transitions_total Chunk/character transitions relaxed by the DP.
# TYPE staccato_engine_dp_transitions_total counter
staccato_engine_dp_transitions_total 0
# HELP staccato_engine_index_candidates_total Candidate lines produced by index probes.
# TYPE staccato_engine_index_candidates_total counter
staccato_engine_index_candidates_total 0
# HELP staccato_engine_lines_matched_total Lines whose match probability cleared the cutoff.
# TYPE staccato_engine_lines_matched_total counter
staccato_engine_lines_matched_total 0
# HELP staccato_engine_lines_pruned_total Lines or index candidates skipped: they cannot spell the pattern.
# TYPE staccato_engine_lines_pruned_total counter
staccato_engine_lines_pruned_total 0
# HELP staccato_engine_lines_scanned_total Lines whose representation was evaluated.
# TYPE staccato_engine_lines_scanned_total counter
staccato_engine_lines_scanned_total 4
# HELP staccato_engine_memo_hits_total Kernel evaluations served from the cross-request memo.
# TYPE staccato_engine_memo_hits_total counter
staccato_engine_memo_hits_total 0
# HELP staccato_engine_memo_misses_total Kernel evaluations the memo could not answer.
# TYPE staccato_engine_memo_misses_total counter
staccato_engine_memo_misses_total 0
# HELP staccato_engine_plan_index_total Planner decisions that chose the index probe.
# TYPE staccato_engine_plan_index_total counter
staccato_engine_plan_index_total 0
# HELP staccato_engine_plan_scan_total Planner decisions that chose the filescan.
# TYPE staccato_engine_plan_scan_total counter
staccato_engine_plan_scan_total 0
# HELP staccato_engine_postings_probed_total Dictionary-index posting entries materialized.
# TYPE staccato_engine_postings_probed_total counter
staccato_engine_postings_probed_total 0
# HELP staccato_events_total Lifecycle events (worker restarts, hedges, deadlines).
# TYPE staccato_events_total counter
staccato_events_total{event="hedged_request"} 3
staccato_events_total{event="worker_restart"} 1
# HELP staccato_scan_image_bytes Bytes of decoded, laid-out kernels retained for filescans.
# TYPE staccato_scan_image_bytes gauge
staccato_scan_image_bytes{shard="0",approach="staccato"} 4096
# HELP staccato_uptime_seconds Service uptime in seconds.
# TYPE staccato_uptime_seconds gauge
staccato_uptime_seconds 0
"""
