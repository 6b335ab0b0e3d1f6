"""BENCH: the serving path under injected faults.

Not a paper figure.  Serving speed is measured by ``benchmarks/e2e/``
(paired runs, medians in ``benchmarks/history/BENCH_e2e.json``); these
two benches gate on availability, with the req/s and latency of each
window printed beside the verdict.  The corpus is small so the runs
stay cheap.

The failover bench: 2 shards x 2 replicas, one replica file deleted
while the load is running; the bar is zero client-visible errors in
every window.

The rebalance bench: a background ``rebalance`` job moves a DocId
range between two live shards while the load runs; the bar is zero
client-visible errors in every window *and* merged ranked answers
byte-identical before/after the move.
"""

from __future__ import annotations

import pytest

from repro.bench.service_load import run_failover_demo, run_rebalance_demo

WINDOW_HEADERS = ["phase", "req/s", "p50 ms", "p95 ms", "p99 ms", "errors"]


def window_rows(demo) -> list[list]:
    """One table row per load window of a fault-injection run."""
    return [
        [
            phase,
            f"{result.throughput_rps:.1f}",
            f"{result.latency_p50_ms:.1f}",
            f"{result.latency_p95_ms:.1f}",
            f"{result.latency_p99_ms:.1f}",
            result.errors,
        ]
        for phase, result in [
            ("before", demo.before),
            ("during", demo.during),
            ("after", demo.after),
        ]
    ]


def test_failover_kill_replica_mid_load(report):
    demo = run_failover_demo(
        num_shards=2,
        replicas=2,
        docs=4,
        lines=3,
        concurrency=8,
        repeats=12,
        k=4,
        m=6,
        kill_after_s=0.05,  # well inside the during window
    )
    report.table(
        "Service failover 2 shards x2 replicas kill one mid-load",
        WINDOW_HEADERS,
        window_rows(demo),
    )
    assert demo.zero_downtime, (demo.before, demo.during, demo.after)
    # The killed copy (shard 0's) really left the rotation...
    assert (
        demo.healthy_during["0"]["healthy"]
        < demo.healthy_during["0"]["attached"]
    )
    # ...and detach + re-attach restored full strength.
    assert all(
        census["healthy"] == census["attached"]
        for census in demo.healthy_after.values()
    )


@pytest.mark.slow
def test_rebalance_under_load(report):
    # The full-leg acceptance bar of the rebalance job: a DocId range
    # moves between two live shards mid-load with zero client-visible
    # errors, and the merged ranked answers are byte-identical before
    # vs after the move on the placement-independent projection.
    demo = run_rebalance_demo(
        num_shards=2,
        docs=6,
        lines=3,
        concurrency=8,
        repeats=10,
        k=4,
        m=6,
    )
    report.table(
        "Service rebalance move a DocId range between shards mid-load",
        WINDOW_HEADERS,
        window_rows(demo),
    )
    assert demo.job_state == "succeeded"
    assert demo.moved_docs > 0 and demo.moved_lines > 0
    assert demo.zero_downtime, (demo.before, demo.during, demo.after)
    assert demo.answers_identical
    # The whole stripe really changed hands.
    assert demo.lines_after["0"] == 0
    assert demo.lines_after["1"] == demo.corpus_lines
