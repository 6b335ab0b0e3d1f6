"""Concurrent load driver for the query service (serving throughput).

The other bench modules measure in-process query evaluation; this one
measures the *serving* path end to end -- JSON framing, HTTP, the
connection pool and the result cache -- by firing concurrent requests
at a running service from a thread pool, stdlib-only (``urllib``).

Typical use (a BENCH run or :mod:`tests.test_service`)::

    from repro.service import start_service
    from repro.bench.service_load import run_search_load

    running = start_service("/tmp/ca.db")
    result = run_search_load(
        running.base_url, ["%President%", "%Public Law%"],
        concurrency=8, repeats=25,
    )
    print(result.summary())

Because the service caches repeated queries, ``repeats > 1`` measures
the cache-hit fast path; pass distinct patterns (or ``repeats=1``) to
measure cold evaluation throughput.

The module also has a *sharded mode*: :func:`run_sharded_comparison`
seeds the same corpus into a single-database service and an N-shard
service, drives both with the same load, and reports the two
throughput/latency profiles side by side.  ``python -m
repro.bench.service_load`` runs it from the command line and prints the
report (``--out PATH`` also writes it to a file).

A third *failover mode* (``--mode failover``,
:func:`run_failover_demo`) measures the availability story: it starts a
sharded service with ``--replicas`` read copies per shard, deletes one
replica file **while a load is running**, and reports the
before/during/after throughput -- the during window must finish with
zero client-visible errors (every request that hit the dead replica is
retried transparently on a sibling), and the after window runs with
the replica detached and a fresh copy re-attached via ``POST
/replicas``.

A fourth *rebalance mode* (``--mode rebalance``,
:func:`run_rebalance_demo`) measures online shard maintenance: it
submits a ``rebalance`` background job (``POST /jobs``) that moves a
DocId range from one live shard to another **while a search load is
running**, then verifies the acceptance bar -- zero client-visible
errors in every window and merged ranked answers byte-identical before
vs after the move (compared on the placement-independent projection
``(doc_id, line_no, probability)``; line ids are shard-local and the
answers' shard tags legitimately change hands).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..service.metrics import percentile
from . import history

__all__ = [
    "LoadResult",
    "ShardedComparison",
    "FailoverDemo",
    "RebalanceDemo",
    "post_json",
    "get_json",
    "run_search_load",
    "run_sharded_comparison",
    "run_failover_demo",
    "run_rebalance_demo",
    "main",
]

DEFAULT_TIMEOUT = 60.0

DEFAULT_PATTERNS = ["%Congress%", "%Law%", "%President%", "%employment%"]


def post_json(
    base_url: str, path: str, payload: dict, timeout: float = DEFAULT_TIMEOUT
) -> tuple[int, dict]:
    """POST a JSON body; returns ``(status, decoded body)`` even on 4xx."""
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get_json(
    base_url: str, path: str, timeout: float = DEFAULT_TIMEOUT
) -> tuple[int, dict]:
    """GET an endpoint; returns ``(status, decoded body)`` even on 4xx."""
    try:
        with urllib.request.urlopen(base_url + path, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@dataclass(frozen=True, slots=True)
class LoadResult:
    """One load run's aggregate measurements."""

    requests: int
    errors: int
    elapsed_s: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    #: Mean milliseconds per span name across the traced sample of this
    #: load (``trace_sample > 0``), or None when nothing was traced.
    span_breakdown: dict[str, float] | None = None

    def summary(self) -> str:
        text = (
            f"{self.requests} requests ({self.errors} errors) in "
            f"{self.elapsed_s:.2f}s = {self.throughput_rps:.1f} req/s; "
            f"latency p50={self.latency_p50_ms:.1f}ms "
            f"p95={self.latency_p95_ms:.1f}ms "
            f"p99={self.latency_p99_ms:.1f}ms"
        )
        if self.span_breakdown:
            spans = ", ".join(
                f"{name}={millis:.2f}ms"
                for name, millis in sorted(
                    self.span_breakdown.items(),
                    key=lambda item: item[1],
                    reverse=True,
                )
            )
            text += f"; span means: {spans}"
        return text


def _accumulate_span_times(tree: dict, acc: dict[str, float]) -> None:
    """Sum each span name's total milliseconds within one trace tree."""
    acc[tree["name"]] = acc.get(tree["name"], 0.0) + tree["duration_ms"]
    for child in tree.get("children", ()):
        _accumulate_span_times(child, acc)


def run_search_load(
    base_url: str,
    patterns: list[str],
    approach: str = "staccato",
    plan: str = "filescan",
    num_ans: int = 10,
    concurrency: int = 8,
    repeats: int = 5,
    timeout: float = DEFAULT_TIMEOUT,
    trace_sample: int = 0,
) -> LoadResult:
    """Fire ``len(patterns) * repeats`` concurrent ``/search`` requests.

    ``trace_sample=N`` adds ``"trace": true`` to every Nth request; the
    echoed span trees are aggregated into
    :attr:`LoadResult.span_breakdown` (mean milliseconds per span name
    across the traced sample), attributing where the serving time went
    without tracing -- or paying for -- the whole load.
    """
    bodies = [
        {
            "pattern": pattern,
            "approach": approach,
            "plan": plan,
            "num_ans": num_ans,
        }
        for _ in range(repeats)
        for pattern in patterns
    ]
    if trace_sample > 0:
        for index in range(0, len(bodies), trace_sample):
            bodies[index] = {**bodies[index], "trace": True}

    def one(body: dict) -> tuple[float, bool, dict | None]:
        started = time.perf_counter()
        tree = None
        try:
            status, reply = post_json(
                base_url, "/search", body, timeout=timeout
            )
            failed = status != 200
            if not failed and isinstance(reply, dict):
                tree = (reply.get("trace") or {}).get("spans")
        except (urllib.error.URLError, OSError, json.JSONDecodeError):
            failed = True
        return time.perf_counter() - started, failed, tree

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(one, bodies))
    elapsed = time.perf_counter() - started
    latencies = [seconds * 1000.0 for seconds, _, _ in outcomes]
    errors = sum(1 for _, failed, _ in outcomes if failed)
    trees = [tree for _, _, tree in outcomes if tree]
    breakdown: dict[str, float] | None = None
    if trees:
        totals: dict[str, float] = {}
        for tree in trees:
            _accumulate_span_times(tree, totals)
        breakdown = {
            name: total / len(trees) for name, total in totals.items()
        }
    return LoadResult(
        requests=len(bodies),
        errors=errors,
        elapsed_s=elapsed,
        throughput_rps=len(bodies) / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=percentile(latencies, 50),
        latency_p95_ms=percentile(latencies, 95),
        latency_p99_ms=percentile(latencies, 99),
        span_breakdown=breakdown,
    )


# ----------------------------------------------------------------------
# Sharded mode: the same corpus and load against one database vs N
# shards, so the fan-out/merge overhead and the scan parallelism are
# visible in one report.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardedComparison:
    """Single-database vs sharded profiles of one identical load.

    ``workers`` is the optional third leg: the same N shards, but each
    owned by a worker *subprocess* behind the fan-out router
    (:mod:`repro.service.workers`), so shard scans escape the router's
    GIL instead of time-slicing inside one process.
    """

    num_shards: int
    corpus_lines: int
    single: LoadResult
    sharded: LoadResult
    workers: LoadResult | None = None

    def report(self) -> str:
        """A small fixed-width table, one row per serving topology."""
        headers = ["topology", "req/s", "p50 ms", "p95 ms", "p99 ms", "errors"]
        rows = [
            ["single-db", self.single], [f"{self.num_shards}-shard", self.sharded]
        ]
        if self.workers is not None:
            rows.append([f"{self.num_shards}-worker", self.workers])
        lines = ["  ".join(f"{h:>10s}" for h in headers)]
        for name, result in rows:
            lines.append(
                "  ".join(
                    f"{cell:>10}"
                    for cell in (
                        name,
                        f"{result.throughput_rps:.1f}",
                        f"{result.latency_p50_ms:.1f}",
                        f"{result.latency_p95_ms:.1f}",
                        f"{result.latency_p99_ms:.1f}",
                        str(result.errors),
                    )
                )
            )
        for name, result in rows:
            if result.span_breakdown:
                spans = ", ".join(
                    f"{span}={millis:.2f}ms"
                    for span, millis in sorted(
                        result.span_breakdown.items(),
                        key=lambda item: item[1],
                        reverse=True,
                    )
                )
                lines.append(f"{name} span means (traced sample): {spans}")
        return "\n".join(lines)


def _ingest_over_http(base_url: str, corpus) -> None:
    batch = {
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
    status, reply = post_json(base_url, "/ingest", batch)
    if status != 200:
        raise RuntimeError(f"seeding ingest failed: {reply}")


def run_sharded_comparison(
    num_shards: int = 2,
    docs: int = 4,
    lines: int = 3,
    patterns: Sequence[str] = tuple(DEFAULT_PATTERNS),
    approach: str = "staccato",
    concurrency: int = 8,
    repeats: int = 5,
    num_ans: int = 10,
    k: int = 4,
    m: int = 6,
    range_width: int = 1,
    trace_sample: int = 0,
    worker_procs: bool = False,
) -> ShardedComparison:
    """Seed and drive a single-db and an N-shard service identically.

    ``range_width=1`` stripes the corpus's consecutive DocIds across
    every shard, so the sharded topology really measures partitioned
    data (the library default of 64 would park a small corpus entirely
    on shard 0).  ``trace_sample=N`` traces every Nth request and adds
    the mean per-span breakdown to the report.  ``worker_procs=True``
    adds a third leg: the same N shards each promoted to a worker
    subprocess behind the fan-out router.
    """
    from ..ocr.corpus import make_ca
    from ..service import start_service, start_sharded_service

    corpus = make_ca(num_docs=docs, lines_per_doc=lines, seed=1)
    load_kwargs = dict(
        approach=approach,
        num_ans=num_ans,
        concurrency=concurrency,
        repeats=repeats,
        trace_sample=trace_sample,
    )

    def measure(running) -> LoadResult:
        try:
            _ingest_over_http(running.base_url, corpus)
            return run_search_load(
                running.base_url, list(patterns), **load_kwargs
            )
        finally:
            running.stop()

    def sharded_topology(name: str, in_worker_procs: bool) -> LoadResult:
        return measure(
            start_sharded_service(
                f"{tmp}/{name}",
                num_shards,
                k=k,
                m=m,
                pool_size=2,
                range_width=range_width,
                worker_procs=in_worker_procs,
            )
        )

    with tempfile.TemporaryDirectory() as tmp:
        single_result = measure(
            start_service(f"{tmp}/single.db", k=k, m=m, pool_size=4)
        )
        sharded_result = sharded_topology("shards", False)
        workers_result = (
            sharded_topology("workers", True) if worker_procs else None
        )
    return ShardedComparison(
        num_shards=num_shards,
        corpus_lines=corpus.num_lines,
        single=single_result,
        sharded=sharded_result,
        workers=workers_result,
    )


# ----------------------------------------------------------------------
# Failover mode: kill one replica file mid-load and measure the three
# windows (healthy, degraded, re-attached).
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FailoverDemo:
    """One kill-a-replica run: the three load windows plus what died."""

    num_shards: int
    replicas: int
    corpus_lines: int
    killed_path: str
    before: LoadResult
    during: LoadResult
    after: LoadResult
    healthy_during: dict[str, dict[str, int]]
    healthy_after: dict[str, dict[str, int]]

    @property
    def zero_downtime(self) -> bool:
        """No client-visible error in any window (the acceptance bar)."""
        return (
            self.before.errors == 0
            and self.during.errors == 0
            and self.after.errors == 0
        )

    def report(self) -> str:
        headers = ["phase", "req/s", "p50 ms", "p95 ms", "p99 ms", "errors"]
        rows = [
            ("before", self.before),
            ("during", self.during),
            ("after", self.after),
        ]
        lines = ["  ".join(f"{h:>10s}" for h in headers)]
        for name, result in rows:
            lines.append(
                "  ".join(
                    f"{cell:>10}"
                    for cell in (
                        name,
                        f"{result.throughput_rps:.1f}",
                        f"{result.latency_p50_ms:.1f}",
                        f"{result.latency_p95_ms:.1f}",
                        f"{result.latency_p99_ms:.1f}",
                        str(result.errors),
                    )
                )
            )
        lines.append("")
        lines.append(
            f"killed mid-run (during): {pathlib.Path(self.killed_path).name}"
        )
        lines.append(
            "healthy replicas during failure: "
            + ", ".join(
                f"shard {s}: {h['healthy']}/{h['attached']}"
                for s, h in sorted(self.healthy_during.items())
            )
        )
        lines.append(
            "after detach + re-attach: "
            + ", ".join(
                f"shard {s}: {h['healthy']}/{h['attached']}"
                for s, h in sorted(self.healthy_after.items())
            )
        )
        lines.append(
            f"zero client-visible errors across all windows: "
            f"{self.zero_downtime}"
        )
        return "\n".join(lines)


def run_failover_demo(
    num_shards: int = 2,
    replicas: int = 2,
    docs: int = 4,
    lines: int = 3,
    patterns: Sequence[str] = tuple(DEFAULT_PATTERNS),
    approach: str = "staccato",
    concurrency: int = 8,
    repeats: int = 5,
    num_ans: int = 10,
    k: int = 4,
    m: int = 6,
    range_width: int = 1,
    kill_shard: int = 0,
    kill_after_s: float = 0.2,
    cooldown_s: float = 0.25,
) -> FailoverDemo:
    """Delete one replica file under load; measure the three windows.

    The service runs with the result cache disabled so every request
    really reads a replica -- otherwise the during-window would be
    served from memory and never exercise the failover path.  The kill
    happens from a timer thread ``kill_after_s`` into the during
    window; afterwards the dead replica is detached and a fresh copy
    attached over ``POST /replicas``, so the after window runs at full
    strength again.
    """
    import os
    import threading

    from ..ocr.corpus import make_ca
    from ..service import start_sharded_service

    corpus = make_ca(num_docs=docs, lines_per_doc=lines, seed=1)
    load_kwargs = dict(
        approach=approach,
        num_ans=num_ans,
        concurrency=concurrency,
        repeats=repeats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        running = start_sharded_service(
            f"{tmp}/shards",
            num_shards,
            k=k,
            m=m,
            pool_size=2,
            cache_size=0,
            range_width=range_width,
            replicas=replicas,
            replica_cooldown_s=cooldown_s,
        )
        try:
            _ingest_over_http(running.base_url, corpus)
            victim = running.service.pool.shard(kill_shard).replicas.replicas()[-1]
            before = run_search_load(
                running.base_url, list(patterns), **load_kwargs
            )

            def kill() -> None:
                for path in (
                    victim.path,
                    f"{victim.path}-wal",
                    f"{victim.path}-shm",
                ):
                    if os.path.exists(path):
                        os.remove(path)

            timer = threading.Timer(kill_after_s, kill)
            timer.start()
            try:
                during = run_search_load(
                    running.base_url, list(patterns), **load_kwargs
                )
            finally:
                timer.cancel()
                kill()  # ensure the file is gone even on a fast window
            # Let the read rotation observe the missing file (the cache
            # is off, so each request really touches a replica): after
            # one pass over every replica the breaker must be open.
            for _ in range(2 * replicas * num_shards):
                post_json(
                    running.base_url,
                    "/search",
                    {"pattern": list(patterns)[0], "num_ans": 1},
                )
            _, health = get_json(running.base_url, "/health")
            healthy_during = health["replicas"]
            status, _ = post_json(
                running.base_url,
                "/replicas",
                {
                    "action": "detach",
                    "shard": kill_shard,
                    "replica": victim.replica_index,
                },
            )
            if status != 200:
                raise RuntimeError(f"detach failed with HTTP {status}")
            status, _ = post_json(
                running.base_url, "/replicas", {"action": "attach", "shard": kill_shard}
            )
            if status != 200:
                raise RuntimeError(f"attach failed with HTTP {status}")
            after = run_search_load(
                running.base_url, list(patterns), **load_kwargs
            )
            _, health = get_json(running.base_url, "/health")
            healthy_after = health["replicas"]
        finally:
            running.stop()
    return FailoverDemo(
        num_shards=num_shards,
        replicas=replicas,
        corpus_lines=corpus.num_lines,
        killed_path=victim.path,
        before=before,
        during=during,
        after=after,
        healthy_during=healthy_during,
        healthy_after=healthy_after,
    )


# ----------------------------------------------------------------------
# Rebalance mode: move a DocId range between two live shards while a
# search load runs; answers must come back identical and error-free.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RebalanceDemo:
    """One rebalance-under-load run and its acceptance evidence."""

    num_shards: int
    corpus_lines: int
    doc_lo: int
    doc_hi: int
    source: int
    target: int
    moved_docs: int
    moved_lines: int
    job_state: str
    before: LoadResult
    during: LoadResult
    after: LoadResult
    answers_identical: bool
    lines_before: dict[str, int]
    lines_after: dict[str, int]

    @property
    def zero_downtime(self) -> bool:
        """No client-visible error in any window (the acceptance bar)."""
        return (
            self.before.errors == 0
            and self.during.errors == 0
            and self.after.errors == 0
        )

    @property
    def passed(self) -> bool:
        return (
            self.zero_downtime
            and self.answers_identical
            and self.job_state == "succeeded"
        )

    def report(self) -> str:
        headers = ["phase", "req/s", "p50 ms", "p95 ms", "p99 ms", "errors"]
        rows = [
            ("before", self.before),
            ("during", self.during),
            ("after", self.after),
        ]
        lines = ["  ".join(f"{h:>10s}" for h in headers)]
        for name, result in rows:
            lines.append(
                "  ".join(
                    f"{cell:>10}"
                    for cell in (
                        name,
                        f"{result.throughput_rps:.1f}",
                        f"{result.latency_p50_ms:.1f}",
                        f"{result.latency_p95_ms:.1f}",
                        f"{result.latency_p99_ms:.1f}",
                        str(result.errors),
                    )
                )
            )
        lines.append("")
        lines.append(
            f"rebalance job ({self.job_state}): moved DocIds "
            f"[{self.doc_lo}, {self.doc_hi}] = {self.moved_docs} docs / "
            f"{self.moved_lines} lines, shard {self.source} -> "
            f"shard {self.target}, submitted mid-load (during window)"
        )
        lines.append(
            "shard line counts before the move: "
            + ", ".join(
                f"shard {s}: {n}" for s, n in sorted(self.lines_before.items())
            )
        )
        lines.append(
            "shard line counts after the move:  "
            + ", ".join(
                f"shard {s}: {n}" for s, n in sorted(self.lines_after.items())
            )
        )
        lines.append(
            "merged ranked answers byte-identical before/after the move "
            f"(doc_id, line_no, probability): {self.answers_identical}"
        )
        lines.append(
            f"zero client-visible errors across all windows: "
            f"{self.zero_downtime}"
        )
        return "\n".join(lines)


def _ranked_projection(
    base_url: str, patterns: Sequence[str], num_ans: int
) -> str:
    """The placement-independent bytes of every pattern's ranked answers."""
    captured = []
    for pattern in patterns:
        status, reply = post_json(
            base_url, "/search", {"pattern": pattern, "num_ans": num_ans}
        )
        if status != 200:
            raise RuntimeError(f"baseline search failed: {reply}")
        captured.append(
            [
                [a["doc_id"], a["line_no"], round(a["probability"], 12)]
                for a in reply["answers"]
            ]
        )
    return json.dumps(captured)


def run_rebalance_demo(
    num_shards: int = 2,
    docs: int = 6,
    lines: int = 3,
    patterns: Sequence[str] = tuple(DEFAULT_PATTERNS),
    approach: str = "staccato",
    concurrency: int = 8,
    repeats: int = 8,
    num_ans: int = 50,
    k: int = 4,
    m: int = 6,
    source: int = 0,
    target: int = 1,
    submit_after_s: float = 0.05,
    poll_timeout_s: float = 120.0,
) -> RebalanceDemo:
    """Move shard ``source``'s whole DocId stripe to ``target`` mid-load.

    ``range_width = docs // num_shards`` parks DocIds ``[0,
    range_width - 1]`` on shard 0, so moving that range empties the
    source's stripe into the target.  The result cache is disabled so
    every during-window request really fans out and exercises the
    copy/swap/delete phases (de-duplicating merge, routing-table
    publish) rather than serving from memory.
    """
    import threading

    from ..ocr.corpus import make_ca
    from ..service import start_sharded_service

    corpus = make_ca(num_docs=docs, lines_per_doc=lines, seed=1)
    range_width = max(1, docs // num_shards)
    doc_lo, doc_hi = 0, range_width - 1
    load_kwargs = dict(
        approach=approach,
        num_ans=num_ans,
        concurrency=concurrency,
        repeats=repeats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        running = start_sharded_service(
            f"{tmp}/shards",
            num_shards,
            k=k,
            m=m,
            pool_size=2,
            cache_size=0,
            range_width=range_width,
        )
        base = running.base_url
        try:
            _ingest_over_http(base, corpus)
            _, health = get_json(base, "/health")
            lines_before = dict(health["shard_lines"])
            baseline = _ranked_projection(base, patterns, num_ans)
            before = run_search_load(base, list(patterns), **load_kwargs)

            job_row: dict = {}

            def submit_and_wait() -> None:
                # "wait": true blocks server-side until the job is
                # terminal, so no client-side poll loop is needed.
                status, row = post_json(
                    base,
                    "/jobs",
                    {
                        "type": "rebalance",
                        "params": {
                            "doc_lo": doc_lo,
                            "doc_hi": doc_hi,
                            "source": source,
                            "target": target,
                        },
                        "wait": True,
                    },
                    timeout=poll_timeout_s,
                )
                if status != 200:
                    job_row.update(state=f"submit failed: {row}")
                    return
                job_row.update(row)

            timer = threading.Timer(submit_after_s, submit_and_wait)
            timer.start()
            during = run_search_load(base, list(patterns), **load_kwargs)
            timer.join()  # Timer.join waits for the callback to finish
            after = run_search_load(base, list(patterns), **load_kwargs)
            final = _ranked_projection(base, patterns, num_ans)
            _, health = get_json(base, "/health")
            lines_after = dict(health["shard_lines"])
        finally:
            running.stop()
    result = job_row.get("result") or {}
    return RebalanceDemo(
        num_shards=num_shards,
        corpus_lines=corpus.num_lines,
        doc_lo=doc_lo,
        doc_hi=doc_hi,
        source=source,
        target=target,
        moved_docs=result.get("moved_docs", 0),
        moved_lines=result.get("moved_lines", 0),
        job_state=str(job_row.get("state", "never submitted")),
        before=before,
        during=during,
        after=after,
        answers_identical=baseline == final,
        lines_before=lines_before,
        lines_after=lines_after,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI for the sharded-throughput and replica-failover reports."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.service_load",
        description="single-db vs sharded throughput, or replica failover",
    )
    parser.add_argument(
        "--mode",
        choices=("compare", "failover", "rebalance"),
        default="compare",
        help="compare: single-db vs shards; failover: kill a replica "
        "mid-load; rebalance: move a DocId range between live shards "
        "mid-load",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=2,
                        help="read replicas per shard (failover mode)")
    parser.add_argument("--docs", type=int, default=4)
    parser.add_argument("--lines", type=int, default=3)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--m", type=int, default=6)
    parser.add_argument(
        "--trace-sample", type=int, default=0, metavar="N",
        help="compare mode: send 'trace': true on every Nth request and "
             "report the mean per-span time breakdown (0 disables)",
    )
    parser.add_argument(
        "--worker-procs",
        action="store_true",
        help="compare mode: add a third leg with each shard in its own "
             "worker subprocess behind the fan-out router",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the report to this path (default and '-': "
             "print only)",
    )
    parser.add_argument(
        "--history-dir",
        default=history.DEFAULT_HISTORY_DIR,
        help="append a machine-readable BENCH_<mode>.json entry here "
             "('-' disables; see scripts/bench_check.py)",
    )
    args = parser.parse_args(argv)
    bench_metrics: dict[str, dict] = {}
    if args.mode == "rebalance":
        demo = run_rebalance_demo(
            num_shards=args.shards,
            docs=args.docs,
            lines=args.lines,
            concurrency=args.concurrency,
            repeats=args.repeats,
            k=args.k,
            m=args.m,
        )
        title = (
            f"online rebalance: {demo.corpus_lines}-line corpus, "
            f"{demo.num_shards} shards, DocIds [{demo.doc_lo}, "
            f"{demo.doc_hi}] moved shard {demo.source} -> {demo.target} "
            "mid-load"
        )
        text = f"{title}\n{demo.report()}\n"
        failed = not demo.passed
        for window, result in (
            ("before", demo.before),
            ("during", demo.during),
            ("after", demo.after),
        ):
            bench_metrics.update(
                history.load_result_metrics(result, f"{window}_")
            )
        topology = {
            "shards": args.shards,
            "docs": args.docs,
            "lines": args.lines,
        }
    elif args.mode == "failover":
        demo = run_failover_demo(
            num_shards=args.shards,
            replicas=args.replicas,
            docs=args.docs,
            lines=args.lines,
            concurrency=args.concurrency,
            repeats=args.repeats,
            k=args.k,
            m=args.m,
        )
        title = (
            f"replica failover: {demo.corpus_lines}-line corpus, "
            f"{demo.num_shards} shards x {demo.replicas} replicas, "
            "one replica file deleted mid-load"
        )
        text = f"{title}\n{demo.report()}\n"
        failed = not demo.zero_downtime
        for window, result in (
            ("before", demo.before),
            ("during", demo.during),
            ("after", demo.after),
        ):
            bench_metrics.update(
                history.load_result_metrics(result, f"{window}_")
            )
        topology = {
            "shards": args.shards,
            "replicas": args.replicas,
            "docs": args.docs,
            "lines": args.lines,
        }
    else:
        comparison = run_sharded_comparison(
            num_shards=args.shards,
            docs=args.docs,
            lines=args.lines,
            concurrency=args.concurrency,
            repeats=args.repeats,
            k=args.k,
            m=args.m,
            trace_sample=args.trace_sample,
            worker_procs=args.worker_procs,
        )
        title = (
            f"service throughput: {comparison.corpus_lines}-line corpus, "
            f"single-db vs {comparison.num_shards} shards"
        )
        if comparison.workers is not None:
            title += " (in-process and subprocess workers)"
        text = f"{title}\n{comparison.report()}\n"
        failed = bool(
            comparison.single.errors
            or comparison.sharded.errors
            or (comparison.workers is not None and comparison.workers.errors)
        )
        legs = [("single", comparison.single), ("sharded", comparison.sharded)]
        if comparison.workers is not None:
            legs.append(("workers", comparison.workers))
        for leg, result in legs:
            bench_metrics.update(
                history.load_result_metrics(result, f"{leg}_")
            )
        topology = {
            "shards": args.shards,
            "docs": args.docs,
            "lines": args.lines,
            "worker_procs": args.worker_procs,
        }
    print(text, end="")
    if args.out not in (None, "-"):
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"report written to {out}")
    if args.history_dir != "-":
        path = history.record_run(
            f"service_{args.mode}",
            bench_metrics,
            topology=topology,
            history_dir=args.history_dir,
        )
        print(f"bench history appended to {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
