"""HTTP helpers and fault-injection load drivers for the query service.

:func:`post_json` and :func:`get_json` are the stdlib-only (``urllib``)
client every test, smoke script and example speaks to a running service
with.  :func:`run_search_load` fires concurrent ``/search`` requests from
a thread pool and summarises throughput and latency::

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

Two fault drivers run that load around an injected event, and
``benchmarks/test_service_throughput.py`` gates on their results:

* :func:`run_failover_demo` starts a sharded service with read replicas,
  deletes one replica file **while a load is running**, and measures the
  before/during/after windows -- the during window must finish with zero
  client-visible errors (every request that hit the dead replica is
  retried transparently on a sibling), and the after window runs with
  the replica detached and a fresh copy re-attached via ``POST
  /replicas``.
* :func:`run_rebalance_demo` submits a ``rebalance`` background job
  (``POST /jobs``) that moves a DocId range from one live shard to
  another **while a search load is running**; the bar is zero
  client-visible errors in every window and merged ranked answers
  byte-identical before vs after the move (compared on the
  placement-independent projection ``(doc_id, line_no, probability)``;
  line ids are shard-local and the answers' shard tags legitimately
  change hands).
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..service.metrics import percentile

__all__ = [
    "LoadResult",
    "FailoverDemo",
    "RebalanceDemo",
    "post_json",
    "get_json",
    "run_search_load",
    "run_failover_demo",
    "run_rebalance_demo",
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

    def summary(self) -> str:
        return (
            f"{self.requests} requests ({self.errors} errors) in "
            f"{self.elapsed_s:.2f}s = {self.throughput_rps:.1f} req/s; "
            f"latency p50={self.latency_p50_ms:.1f}ms "
            f"p95={self.latency_p95_ms:.1f}ms "
            f"p99={self.latency_p99_ms:.1f}ms"
        )


def run_search_load(
    base_url: str,
    patterns: list[str],
    approach: str = "staccato",
    plan: str = "filescan",
    num_ans: int = 10,
    concurrency: int = 8,
    repeats: int = 5,
    timeout: float = DEFAULT_TIMEOUT,
) -> LoadResult:
    """Fire ``len(patterns) * repeats`` concurrent ``/search`` requests."""
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

    def one(body: dict) -> tuple[float, bool]:
        started = time.perf_counter()
        try:
            status, _ = post_json(base_url, "/search", body, timeout=timeout)
            failed = status != 200
        except (urllib.error.URLError, OSError, json.JSONDecodeError):
            failed = True
        return time.perf_counter() - started, failed

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(one, bodies))
    elapsed = time.perf_counter() - started
    latencies = [seconds * 1000.0 for seconds, _ in outcomes]
    errors = sum(1 for _, failed in outcomes if failed)
    return LoadResult(
        requests=len(bodies),
        errors=errors,
        elapsed_s=elapsed,
        throughput_rps=len(bodies) / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=percentile(latencies, 50),
        latency_p95_ms=percentile(latencies, 95),
        latency_p99_ms=percentile(latencies, 99),
    )


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


@dataclass(frozen=True, slots=True)
class _LoadWindows:
    """The three load windows around an injected event."""

    before: LoadResult
    during: LoadResult
    after: LoadResult

    @property
    def zero_downtime(self) -> bool:
        """No client-visible error in any window (the acceptance bar)."""
        return (
            self.before.errors == 0
            and self.during.errors == 0
            and self.after.errors == 0
        )


# ----------------------------------------------------------------------
# Failover: kill one replica file mid-load and measure the three
# windows (healthy, degraded, re-attached).
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FailoverDemo(_LoadWindows):
    """One kill-a-replica run: the load windows and the replica census."""

    healthy_during: dict[str, dict[str, int]]
    healthy_after: dict[str, dict[str, int]]


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
        before=before,
        during=during,
        after=after,
        healthy_during=healthy_during,
        healthy_after=healthy_after,
    )


# ----------------------------------------------------------------------
# Rebalance: move a DocId range between two live shards while a search
# load runs; answers must come back identical and error-free.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RebalanceDemo(_LoadWindows):
    """One rebalance-under-load run and its acceptance evidence."""

    corpus_lines: int
    moved_docs: int
    moved_lines: int
    job_state: str
    answers_identical: bool
    lines_after: dict[str, int]


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
        before=before,
        during=during,
        after=after,
        corpus_lines=corpus.num_lines,
        moved_docs=result.get("moved_docs", 0),
        moved_lines=result.get("moved_lines", 0),
        job_state=str(job_row.get("state", "never submitted")),
        answers_identical=baseline == final,
        lines_after=lines_after,
    )
