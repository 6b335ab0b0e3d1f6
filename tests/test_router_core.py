"""The one shard router, driven over in-memory fake legs.

``ShardedQueryService`` is written against the ``ShardLeg`` seam, so its
own logic -- singleflight, error mapping, partial-write invalidation,
the move-safe ``/sql`` plan -- is testable with no SQLite file and no
subprocess behind it.  These tests are the seam earning its keep; the
structural guard at the end keeps the worker topology from growing a
second copy of any endpoint.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.query.answers import Answer
from repro.service.legs import LegDeadline
from repro.service.replicas import ReplicaUnavailable
from repro.service.shards import ShardedQueryService
from repro.service.validation import ApiError
from repro.service.workers import WorkerRouterService

WAIT = 30.0


class FakeLeg:
    """A ``ShardLeg`` holding nothing: canned answers, counted calls."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.path = f"fake-{index}"
        self.write_lock = threading.Lock()
        self.calls: collections.Counter = collections.Counter()
        self.full_rows_seen: list[bool] = []
        #: Set to an exception instance to make the next calls fail.
        self.fail: Exception | None = None
        #: Set to an Event to park ``search`` until it is released.
        self.hold: threading.Event | None = None

    @staticmethod
    def fanout_width(num_shards: int) -> int:
        return 8

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        if self.fail is not None:
            raise self.fail

    def search(self, request):
        self._enter("search")
        if self.hold is not None:
            assert self.hold.wait(WAIT)
        answer = Answer(
            line_id=0, doc_id=self.index, line_no=0, probability=0.5
        )
        return "filescan", [answer]

    def sql(self, query, approach, full_rows):
        self._enter("sql")
        self.full_rows_seen.append(full_rows)
        return []

    def ingest(self, docs, request):
        self._enter("ingest")
        return sum(len(doc.lines) for doc in docs), 0

    def present(self, doc_ids, relation):
        return set()

    def health(self):
        return {"lines": 0, "healthy": 1, "attached": 1}

    def close(self) -> None:
        pass


class FakeRouter(ShardedQueryService):
    def _open_legs(self, **storage):
        return [FakeLeg(index) for index in range(self.num_shards)]


@pytest.fixture()
def router(tmp_path):
    with FakeRouter(str(tmp_path / "r"), 3, range_width=1) as service:
        yield service


def _shard_metrics(router, shard: int, endpoint: str) -> dict:
    return router.metrics.snapshot()["shards"][str(shard)][endpoint]


class TestSingleflight:
    def test_identical_concurrent_misses_cost_one_call_per_leg(self, router):
        clients = 6
        release = threading.Event()
        for leg in router.pool.shards:
            leg.hold = release
        barrier = threading.Barrier(clients)

        def one_search():
            barrier.wait(WAIT)
            return router.search({"pattern": "%x%"})

        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [pool.submit(one_search) for _ in range(clients)]
            # Every client is past the barrier and either leading the
            # fan-out (parked in the legs) or waiting on the leader.
            deadline = time.monotonic() + WAIT
            while not router.pool.shard(0).calls["search"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.3)
            release.set()
            replies = [future.result(WAIT) for future in futures]
        assert [leg.calls["search"] for leg in router.pool.shards] == [1, 1, 1]
        assert sorted(reply["cached"] for reply in replies) == (
            [False] + [True] * (clients - 1)
        )
        assert len({reply["count"] for reply in replies}) == 1
        assert router._inflight == {}


class TestLegErrorMapping:
    @pytest.mark.parametrize(
        "raised, code",
        [
            (ReplicaUnavailable("shard 1: no healthy replica left"),
             "shard_unavailable"),
            (LegDeadline("shard 1 worker did not answer"),
             "deadline_exceeded"),
        ],
    )
    def test_unreachable_shard_is_one_503_and_one_error_sample(
        self, router, raised, code
    ):
        router.pool.shard(1).fail = raised
        with pytest.raises(ApiError) as caught:
            router.search({"pattern": "%x%"})
        assert caught.value.status == 503
        assert caught.value.code == code
        assert str(raised) in caught.value.message
        failed = _shard_metrics(router, 1, "search")
        assert (failed["count"], failed["errors"]) == (1, 1)
        assert _shard_metrics(router, 0, "search")["errors"] == 0
        expected_events = 1 if code == "deadline_exceeded" else 0
        assert router.metrics.event_count("deadline_exceeded") == expected_events
        assert router._inflight == {}  # the failed leader released its key


class TestPartialWriteFailure:
    def test_committed_shards_still_bump_and_evict(self, router):
        for scope in ([0], [1], [0, 1]):
            router.search({"pattern": "%x%", "shards": scope})
        assert len(router.cache) == 3
        router.pool.shard(1).fail = RuntimeError("disk full")
        with pytest.raises(RuntimeError, match="disk full"):
            router.ingest(
                {
                    "documents": [
                        {"doc_id": 0, "lines": ["lands on shard 0"]},
                        {"doc_id": 1, "lines": ["never lands"]},
                    ]
                }
            )
        # Shard 0 committed: its generation moved and every entry whose
        # scope touched it is gone; shard 1's own entry survives.
        assert router.pool.generations((0, 1, 2)) == (1, 0, 0)
        router.pool.shard(1).fail = None
        assert router.search({"pattern": "%x%", "shards": [1]})["cached"]
        assert not router.search({"pattern": "%x%", "shards": [0]})["cached"]
        assert not router.search({"pattern": "%x%", "shards": [0, 1]})["cached"]
        assert _shard_metrics(router, 1, "ingest")["errors"] == 1
        assert _shard_metrics(router, 0, "ingest")["errors"] == 0


class TestMoveSafeSql:
    #: A fresh query per call, so every call misses the result cache.
    serial = itertools.count()

    def _plans(self, router, shards) -> set[bool]:
        for leg in router.pool.shards:
            leg.full_rows_seen.clear()
        query = (
            "SELECT DocId FROM Claims "
            f"WHERE DocData LIKE '%x{next(self.serial)}%'"
        )
        router.sql({"query": query, "shards": shards})
        seen = [
            flag for leg in router.pool.shards for flag in leg.full_rows_seen
        ]
        assert len(seen) == len(shards)
        return set(seen)

    def test_full_row_plan_iff_scope_spans_a_registered_move(self, router):
        assert self._plans(router, [0, 1, 2]) == {False}
        move = (0, 10, 0, 1)  # DocIds [0, 10]: shard 0 -> shard 1
        router.move_gate.begin(move)
        assert self._plans(router, [0, 1, 2]) == {True}
        assert self._plans(router, [0, 1]) == {True}
        # Only one side of the move in scope: no document can be seen
        # twice, so the fast scalar plan stays.
        assert self._plans(router, [0]) == {False}
        assert self._plans(router, [1, 2]) == {False}
        router.move_gate.finish(move, converged=True)
        assert self._plans(router, [0, 1, 2]) == {False}


#: Every endpoint and job the router defines exactly once.
ROUTER_METHODS = (
    "ingest", "search", "sql", "index", "replicas", "job_rebalance",
    "job_cache_snapshot", "warm_start", "health", "stats",
)


def test_worker_topology_defines_no_endpoint_of_its_own():
    """``serve --worker-procs`` is the same router over other legs: the
    topology class may pick the legs, never re-implement a method."""
    assert issubclass(WorkerRouterService, ShardedQueryService)
    redefined = [
        name for name in ROUTER_METHODS if name in vars(WorkerRouterService)
    ]
    assert redefined == []
    for name in ROUTER_METHODS:
        assert getattr(WorkerRouterService, name) is getattr(
            ShardedQueryService, name
        )
