"""The one shard router, driven over in-memory fake legs.

``ShardedQueryService`` is written against the ``ShardLeg`` seam, so its
own logic -- singleflight, error mapping, partial-write invalidation,
the ``/sql`` merge -- is testable with no SQLite file and no subprocess
behind it.  These tests are the seam earning its keep; the structural
guards at the end keep the worker topology from growing a second copy
of any endpoint, and the two legs from drifting apart on the seam.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.query.answers import Answer
from repro.service.legs import LegDeadline, LocalLeg, ShardLeg
from repro.service.replicas import ReplicaUnavailable
from repro.service.shards import ShardedQueryService
from repro.service.validation import ApiError
from repro.service.workers import WorkerLeg, WorkerRouterService

WAIT = 30.0


class FakeLeg:
    """A ``ShardLeg`` holding nothing: canned answers, counted calls."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.path = f"fake-{index}"
        self.write_lock = threading.Lock()
        self.calls: collections.Counter = collections.Counter()
        #: Set to an exception instance to make the next calls fail.
        self.fail: Exception | None = None
        #: Set to an Event to park ``search`` until it is released.
        self.hold: threading.Event | None = None
        #: The shard's version: what ``ingest`` commits advances it.
        self.writes = 0

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

    def sql(self, query, approach):
        """Documents ``index`` and ``index + 1``: neighbouring legs
        overlap by one DocId, as a copied-but-not-deleted move leaves
        them.  ``DocName`` names the leg that answered."""
        self._enter("sql")
        return [
            {"DocId": doc_id, "DocName": f"leg-{self.index}", "Year": 2000,
             "Loss": 10.0 * (doc_id + 1), "Probability": 0.25 * (doc_id + 1)}
            for doc_id in (self.index, self.index + 1)
        ]

    def ingest(self, docs, request):
        self._enter("ingest")
        self.writes += 1
        return sum(len(doc.lines) for doc in docs), 0

    def version(self):
        return self.writes

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


class TestNumAnsEntries:
    def test_a_narrower_reply_finishing_last_keeps_the_wider_entry(
        self, router
    ):
        """An entry serves every ``num_ans`` up to its own; a narrower
        reply computed concurrently must not replace a wider one."""
        release = threading.Event()
        parked: list[int] = []
        for leg in router.pool.shards:

            def search(request, real=leg.search, index=leg.index):
                if request.num_ans == 2:
                    parked.append(index)
                    assert release.wait(WAIT)
                return real(request)

            leg.search = search
        with ThreadPoolExecutor(max_workers=1) as pool:
            narrow = pool.submit(
                router.search, {"pattern": "%x%", "num_ans": 2}
            )
            deadline = time.monotonic() + WAIT
            while len(parked) < len(router.pool.shards):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            wide = router.search({"pattern": "%x%", "num_ans": None})
            release.set()
            assert narrow.result(WAIT)["count"] == 2
        assert wide["cached"] is False and wide["count"] == 3
        again = router.search({"pattern": "%x%", "num_ans": 3})
        assert again["cached"] is True and again["count"] == 3
        assert [leg.calls["search"] for leg in router.pool.shards] == [2, 2, 2]


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
        # Shard 0 committed: its version moved, so no entry whose scope
        # touched it is served; shard 1's own entry still is.
        assert [leg.version() for leg in router.pool.shards] == [1, 0, 0]
        router.pool.shard(1).fail = None
        assert router.search({"pattern": "%x%", "shards": [1]})["cached"]
        assert not router.search({"pattern": "%x%", "shards": [0]})["cached"]
        assert not router.search({"pattern": "%x%", "shards": [0, 1]})["cached"]
        assert _shard_metrics(router, 1, "ingest")["errors"] == 1
        assert _shard_metrics(router, 0, "ingest")["errors"] == 0


class TestGenerationFence:
    def test_a_search_computed_across_an_ingest_is_not_served(self, router):
        """The search read shard 0 before the ingest committed there; its
        result is keyed under the old generation, so the next identical
        search computes afresh."""
        request = {"pattern": "%x%", "shards": [0]}
        leg = router.pool.shard(0)
        release = leg.hold = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            racing = pool.submit(router.search, request)
            deadline = time.monotonic() + WAIT
            while not leg.calls["search"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            router.ingest(
                {"documents": [{"doc_id": 0, "lines": ["lands on shard 0"]}]}
            )
            assert leg.calls["ingest"] == 1
            leg.hold = None
            release.set()
            assert not racing.result(WAIT)["cached"]
        assert not router.search(request)["cached"]
        assert leg.calls["search"] == 2
        assert router.search(request)["cached"]


class TestMoveSafeSql:
    #: A fresh query per call, so every call misses the result cache.
    serial = itertools.count()

    def _sql(self, router, select, shards):
        query = (
            f"{select} FROM Claims WHERE DocData LIKE '%x{next(self.serial)}%'"
        )
        return router.sql({"query": query, "shards": shards})["rows"]

    @pytest.mark.parametrize(
        "shards", [[0, 1, 2], [0, 1], [1, 2], [2, 0], [0], [2]]
    )
    def test_overlapping_legs_answer_each_docid_once(self, router, shards):
        """No move is registered: the router de-duplicates anyway."""
        rows = self._sql(router, "SELECT DocId, DocName", shards)
        docs = {doc_id for index in shards for doc_id in (index, index + 1)}
        assert sorted(row["DocId"] for row in rows) == sorted(docs)
        # The first leg in scope order answers for a shared DocId.
        owner = {}
        for index in shards:
            for doc_id in (index, index + 1):
                owner.setdefault(doc_id, f"leg-{index}")
        assert {row["DocId"]: row["DocName"] for row in rows} == owner
        (count,) = self._sql(router, "SELECT COUNT(*)", shards)
        assert count == {"COUNT(*)": sum(0.25 * (d + 1) for d in sorted(docs))}

    def test_bad_projection_never_reaches_a_leg(self, router):
        for query in (
            "SELECT Bogus FROM Claims",
            "SELECT Bogus FROM Claims WHERE Year = 1900",
        ):
            with pytest.raises(ApiError) as caught:
                router.sql({"query": query})
            assert (caught.value.status, caught.value.code) == (400, "sql_error")
        assert [leg.calls["sql"] for leg in router.pool.shards] == [0, 0, 0]


#: Every endpoint and job the router defines exactly once.
ROUTER_METHODS = (
    "ingest", "search", "sql", "index", "replicas", "job_rebalance",
    "health", "stats",
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


def _seam_methods() -> list[str]:
    return [
        name
        for name, value in vars(ShardLeg).items()
        if not name.startswith("_") and callable(value)
    ]


def _parameters(leg_type, name: str) -> list[tuple]:
    signature = inspect.signature(getattr(leg_type, name))
    return [
        (p.name, p.kind, p.default) for p in signature.parameters.values()
    ]


@pytest.mark.parametrize("name", _seam_methods())
def test_both_legs_implement_the_seam_alike(name):
    """A seam change lands on every leg or fails here."""
    assert _parameters(LocalLeg, name) == _parameters(ShardLeg, name)
    assert _parameters(WorkerLeg, name) == _parameters(ShardLeg, name)
