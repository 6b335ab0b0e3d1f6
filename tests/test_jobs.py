"""The background job engine: lifecycle, journal, rebalance.

Four layers:

* **Engine unit tests** drive :class:`repro.service.jobs.JobEngine`
  with custom job types on a stub service: success/failure/cancel
  transitions, progress, conflicts, and restart recovery from the JSON
  journal (interrupted non-idempotent jobs are reported as failed;
  idempotent ones re-queue and run).
* **RoutingTable unit tests** pin the atomic-publish ownership model:
  striped defaults, move overrides, splicing, persistence.
* **HTTP tests** exercise ``POST /jobs`` / ``GET /jobs`` /
  ``GET /jobs/<id>`` / ``DELETE /jobs/<id>`` plus the rehomed
  ``POST /index`` on a live server.
* **Rebalance tests** run the flagship job in-process on real
  services: a successful move relocates rows and flips routing with
  identical answers; a cancel mid-move rolls the target back and leaves
  routing and source untouched; duplicate moves are refused 409; state
  an older build left behind still opens.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.service import start_service
from repro.service.jobs import JobEngine, JobType
from repro.service.shards import (
    ROUTING_FILE,
    RoutingTable,
    ShardedQueryService,
    shard_for_doc,
)
from repro.service.validation import ApiError
from repro.bench.service_load import get_json, post_json

from .legacy import age, stranded_kernels

WAIT = 30.0


#: Every approach a line can store a kernel for (``fullsfa`` only on
#: request): what the rebalance tests move.
WITH_FULLSFA = ["kmap", "fullsfa", "staccato"]


def _batch(doc_ids, lines_per_doc=2, approaches=None):
    body = {
        "dataset": "jobs-test",
        "documents": [
            {
                "doc_id": doc_id,
                "loss": 1000.25 * (doc_id + 1),
                "lines": [
                    f"Congress line {doc_id}-{n} of public law"
                    for n in range(lines_per_doc)
                ],
            }
            for doc_id in doc_ids
        ],
    }
    if approaches:
        body["approaches"] = approaches
    return body


def _rows(answers):
    return [
        (a["doc_id"], a["line_no"], round(a["probability"], 12))
        for a in answers
    ]


# ----------------------------------------------------------------------
# Engine unit tests (stub service, custom job types)
# ----------------------------------------------------------------------
class TestJobEngine:
    def _engine(self, tmp_path, workers=1, journal="journal.json"):
        path = str(tmp_path / journal) if journal else None
        return JobEngine(object(), path, workers=workers)

    def test_success_lifecycle_and_result(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.register(
            JobType(
                "double",
                runner=lambda service, job, params: {"value": params["x"] * 2},
            )
        )
        job = engine.submit("double", {"x": 21})
        row = engine.wait(job.id, timeout=WAIT)
        assert row["state"] == "succeeded"
        assert row["result"] == {"value": 42}
        assert row["progress"] == 1.0
        assert row["started_at"] is not None and row["finished_at"] is not None
        engine.shutdown()

    def test_crash_marks_failed_with_traceback(self, tmp_path):
        engine = self._engine(tmp_path)

        def boom(service, job, params):
            raise ValueError("worker exploded")

        engine.register(JobType("boom", runner=boom))
        job = engine.submit("boom", {})
        row = engine.wait(job.id, timeout=WAIT)
        assert row["state"] == "failed"
        assert "Traceback" in row["error"]
        assert "ValueError: worker exploded" in row["error"]
        engine.shutdown()

    def test_progress_and_metrics_are_published(self, tmp_path):
        engine = self._engine(tmp_path)

        def stepper(service, job, params):
            job.update(progress=0.5, items=7)
            return "ok"

        engine.register(JobType("stepper", runner=stepper))
        job = engine.submit("stepper", {})
        row = engine.wait(job.id, timeout=WAIT)
        assert row["metrics"] == {"items": 7}
        engine.shutdown()

    def test_cancel_queued_job_never_runs(self, tmp_path):
        engine = self._engine(tmp_path, workers=1)
        release = threading.Event()
        ran: list[str] = []

        def blocker(service, job, params):
            release.wait(WAIT)
            return "done"

        engine.register(JobType("block", runner=blocker))
        engine.register(
            JobType(
                "noop", runner=lambda s, j, p: ran.append(j.id) or "ran"
            )
        )
        engine.submit("block", {})
        queued = engine.submit("noop", {})
        row = engine.cancel(queued.id)
        assert row["state"] == "cancelled"
        release.set()
        row = engine.wait(queued.id, timeout=WAIT)
        assert row["state"] == "cancelled"
        assert ran == []  # the worker skipped the cancelled entry
        engine.shutdown()

    def test_cooperative_cancel_running_job(self, tmp_path):
        engine = self._engine(tmp_path, workers=1)
        started = threading.Event()

        def loiter(service, job, params):
            started.set()
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline:
                job.check_cancelled()
                time.sleep(0.01)
            raise AssertionError("never saw the cancel")

        engine.register(JobType("loiter", runner=loiter))
        job = engine.submit("loiter", {})
        assert started.wait(WAIT)
        row = engine.cancel(job.id)
        assert row["cancel_requested"] is True
        row = engine.wait(job.id, timeout=WAIT)
        assert row["state"] == "cancelled"
        # A terminal job has nothing left to cancel: 409 job_conflict.
        with pytest.raises(ApiError) as err:
            engine.cancel(job.id)
        assert err.value.status == 409 and err.value.code == "job_conflict"
        engine.shutdown()

    def test_unknown_type_and_unknown_job(self, tmp_path):
        engine = self._engine(tmp_path)
        with pytest.raises(ApiError) as err:
            engine.submit("no_such_type", {})
        assert err.value.status == 400
        with pytest.raises(ApiError) as err:
            engine.get("nope")
        assert err.value.status == 404 and err.value.code == "unknown_job"
        engine.shutdown()

    def test_conflicting_submissions_are_409(self, tmp_path):
        engine = self._engine(tmp_path, workers=1)
        release = threading.Event()
        engine.register(
            JobType(
                "exclusive",
                runner=lambda s, j, p: release.wait(WAIT),
                conflicts=lambda a, b: True,
            )
        )
        first = engine.submit("exclusive", {})
        with pytest.raises(ApiError) as err:
            engine.submit("exclusive", {})
        assert err.value.status == 409 and err.value.code == "job_conflict"
        release.set()
        engine.wait(first.id, timeout=WAIT)
        # Terminal jobs no longer conflict.
        second = engine.submit("exclusive", {})
        engine.wait(second.id, timeout=WAIT)
        engine.shutdown()

    def test_restart_reports_interrupted_and_resumes_idempotent(self, tmp_path):
        journal = tmp_path / "journal.json"
        rows = [
            {
                "id": "deadbeefcafe",
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 9, "source": 0, "target": 1},
                "state": "running",
                "created_at": 1.0,
            },
            {
                "id": "feedfacefeed",
                "type": "resumable",
                "params": {},
                "state": "queued",
                "created_at": 2.0,
            },
        ]
        journal.write_text(json.dumps({"jobs": rows}))
        # The type must be known at construction (= recovery) time for
        # its interrupted jobs to re-queue; ``extra_types`` does that.
        engine = JobEngine(
            object(),
            str(journal),
            workers=1,
            extra_types=[
                JobType(
                    "resumable", idempotent=True, runner=lambda s, j, p: "again"
                )
            ],
        )
        interrupted = engine.get("deadbeefcafe").snapshot()
        assert interrupted["state"] == "failed"
        assert interrupted["interrupted"] is True
        assert "interrupted by a service restart" in interrupted["error"]
        resumed = engine.wait("feedfacefeed", timeout=WAIT)
        assert resumed["interrupted"] is True
        assert resumed["state"] == "succeeded"
        assert resumed["result"] == "again"
        engine.shutdown()

    def test_malformed_journal_rows_never_block_startup(self, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"type": "rebalance", "state": "running"},  # no id
                        {"id": "ok1234567890", "type": "noop",
                         "state": "succeeded", "created_at": 1.0},
                    ]
                }
            )
        )
        engine = JobEngine(object(), str(journal), workers=1)
        assert [row["id"] for row in engine.list()] == ["ok1234567890"]
        engine.shutdown()

    def test_journal_survives_transitions(self, tmp_path):
        journal = tmp_path / "journal.json"
        engine = JobEngine(object(), str(journal), workers=1)
        engine.register(JobType("noop", runner=lambda s, j, p: "ok"))
        job = engine.submit("noop", {})
        engine.wait(job.id, timeout=WAIT)
        engine.shutdown()
        stored = json.loads(journal.read_text())["jobs"]
        assert [row["id"] for row in stored] == [job.id]
        assert stored[0]["state"] == "succeeded"


# ----------------------------------------------------------------------
# RoutingTable unit tests
# ----------------------------------------------------------------------
class TestRoutingTable:
    def test_default_matches_striping(self):
        table = RoutingTable(3, range_width=4)
        for doc_id in range(100):
            assert table.owner(doc_id) == shard_for_doc(doc_id, 3, 4)
            assert table.override_owner(doc_id) is None

    def test_with_move_overrides_range_only(self):
        table = RoutingTable(2, range_width=4).with_move(0, 3, 1)
        assert table.owner(0) == 1 and table.owner(3) == 1
        assert table.override_owner(2) == 1
        assert table.owner(4) == shard_for_doc(4, 2, 4)
        assert table.override_owner(4) is None

    def test_later_move_splices_over_earlier(self):
        table = (
            RoutingTable(3, range_width=2)
            .with_move(0, 9, 1)
            .with_move(4, 6, 2)
        )
        assert table.overrides == ((0, 3, 1), (4, 6, 2), (7, 9, 1))
        assert table.owner(5) == 2 and table.owner(8) == 1

    def test_immutability_via_successors(self):
        base = RoutingTable(2, range_width=1)
        moved = base.with_move(0, 0, 1)
        assert base.overrides == ()
        assert moved.overrides == ((0, 0, 1),)

    def test_save_load_round_trip(self, tmp_path):
        table = RoutingTable(2, range_width=3).with_move(0, 2, 1)
        path = str(tmp_path / ROUTING_FILE)
        table.save(path)
        loaded = RoutingTable.load(path, 2, 3)
        assert loaded.overrides == table.overrides
        # A different geometry ignores the stale sidecar.
        other = RoutingTable.load(path, 4, 3)
        assert other.overrides == ()

    def test_overlapping_overrides_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(2, overrides=[(0, 5, 0), (3, 8, 1)])


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class TestJobsHttp:
    @pytest.fixture()
    def running(self, tmp_path):
        service = start_service(
            str(tmp_path / "jobs.db"), k=4, m=6, pool_size=2
        )
        post_json(service.base_url, "/ingest", _batch([1, 2]))
        yield service
        service.stop()

    def _poll(self, base_url, job_id):
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            _, row = get_json(base_url, f"/jobs/{job_id}")
            if row["state"] not in ("queued", "running"):
                return row
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never finished")

    def test_submit_poll_list(self, running):
        status, job = post_json(
            running.base_url,
            "/jobs",
            {"type": "rebuild_index", "params": {"terms": ["congress"]}},
        )
        assert status == 202
        assert job["state"] in ("queued", "running")
        row = self._poll(running.base_url, job["id"])
        assert row["state"] == "succeeded"
        assert row["result"]["postings"] >= 0
        status, listing = get_json(running.base_url, "/jobs")
        assert status == 200
        assert job["id"] in [entry["id"] for entry in listing["jobs"]]
        assert listing["workers"] >= 1

    def test_index_endpoint_submits_job(self, running):
        status, job = post_json(
            running.base_url, "/index", {"terms": ["law"]}
        )
        assert status == 202 and job["type"] == "rebuild_index"
        row = self._poll(running.base_url, job["id"])
        assert row["state"] == "succeeded"
        # wait=true keeps the old synchronous shape plus the job id.
        status, reply = post_json(
            running.base_url, "/index", {"terms": ["law"], "wait": True}
        )
        assert status == 200
        assert "postings" in reply and reply["job_id"]

    def test_errors(self, running):
        import urllib.error
        import urllib.request

        status, body = post_json(
            running.base_url, "/jobs", {"type": "no_such_type"}
        )
        assert status == 400
        status, body = post_json(
            running.base_url,
            "/jobs",
            {"type": "rebalance",
             "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1}},
        )
        # A one-file service is the 1-shard router: there is no shard 1.
        assert status == 400 and body["error"]["code"] == "unknown_shard"
        status, body = get_json(running.base_url, "/jobs/missing")
        assert status == 404 and body["error"]["code"] == "unknown_job"
        request = urllib.request.Request(
            f"{running.base_url}/jobs/missing", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 404
        assert json.loads(err.value.read())["error"]["code"] == "unknown_job"

    def test_stats_reports_jobs(self, running):
        post_json(
            running.base_url, "/index", {"terms": ["law"], "wait": True}
        )
        _, stats = get_json(running.base_url, "/stats")
        assert stats["jobs"]["states"].get("succeeded", 0) >= 1
        assert stats["requests"]["jobs"]["rebuild_index"]["count"] >= 1


# ----------------------------------------------------------------------
# Rebalance lifecycle (in-process sharded service)
# ----------------------------------------------------------------------
class TestRebalance:
    @pytest.fixture()
    def cluster(self, tmp_path):
        service = ShardedQueryService(
            str(tmp_path / "shards"), 2, k=4, m=6, pool_size=2, range_width=2
        )
        # DocIds 0,1 -> shard 0; 2,3 -> shard 1.  Every kernel a line can
        # have, so a move is seen to carry them all.
        service.ingest(_batch([0, 1, 2, 3], approaches=WITH_FULLSFA))
        yield service
        service.close()

    def test_successful_move_relocates_rows_and_routing(self, cluster):
        before = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        source_lines = cluster.pool.shard(0).writer.num_lines
        assert source_lines > 0
        row = cluster.jobs_submit(
            {
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
                "wait": True,
            }
        )
        assert row["state"] == "succeeded", row["error"]
        assert row["result"]["moved_docs"] == 2
        assert cluster.pool.shard(0).writer.num_lines == 0
        assert cluster.pool.shard(1).writer.num_lines == 8
        assert cluster.routing.override_owner(0) == 1
        assert cluster.routing.override_owner(1) == 1
        after = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        assert _rows(before["answers"]) == _rows(after["answers"])
        assert all(a["shard"] == 1 for a in after["answers"])
        # The routing table survived to disk for the next process.
        persisted = json.loads(
            open(cluster.sidecar(ROUTING_FILE)).read()
        )
        assert persisted["overrides"] == [[0, 1, 1]]

    def test_new_ingest_into_moved_range_lands_on_target(self, cluster):
        cluster.jobs_submit(
            {
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
                "wait": True,
            }
        )
        # More lines for a moved document must follow it to the target.
        reply = cluster.ingest(_batch([0], lines_per_doc=1))
        assert set(reply["shards"]) == {"1"}
        assert cluster.pool.shard(0).writer.num_lines == 0

    def test_cancel_mid_move_rolls_back_cleanly(self, cluster):
        before = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        source_lines = cluster.pool.shard(0).writer.num_lines
        target_lines = cluster.pool.shard(1).writer.num_lines
        # The hook fires between the copy and the routing swap -- the
        # worst possible moment: rows exist on both shards.
        cluster._rebalance_after_copy = lambda job: job.request_cancel()
        row = cluster.jobs_submit(
            {
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
                "wait": True,
            }
        )
        assert row["state"] == "cancelled"
        # Routing unchanged, source rows intact, target copy undone.
        assert cluster.routing.overrides == ()
        assert cluster.pool.shard(0).writer.num_lines == source_lines
        assert cluster.pool.shard(1).writer.num_lines == target_lines
        after = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        assert _rows(before["answers"]) == _rows(after["answers"])

    def test_duplicate_rebalance_is_job_conflict(self, cluster):
        release = threading.Event()
        cluster.jobs.register(
            JobType("block", runner=lambda s, j, p: release.wait(WAIT))
        )
        try:
            # Fill both workers so the rebalance stays queued (= active).
            for _ in range(cluster.jobs.workers):
                cluster.jobs.submit("block", {})
            first = cluster.jobs_submit(
                {
                    "type": "rebalance",
                    "params": {
                        "doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1,
                    },
                }
            )
            assert first[0] == 202
            with pytest.raises(ApiError) as err:
                cluster.jobs_submit(
                    {
                        "type": "rebalance",
                        "params": {
                            # Overlapping range, opposite direction:
                            # still a conflict while the first is live.
                            "doc_lo": 1, "doc_hi": 3,
                            "source": 1, "target": 0,
                        },
                    }
                )
            assert err.value.status == 409
            assert err.value.code == "job_conflict"
        finally:
            release.set()
        cluster.jobs.wait(first[1]["id"], timeout=WAIT)

    def test_resubmit_converges_after_failed_delete(self, cluster):
        # Simulate a move that died between the copy commit and the
        # source delete: copy the rows by hand (a real half-finished
        # move), then run the job -- it must skip the existing copies,
        # retry the delete, and end fully converged.
        before = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        source = cluster.pool.shard(0)
        target = cluster.pool.shard(1)
        target.rebalance_copy(source.path, [0, 1])
        assert target.writer.num_lines == 8  # duplicates live on both
        row = cluster.jobs_submit(
            {
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
                "wait": True,
            }
        )
        assert row["state"] == "succeeded", row["error"]
        assert cluster.pool.shard(0).writer.num_lines == 0
        assert cluster.pool.shard(1).writer.num_lines == 8
        after = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        assert _rows(before["answers"]) == _rows(after["answers"])

    def test_unregistered_duplicates_answer_like_one_database(
        self, cluster, tmp_path
    ):
        """Docs 0-1 on both shards with no move running -- what a crash
        between copy and delete leaves.  ``/sql`` answers as one plain
        database over the corpus, before and after a restart."""
        from repro.db.engine import StaccatoDB
        from repro.db.sql import execute_select
        from repro.ocr.engine import SimulatedOcrEngine
        from repro.service.validation import validate_ingest

        source, target = cluster.pool.shard(0), cluster.pool.shard(1)
        target.rebalance_copy(source.path, [0, 1])
        assert target.writer.num_lines == 8  # duplicates live on both
        request = validate_ingest(_batch([0, 1, 2, 3]))
        queries = [
            "SELECT * FROM Claims",
            "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%Congress%'",
            "SELECT COUNT(*), SUM(Loss), AVG(Loss) FROM Claims "
            "WHERE DocData LIKE '%line%'",
            "SELECT COUNT(*), SUM(Loss), AVG(Loss) FROM Claims "
            "WHERE DocData LIKE '%Congress%'",
        ]
        with StaccatoDB(str(tmp_path / "plain.db"), k=4, m=6) as plain:
            plain.ingest(
                request.dataset, SimulatedOcrEngine(seed=request.ocr_seed)
            )
            expected = [execute_select(plain, sql) for sql in queries]
        assert [row["DocId"] for row in expected[0]] == [0, 1, 2, 3]

        def answers(service):
            return [service.sql({"query": sql})["rows"] for sql in queries]

        assert answers(cluster) == expected
        cluster.close()
        # A pending-moves file an older build left behind is ignored:
        # never read, never rewritten.
        stale = os.path.join(cluster.shard_dir, "rebalance-pending.json")
        assert not os.path.exists(stale)
        with open(stale, "w", encoding="utf-8") as handle:
            json.dump({"moves": [[0, 1, 0, 1]]}, handle)
        with ShardedQueryService(
            cluster.shard_dir, 2, k=4, m=6, pool_size=2, range_width=2
        ) as reopened:
            assert answers(reopened) == expected
            assert reopened.jobs_submit(self.MOVE)["state"] == "succeeded"
            assert answers(reopened) == expected
        with open(stale, encoding="utf-8") as handle:
            assert json.load(handle) == {"moves": [[0, 1, 0, 1]]}

    def test_cancel_of_repair_run_never_unwinds_preexisting_copies(
        self, cluster
    ):
        # A repair re-run's copy skips documents the target already
        # holds; cancelling that run must unwind nothing -- the skipped
        # copies (which may carry post-switch ingests existing nowhere
        # else) are not this run's work.
        source = cluster.pool.shard(0)
        target = cluster.pool.shard(1)
        lines = source.writer.num_lines
        target.rebalance_copy(source.path, [0, 1])
        target_lines = target.writer.num_lines
        cluster._rebalance_after_copy = lambda job: job.request_cancel()
        row = cluster.jobs_submit(
            {
                "type": "rebalance",
                "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
                "wait": True,
            }
        )
        assert row["state"] == "cancelled"
        # The pre-existing copies survived the cancelled repair run.
        assert target.writer.num_lines == target_lines
        assert source.writer.num_lines == lines

    # -- a line moves with its compiled kernels --------------------------
    MOVE = {
        "type": "rebalance",
        "params": {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
        "wait": True,
    }

    @staticmethod
    def _kernel_orphans(leg):
        """(kernel rows without a line, lines without all three kernel
        rows: ``kmap``, ``fullsfa``, ``staccato``)."""
        conn = leg.writer.conn
        return (
            conn.execute(
                "SELECT COUNT(*) FROM CompiledKernel WHERE DataKey NOT IN "
                "(SELECT DataKey FROM MasterData)"
            ).fetchone()[0],
            conn.execute(
                "SELECT COUNT(*) FROM MasterData m WHERE (SELECT COUNT(*) "
                "FROM CompiledKernel c WHERE c.DataKey = m.DataKey) != 3"
            ).fetchone()[0],
        )

    def test_move_takes_the_kernel_rows_along(self, cluster):
        before = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        assert cluster.jobs_submit(self.MOVE)["state"] == "succeeded"
        source, target = cluster.pool.shard(0), cluster.pool.shard(1)
        assert source.writer.num_lines == 0 and target.writer.num_lines == 8
        assert self._kernel_orphans(source) == (0, 0)
        assert self._kernel_orphans(target) == (0, 0)
        # A moved line is scanned from its stored kernel: the scan image
        # holds exactly the shard's lines.
        after = cluster.search({"pattern": "%Congress%", "num_ans": 50})
        assert _rows(after["answers"]) == _rows(before["answers"])
        assert not after["cached"]
        image = target.kernel_memo.stats()["scan_image"]["staccato"]
        assert image["lines"] == target.writer.num_lines == 8

    def test_freed_keys_are_reused_without_colliding(self, tmp_path):
        service = ShardedQueryService(
            str(tmp_path / "shards"), 2, k=4, m=6, pool_size=2, range_width=2
        )
        try:
            service.ingest(_batch([0, 2], approaches=WITH_FULLSFA))
            service.ingest(_batch([1], approaches=WITH_FULLSFA))
            move = dict(self.MOVE, params=dict(self.MOVE["params"], doc_lo=1))
            assert service.jobs_submit(move)["state"] == "succeeded"
            # Doc 1 held shard 0's highest DataKeys; doc 0's new lines
            # take them over.
            reply = service.ingest(
                _batch([0], lines_per_doc=3, approaches=WITH_FULLSFA)
            )
            assert reply["ingested_lines"] == 3
            for index in (0, 1):
                assert self._kernel_orphans(service.pool.shard(index)) == (0, 0)
            assert service.pool.shard(0).writer.num_lines == 5
            assert service.search({"pattern": "%Congress%"})["count"] > 0
        finally:
            service.close()

    def test_orphan_kernels_of_an_older_move_are_swept_on_first_write(
        self, tmp_path
    ):
        shard_dir = str(tmp_path / "shards")
        options = dict(k=4, m=6, pool_size=2, range_width=2)
        service = ShardedQueryService(shard_dir, 2, **options)
        service.ingest(_batch([0, 1], approaches=WITH_FULLSFA))
        # What a move left behind before kernels moved with their lines.
        conn = service.pool.shard(0).writer.conn
        age(conn, *stranded_kernels(2))
        assert conn.execute(
            "SELECT COUNT(*) FROM CompiledKernel WHERE DataKey >= 2"
        ).fetchone() == (6,)
        service.close()
        service = ShardedQueryService(shard_dir, 2, **options)
        try:
            leg = service.pool.shard(0)
            # Opening the file deleted them, before any write.
            assert self._kernel_orphans(leg) == (0, 0)
            # A different document lands on the freed keys.
            reply = service.ingest(_batch([1], approaches=WITH_FULLSFA))
            assert reply["ingested_lines"] == 2
            assert self._kernel_orphans(leg) == (0, 0)
            scan = service.search({"pattern": "%line 1-%", "num_ans": 50})
            assert {a["doc_id"] for a in scan["answers"]} == {1}
        finally:
            service.close()

    def test_rebalance_params_validation(self, cluster):
        for params, fragment in [
            ({"doc_lo": 3, "doc_hi": 1, "source": 0, "target": 1}, "doc_hi"),
            ({"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 0}, "different"),
            ({"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 9}, "unknown"),
            ({"doc_lo": 0, "source": 0, "target": 1}, "doc_hi"),
        ]:
            with pytest.raises(ApiError) as err:
                cluster.jobs_submit({"type": "rebalance", "params": params})
            assert err.value.status == 400
            assert fragment in str(err.value)

    def test_restart_with_journal_reports_interrupted_move(self, tmp_path):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        (shard_dir / "jobs.json").write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "id": "cafebabe0001",
                            "type": "rebalance",
                            "params": {
                                "doc_lo": 0, "doc_hi": 1,
                                "source": 0, "target": 1,
                            },
                            "state": "running",
                            "created_at": 1.0,
                        }
                    ]
                }
            )
        )
        service = ShardedQueryService(
            str(shard_dir), 2, k=4, m=6, pool_size=2, range_width=2
        )
        try:
            listing = service.jobs_list()
            (row,) = listing["jobs"]
            assert row["id"] == "cafebabe0001"
            assert row["state"] == "failed"
            assert row["interrupted"] is True
            assert "interrupted by a service restart" in row["error"]
        finally:
            service.close()


# ----------------------------------------------------------------------
# State an older build left behind
# ----------------------------------------------------------------------
def test_old_cache_snapshot_state_still_opens(tmp_path):
    """A database served by a build with the ``cache_snapshot`` job keeps
    opening: the snapshot sidecar is ignored, interrupted snapshot jobs
    are reported failed (never run), and the type is refused."""
    path = tmp_path / "old.db"
    query = {"pattern": "%Congress%", "num_ans": 10}
    key = ["search", [0], [0], query["pattern"], "staccato", "filescan", 10]
    (tmp_path / "old.db.cache-snapshot.json").write_text(
        json.dumps(
            {
                "kind": "sharded",
                "num_shards": 1,
                "generations": [0],
                "entries": [[key, {"count": 99, "answers": []}]],
            }
        )
    )
    (tmp_path / "old.db.jobs.json").write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "id": f"feedface000{n}",
                        "type": "cache_snapshot",
                        "params": {},
                        "state": state,
                        "created_at": 1.0,
                    }
                    for n, state in enumerate(("queued", "running"))
                ]
            }
        )
    )
    with start_service(str(path), k=4, m=6, pool_size=2) as running:
        status, listing = get_json(running.base_url, "/jobs")
        assert status == 200
        assert listing["types"] == ["rebalance", "rebuild_index"]
        assert sorted(row["id"] for row in listing["jobs"]) == [
            "feedface0000", "feedface0001",
        ]
        for row in listing["jobs"]:
            assert row["state"] == "failed" and row["interrupted"] is True
            assert "interrupted by a service restart" in row["error"]

        status, body = post_json(
            running.base_url, "/jobs", {"type": "cache_snapshot"}
        )
        assert status == 400 and body["error"]["code"] == "bad_request"
        assert "'rebalance'" in body["error"]["message"]
        assert "'rebuild_index'" in body["error"]["message"]

        status, reply = post_json(running.base_url, "/search", query)
        assert status == 200
        assert reply["cached"] is False and reply["count"] == 0
