"""The result cache is valid by the file, on every topology.

A shard's generation is the ``PRAGMA data_version`` of its files, so a
cached ``/search`` is served exactly as long as nothing has committed
to the file it read -- whoever committed.  Here a second process
ingests into, or re-indexes, the very file a ``--db``, ``--shards 2`` or
``--worker-procs`` service is serving, and the next identical
``/search`` must compute afresh and see the change; reads (``/health``,
``/stats``, a refused ``/ingest``, a fresh handle searching the file)
must leave a cached result servable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.bench.service_load import get_json, post_json
from repro.db.engine import StaccatoDB, shard_path
from repro.ocr.corpus import make_ca
from repro.service.replicas import FileWatch
from repro.service.server import start_service, start_sharded_service

from .test_service import K, M, _batch_payload

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Ingests one document of one line into a file, from its own process.
_INGEST_ONE = """
import sys
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import Dataset, Document

path, k, m, doc_id, line = sys.argv[1:]
document = Document(int(doc_id), "outside", 2011, 1.0, (line,))
with StaccatoDB(path, k=int(k), m=int(m)) as db:
    db.ingest(Dataset(name="outside", documents=[document]))
"""

#: A document id the default striping places on shard 0 of 2.
OUTSIDE_DOC = 10
OUTSIDE_LINE = "The President shall submit the annual budget"


def _another_process(*argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, *argv],
        check=True,
        capture_output=True,
        env=env,
        timeout=120,
    )


def _start(topology: str, tmp_path):
    """A service over a small CA corpus -> (running, file of shard 0)."""
    options = dict(k=K, m=M, pool_size=2, cache_size=64)
    if topology == "db":
        path = str(tmp_path / "one.db")
        running = start_service(path, **options)
    else:
        shard_dir = str(tmp_path / "shards")
        running = start_sharded_service(
            shard_dir, 2, worker_procs=topology == "workers", **options
        )
        path = shard_path(shard_dir, 0)
    corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
    status, reply = post_json(
        running.base_url, "/ingest", _batch_payload(corpus)
    )
    assert status == 200, reply
    return running, path


def _search(running, query: dict) -> dict:
    status, reply = post_json(running.base_url, "/search", query)
    assert status == 200, reply
    return reply


def _cache(running, query: dict) -> dict:
    """Search twice; the second answer must come from the cache."""
    first = _search(running, query)
    assert not first["cached"]
    second = _search(running, query)
    assert second["cached"] and second["answers"] == first["answers"]
    return first


TOPOLOGIES = ["db", "shards", "workers"]


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestAnotherWriter:
    def test_an_ingest_by_another_process_is_seen(self, topology, tmp_path):
        running, path = _start(topology, tmp_path)
        try:
            query = {"pattern": "%annual%", "num_ans": 50}
            before = _cache(running, query)
            assert OUTSIDE_DOC not in {a["doc_id"] for a in before["answers"]}
            _another_process(
                "-c", _INGEST_ONE, path, str(K), str(M),
                str(OUTSIDE_DOC), OUTSIDE_LINE,
            )
            after = _search(running, query)
            assert not after["cached"]
            assert OUTSIDE_DOC in {a["doc_id"] for a in after["answers"]}
            assert _search(running, query)["cached"]
        finally:
            running.stop()

    def test_an_index_built_by_another_process_is_seen(
        self, topology, tmp_path
    ):
        running, path = _start(topology, tmp_path)
        try:
            query = {"pattern": "Public Law%", "plan": "indexed"}
            before = _cache(running, query)
            assert before["plans"]["0"] == "indexed:filescan-fallback"
            _another_process(
                "-m", "repro", "index", "--db", path,
                "--terms", "public", "law",
            )
            after = _search(running, query)
            assert not after["cached"]
            assert after["plans"]["0"] == "indexed"
        finally:
            running.stop()


@pytest.mark.parametrize("topology", ["db", "shards"])
def test_reads_never_move_a_version(topology, tmp_path):
    """Only a commit moves a version, so reads keep the LRU's hits."""
    running, path = _start(topology, tmp_path)
    try:
        query = {"pattern": "%Congress%", "num_ans": 10}
        first = _cache(running, query)
        _, stats = get_json(running.base_url, "/stats")
        generations = [shard["generation"] for shard in stats["shards"]]
        assert get_json(running.base_url, "/health")[0] == 200
        assert get_json(running.base_url, "/stats")[0] == 200
        status, reply = post_json(
            running.base_url, "/ingest", {"documents": [{"doc_id": 1}]}
        )
        assert status == 400, reply
        # A fresh handle runs create_schema and upgrade on open.
        with StaccatoDB(path, k=K, m=M) as fresh:
            fresh.search("%Congress%")
        again = _search(running, query)
        assert again["cached"] and again["answers"] == first["answers"]
        _, stats = get_json(running.base_url, "/stats")
        assert [s["generation"] for s in stats["shards"]] == generations
    finally:
        running.stop()


def test_a_restarted_worker_serves_what_its_file_holds(tmp_path):
    """A batch committed just before a worker died (never acknowledged)
    is seen after the restart: the restarted worker's files are watched
    afresh, and the commit had moved the version anyway."""
    running, path = _start("workers", tmp_path)
    try:
        query = {"pattern": "%annual%", "num_ans": 50}
        _cache(running, query)
        handle = running.service._workers.handle(0)
        _another_process(
            "-c", _INGEST_ONE, path, str(K), str(M),
            str(OUTSIDE_DOC), OUTSIDE_LINE,
        )
        os.kill(handle.pid, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while handle.restarts < 1:
            assert time.monotonic() < deadline, "worker 0 never restarted"
            time.sleep(0.05)
        after = _search(running, query)
        assert not after["cached"]
        assert OUTSIDE_DOC in {a["doc_id"] for a in after["answers"]}
        assert _search(running, query)["cached"]
    finally:
        running.stop()


def test_a_watch_that_cannot_read_its_file_never_repeats_a_version(tmp_path):
    """An unreadable file is a miss on every lookup, never a stale hit."""
    watch = FileWatch(str(tmp_path / "missing.db"))
    assert watch.version() != watch.version()
