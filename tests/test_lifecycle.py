"""One lifecycle for every serving process, seen from outside.

``python -m repro serve`` runs as users run it, in a subprocess, and is
stopped by signals: SIGTERM lets the requests in flight finish and then
closes every file, a second SIGTERM during that stop changes nothing,
and a ``--worker-procs`` router leaves no worker behind.  A shard
worker is started as ``python -m repro.service``, whose log holds what
the process printed -- and ``runpy`` warns there if the worker's module
ran twice.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.parse

from repro.bench.service_load import get_json, post_json
from repro.ocr.corpus import make_ca
from repro.service.server import start_sharded_service
from repro.service.workers import WORKER_SIDECAR_DIR

from .test_service import K, M, _batch_payload

_SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class Served:
    """``python -m repro serve ARGS`` on an ephemeral port; its output
    (stdout and stderr) goes to ``log``."""

    def __init__(self, tmp_path, *args: str) -> None:
        self.log = tmp_path / "serve.log"
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC_ROOT, env.get("PYTHONPATH")])
        )
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--quiet",
                    "--port", "0", "--k", str(K), "--m", str(M), *args,
                ],
                env=env,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
        self.base_url = self._await_banner()

    def _await_banner(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in self.output().splitlines():
                if "listening on " in line:
                    return line.split("listening on ")[1].split()[0]
            assert self.proc.poll() is None, self.output()
            time.sleep(0.02)
        self.proc.kill()
        raise AssertionError("no banner:\n" + self.output())

    def output(self) -> str:
        return self.log.read_text(errors="replace")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _stored_lines(path: str) -> int:
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return conn.execute("SELECT COUNT(*) FROM MasterData").fetchone()[0]
    finally:
        conn.close()


def test_two_sigterms_stop_a_worker_router_cleanly(tmp_path):
    """The second SIGTERM lands while the first one's stop is draining
    the workers; it must neither raise nor cut that stop short."""
    shard_dir = str(tmp_path / "shards")
    served = Served(
        tmp_path, "--shards", "2", "--shard-dir", shard_dir, "--worker-procs"
    )
    try:
        corpus = make_ca(num_docs=4, lines_per_doc=2, seed=3)
        status, reply = post_json(
            served.base_url, "/ingest", _batch_payload(corpus)
        )
        assert status == 200, reply
        status, health = get_json(served.base_url, "/health")
        workers = [block["pid"] for block in health["workers"].values()]
        assert len(workers) == 2 and all(workers), health
        served.proc.send_signal(signal.SIGTERM)
        time.sleep(0.05)
        served.proc.send_signal(signal.SIGTERM)
        assert served.proc.wait(timeout=60) == 0, served.output()
    finally:
        served.kill()
    assert "Traceback" not in served.output()
    assert not [pid for pid in workers if _alive(pid)]
    assert not glob.glob(os.path.join(shard_dir, "*.db-wal"))


def test_sigterm_lets_an_inflight_ingest_finish(tmp_path):
    """The router finishes the request it is serving before it closes
    the service: half the batch is sent when SIGTERM lands, yet the
    client gets its 200 and the file holds the whole batch."""
    db = str(tmp_path / "one.db")
    served = Served(tmp_path, "--db", db)
    corpus = make_ca(num_docs=10, lines_per_doc=6, seed=5)
    expected = sum(len(doc.lines) for doc in corpus.documents)
    body = json.dumps(_batch_payload(corpus)).encode("utf-8")
    half = len(body) // 2
    address = urllib.parse.urlsplit(served.base_url)
    conn = http.client.HTTPConnection(
        address.hostname, address.port, timeout=120
    )
    try:
        conn.putrequest("POST", "/ingest")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(body)))
        conn.endheaders(body[:half])
        time.sleep(0.3)
        served.proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)
        conn.send(body[half:])
        response = conn.getresponse()
        status, reply = response.status, json.loads(response.read())
        assert served.proc.wait(timeout=60) == 0, served.output()
    finally:
        conn.close()
        served.kill()
    assert status == 200, reply
    assert reply["ingested_lines"] == expected
    assert not os.path.exists(db + "-wal")
    assert _stored_lines(db) == expected
    assert "Traceback" not in served.output()


def test_a_worker_runs_its_module_once(tmp_path):
    """``python -m repro.service`` imports the worker module once; a
    module run as ``__main__`` after its package imported it makes
    ``runpy`` warn in the worker's log."""
    shard_dir = tmp_path / "shards"
    running = start_sharded_service(
        str(shard_dir), 2, worker_procs=True, k=K, m=M
    )
    running.stop()
    logs = sorted((shard_dir / WORKER_SIDECAR_DIR).glob("worker-*.log"))
    assert len(logs) == 2
    for log in logs:
        text = log.read_text(errors="replace")
        assert "RuntimeWarning" not in text, text
        assert "found in sys.modules" not in text, text
