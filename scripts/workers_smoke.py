#!/usr/bin/env python3
"""CI smoke test for the subprocess-worker topology.

Boots the real CLI (``python -m repro serve --shards 2 --shard-dir ...
--worker-procs``) on an ephemeral port, then:

1. ingests a tiny corpus and runs a traced ``/search`` whose span tree
   is stitched across the process boundary (the router's ``shard_leg``
   spans carry the workers' echoed subtrees as remote children, down to
   ``engine_scan`` work counters);
2. asks one pattern at ``num_ans`` 100, then at 10 and 2, and verifies
   the narrower replies come from the result cache as the first rows of
   the first reply (a top-n answer is a prefix of a top-N answer);
3. ingests one document into ``shard-0000.db`` from a second process,
   bypassing the router, and verifies the next identical ``/search`` is
   not served from the result cache and returns that document (the
   cache is valid by the file's ``PRAGMA data_version``);
4. SIGKILLs one worker (pid taken from the ``GET /health`` worker
   census) and verifies the supervisor respawns it -- ``/health``
   returns to ``ok`` with a fresh pid and ``/metrics`` counts a
   ``worker_restart`` event;
5. SIGTERMs the router twice, 50 ms apart, and verifies a clean exit
   (status 0, no ``Traceback`` or ``RuntimeWarning`` in the router's
   output or the worker logs) that leaves no orphaned worker processes
   behind.

Exits non-zero on the first violation.

Run:  PYTHONPATH=src python scripts/workers_smoke.py
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.bench.service_load import get_json, post_json
from repro.db.engine import shard_path
from repro.ocr.corpus import make_ca

_SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


#: Step 2's second process: one document of one line, straight into a
#: shard file.
INGEST_ONE = """
import sys
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import Dataset, Document

document = Document(int(sys.argv[2]), "outside", 2011, 1.0, (sys.argv[3],))
with StaccatoDB(sys.argv[1], k=4, m=6) as db:
    db.ingest(Dataset(name="outside", documents=[document]))
"""
OUTSIDE_DOC = 10


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def pick_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def await_health(base_url: str, timeout_s: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout_s
    health: dict = {}
    while time.monotonic() < deadline:
        try:
            status, health = get_json(base_url, "/health")
            if status == 200 and health.get("status") == "ok":
                return health
        except (urllib.error.URLError, OSError, ConnectionError):
            pass
        time.sleep(0.2)
    fail(f"service never became healthy: {health}")
    return health  # unreachable


def span_nodes(tree: dict):
    yield tree
    for child in tree.get("children", ()):
        yield from span_nodes(child)


def main() -> int:
    port = pick_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as tmp:
        router_log = os.path.join(tmp, "router.log")
        with open(router_log, "wb") as out:
            router = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--shards", "2", "--shard-dir", f"{tmp}/shards",
                    "--worker-procs",
                    "--host", "127.0.0.1", "--port", str(port),
                    "--k", "4", "--m", "6",
                ],
                env=env,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
        base_url = f"http://127.0.0.1:{port}"
        worker_pids: list[int] = []
        try:
            health = await_health(base_url)
            workers = health.get("workers") or {}
            if set(workers) != {"0", "1"}:
                fail(f"expected 2 workers in /health, got {workers}")

            corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            status, reply = post_json(
                base_url,
                "/ingest",
                {
                    "documents": [
                        {
                            "doc_id": doc.doc_id,
                            "year": doc.year,
                            "lines": list(doc.lines),
                        }
                        for doc in corpus.documents
                    ],
                    "ocr_seed": 0,
                },
            )
            if status != 200:
                fail(f"ingest answered {status}: {reply}")

            # 1. Traced search: the span tree is stitched across the
            # process boundary (each shard_leg carries the worker's
            # echoed subtree grafted as a remote child).
            request = urllib.request.Request(
                base_url + "/search",
                data=json.dumps(
                    {"pattern": "%Congress%", "trace": True}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                trace_id = response.headers.get("X-Trace-Id")
                body = json.loads(response.read())
            if not trace_id:
                fail("traced response missing X-Trace-Id header")
            tree = body.get("trace", {}).get("spans")
            if not tree:
                fail("traced response missing inline span tree")
            legs = [
                node for node in span_nodes(tree)
                if node.get("name") == "shard_leg"
            ]
            if not legs:
                fail("no shard_leg spans in the routed trace")
            remote_roots = [
                child
                for leg in legs
                for child in leg.get("children", ())
                if (child.get("attrs") or {}).get("remote") is True
            ]
            if not remote_roots:
                fail("no worker-side span tree crossed the boundary")
            if not any(
                (node.get("attrs") or {}).get("counters", {}).get(
                    "lines_scanned", 0
                ) > 0
                for root in remote_roots
                for node in span_nodes(root)
                if node.get("name") == "engine_scan"
            ):
                fail("stitched worker subtree lacks engine_scan counters")

            # 2. A narrower num_ans is a slice of the cached wider reply.
            status, wide = post_json(
                base_url, "/search", {"pattern": "%e%", "num_ans": 100}
            )
            if status != 200 or wide.get("cached") or wide.get("count", 0) < 3:
                fail(f"/search at num_ans 100: {status} {wide}")
            for num_ans in (10, 2):
                status, reply = post_json(
                    base_url, "/search", {"pattern": "%e%", "num_ans": num_ans}
                )
                if (
                    status != 200
                    or reply.get("cached") is not True
                    or reply.get("answers") != wide["answers"][:num_ans]
                    or reply.get("count") != len(reply["answers"])
                ):
                    fail(
                        f"/search at num_ans {num_ans} is not the cached "
                        f"first rows of the reply at 100: {status} {reply}"
                    )

            # 3. A second process writes a served file directly; the
            # next identical search must not come from the cache.
            query = {"pattern": "%annual%", "num_ans": 50}
            post_json(base_url, "/search", query)
            status, reply = post_json(base_url, "/search", query)
            if status != 200 or not reply.get("cached"):
                fail(f"a repeated /search was not cached: {status} {reply}")
            subprocess.run(
                [
                    sys.executable, "-c", INGEST_ONE,
                    shard_path(f"{tmp}/shards", 0), str(OUTSIDE_DOC),
                    "The President shall submit the annual budget",
                ],
                env=env,
                check=True,
            )
            status, reply = post_json(base_url, "/search", query)
            found = {answer["doc_id"] for answer in reply.get("answers", ())}
            if status != 200 or reply.get("cached") or OUTSIDE_DOC not in found:
                fail(
                    "a document another process committed to shard-0000.db "
                    f"was not seen by the next /search: {status} {reply}"
                )

            # 4. Kill one worker; the supervisor must bring it back.
            victim = workers["0"]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            recovered: dict = {}
            while time.monotonic() < deadline:
                status, health = get_json(base_url, "/health")
                recovered = (health.get("workers") or {}).get("0") or {}
                if (
                    status == 200
                    and health.get("status") == "ok"
                    and recovered.get("pid") not in (None, victim)
                    and recovered.get("restarts", 0) >= 1
                ):
                    break
                time.sleep(0.2)
            else:
                fail(f"worker 0 never recovered from SIGKILL: {recovered}")
            with urllib.request.urlopen(
                base_url + "/metrics", timeout=30
            ) as response:
                text = response.read().decode("utf-8")
            match = re.search(
                r'staccato_events_total\{event="worker_restart"\} (\d+)', text
            )
            if match is None or int(match.group(1)) < 1:
                fail("worker_restart event missing from /metrics")

            status, health = get_json(base_url, "/health")
            worker_pids = [
                block["pid"]
                for block in (health.get("workers") or {}).values()
                if block.get("pid")
            ]
        finally:
            if router.poll() is None:
                # A second SIGTERM lands while the first one's stop runs.
                router.terminate()
                time.sleep(0.05)
                router.terminate()
                try:
                    router.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    router.kill()
                    fail("router did not exit within 30s of SIGTERM")

        # 5. Clean shutdown: exit 0, nothing raised or warned, no
        # orphaned workers.
        if router.returncode != 0:
            fail(f"router exited {router.returncode}")
        for log in [router_log, *glob.glob(f"{tmp}/shards/workers/*.log")]:
            with open(log, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            for sign in ("Traceback", "RuntimeWarning"):
                if sign in text:
                    fail(f"{sign} in {os.path.basename(log)}:\n{text}")
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            fail(f"worker pid {pid} survived router shutdown (orphan)")
    print(
        "workers smoke: traced fan-out + cached narrower num_ans + another "
        "writer seen + SIGKILL recovery + clean drain OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
