"""The untraced run: spawn the real server, drive it over HTTP, time phases.

One process, one keep-alive connection, closed loop: the next request is
sent only after the previous response has been read.  Responses are kept
and checked after the phase they belong to, so checking never sits
inside a timed wall.
"""

from __future__ import annotations

import bisect
import glob
import http.client
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

import check

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

SPAWN_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0
INDEX_REBUILDS = 3
CALIBRATION_LOOPS = 30000
#: ``calibrate()`` on the sizing box in its common, slower speed state.
REFERENCE_S = 0.0014
#: Calibration samples this close to a request describe its speed.
SPEED_WINDOW_S = 0.25


def server_env() -> dict[str, str]:
    """The server's environment: BLAS pinned to one thread, stable hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """``python -m repro serve`` as users run it, plus ``--quiet``."""

    def __init__(self, plan: dict, out: str) -> None:
        self.data_dir = os.path.join(out, "data")
        os.makedirs(self.data_dir)
        self.log_path = os.path.join(out, "server.log")
        args = [sys.executable, "-m", "repro", "serve", "--quiet", "--port", "0",
                "--m", str(plan["m"]), "--k", str(plan["k"])]
        if plan["shards"]:
            args += ["--shards", str(plan["shards"]), "--shard-dir", self.data_dir]
        else:
            args += ["--db", os.path.join(self.data_dir, "e2e.db")]
        self.peak_rss_mb = float("nan")
        self.proc = None
        self._log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                args, cwd=out, env=server_env(), stdout=self._log, stderr=subprocess.STDOUT
            )
            self.port = self._await_port()
        except BaseException:  # SIGTERM and Ctrl-C included: never leave a server behind
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                for line in handle.read().decode(errors="replace").splitlines():
                    if "listening on http://" in line:
                        return int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("server did not come up:\n" + self.log_tail())

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read().decode(errors="replace")[-2000:]

    def stop(self) -> None:
        """SIGTERM (the graceful path), wait, SIGKILL as the last resort."""
        if self.proc is not None and self.proc.poll() is None:
            try:
                with open(f"/proc/{self.proc.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_mb = int(line.split()[1]) / 1024.0
            except OSError:
                pass
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def db_bytes(self) -> int:
        """Size of the database files; call after :meth:`stop`."""
        return sum(
            os.path.getsize(path) for path in glob.glob(os.path.join(self.data_dir, "*.db*"))
            if not path.endswith(".json")
        )


class Client:
    """One keep-alive HTTP/1.1 connection with Nagle off."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: dict | None = None):
        """``(status, payload, seconds)``; status 0 for a transport failure."""
        data = None if body is None else json.dumps(body).encode()
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - started
            return response.status, json.loads(raw), elapsed
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.conn.close()  # the next call reconnects
            return 0, {"error": {"code": "transport", "message": repr(exc)}}, time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()


def ingest_body(plan: dict, doc: dict) -> dict:
    """One document per request, no ``workers``: the serial write path."""
    return {"dataset": "e2e", "documents": [doc], "ocr_seed": plan["ocr_seed"]}


def pin_to_one_cpu() -> None:
    """Client and server (which inherits this) share one CPU.

    The loop is closed, so they never run at once; sharing a CPU lets the
    client's calibration see exactly the speed the server just ran at.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass  # not permitted here: run unpinned, the numbers are only noisier


def calibrate() -> float:
    """Seconds for a fixed pure-python loop: the CPU's speed right now."""
    started = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - started


class Speed:
    """Calibration samples taken between requests.

    The shared box this was sized on switches, every few seconds and per
    CPU, between speed states 25 % apart; a 10-second phase lands in
    whichever it meets.  Every duration is therefore reported at the
    reference speed: multiplied by ``REFERENCE_S`` over the median
    calibration time around it.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []

    def sample(self, after_seconds: float = 0.0) -> None:
        """One sample, and up to four more after a long request."""
        for _ in range(1 + min(4, int(after_seconds / 0.2))):
            self.cost.append(calibrate())
            self.at.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per measured second over [start, end]."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        if lo == hi:  # nothing that close: fall back to the nearest sample
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_S / statistics.median(self.cost[lo:hi])


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of the pooled samples (nan when empty)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)] if ordered else float("nan")


def engine_counters(stats: dict) -> dict[str, int]:
    return dict(stats.get("requests", {}).get("engine", {}))


def run(plan: dict, out: str, t0: float) -> dict:
    """Drive one workload; returns metrics, diagnostics and failure counts."""
    pin_to_one_cpu()
    checker = check.Checker()
    speed = Speed()
    attempted = failed = 0
    ingests: list[tuple[int, float, float]] = []  # lines, started, seconds
    index_builds: list[tuple[float, float]] = []  # started, seconds
    records: list[dict] = []
    server = None
    try:
        server = Server(plan, out)
        client = Client(server.port)

        def call(method: str, path: str, body: dict | None = None):
            """One request, then the calibration samples that describe it."""
            started = time.perf_counter()
            status, payload, elapsed = client.call(method, path, body)
            speed.sample(elapsed)
            return status, payload, elapsed, started

        def ingest(doc: dict, epoch: int, timed: bool) -> None:
            nonlocal attempted, failed
            attempted += 1
            status, payload, elapsed, started = call("POST", "/ingest", ingest_body(plan, doc))
            if status == 200 and payload.get("ingested_lines") == len(doc["lines"]):
                checker.add_doc(doc, epoch)
                if timed:
                    ingests.append((len(doc["lines"]), started, elapsed))
            else:
                failed += 1
                print(f"FAILED /ingest doc {doc['doc_id']}: {status} {payload}", file=sys.stderr)

        speed.sample()
        for doc in plan["preload"]:
            ingest(doc, 0, timed=False)
        if plan["measured"] == "ingest":
            setup_end = time.perf_counter()
        for doc in plan["bulk"]:
            ingest(doc, 0, timed=True)
        bulk = len(ingests)

        for _ in range(INDEX_REBUILDS):
            attempted += 1
            status, payload, elapsed, started = call(
                "POST", "/index", {"terms": plan["dictionary"], "approach": "staccato", "wait": True}
            )
            if status == 200 and payload.get("postings", 0) > 0:
                index_builds.append((started, elapsed))
            else:
                failed += 1
                print(f"FAILED /index: {status} {payload}", file=sys.stderr)

        for request in plan["warmup"]:
            attempted += 1
            status, payload, _, _ = call("POST", request["endpoint"], request["body"])
            if status != 200:
                failed += 1
                print(f"FAILED warm-up {request['body']}: {status} {payload}", file=sys.stderr)
        _, stats_before, _ = client.call("GET", "/stats")
        if plan["measured"] == "reads":
            setup_end = time.perf_counter()

        for epoch, step in enumerate(plan["epochs"], start=1):
            if step["ingest"] is not None:
                ingest(step["ingest"], epoch, timed=True)
            for request in step["reads"]:
                status, payload, elapsed, started = call("POST", request["endpoint"], request["body"])
                records.append({"request": request, "epoch": epoch, "status": status, "payload": payload,
                                "seconds": elapsed, "started": started})
        _, stats_after, _ = client.call("GET", "/stats")
        client.close()
    finally:
        if server is not None:
            server.stop()

    attempted += len(records)
    failed += checker.check_reads(records)
    good = [r for r in records if r.get("ok")]
    before, after = engine_counters(stats_before), engine_counters(stats_after)
    counters = {name: after[name] - before.get(name, 0) for name in sorted(after)}
    oracle_checked, oracle_failed = check.oracle(plan, checker, records, server.data_dir)
    failed += oracle_failed

    def timings(scale) -> tuple[dict, list[float]]:
        """The six timing metrics from durations passed through ``scale``."""
        ingest_s = [scale(started, seconds) for _, started, seconds in ingests]
        read_ms = [1000.0 * scale(r["started"], r["seconds"]) for r in good]
        # Closed loop, one client: the read phase's time is the sum of its
        # requests' times, live ingests included.
        phase_s = sum(read_ms) / 1000.0 + sum(ingest_s[bulk:])
        nan = float("nan")
        return {
            "setup_s": scale(t0, setup_end - t0),
            "ingest_lines_per_s": sum(n for n, _, _ in ingests) / sum(ingest_s) if ingests else nan,
            "index_build_s": statistics.median(scale(*b) for b in index_builds) if index_builds else nan,
            "query_p50_ms": percentile(read_ms, 50),
            "query_p90_ms": percentile(read_ms, 90),
            "throughput_rps": len(good) / phase_s if good else nan,
        }, read_ms

    metrics, read_ms = timings(lambda started, seconds: seconds * speed.factor(started, started + seconds))
    as_measured, _ = timings(lambda started, seconds: seconds)
    lines_stored = sum(n for n, _, _ in ingests) + sum(len(d["lines"]) for d in plan["preload"])
    metrics.update(
        recall_at_100=checker.recall,
        precision_at_100=checker.precision,
        db_bytes_per_text_byte=server.db_bytes() / plan["text_bytes"],
        server_peak_rss_mb=server.peak_rss_mb,
    )
    samples = {
        "setup_s": 1,
        "ingest_lines_per_s": len(ingests),
        "index_build_s": len(index_builds),
        "query_p50_ms": len(good),
        "query_p90_ms": len(good),
        "throughput_rps": len(good),
        "recall_at_100": checker.quality_samples,
        "precision_at_100": checker.quality_samples,
        "db_bytes_per_text_byte": lines_stored,
        "server_peak_rss_mb": 1,
    }
    by_class: dict[str, list[float]] = {}
    for record, ms in zip(good, read_ms):
        by_class.setdefault(record["request"]["cls"], []).append(ms)
    # Disturbance: how far apart the fastest and slowest fifth of the
    # run's calibration samples are (printed, never gated).
    fifth = len(speed.cost) // 5
    fifths = [statistics.median(speed.cost[i * fifth: (i + 1) * fifth]) for i in range(5)]
    return {
        "metrics": metrics,
        "as_measured": as_measured,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "digest": checker.digest.hexdigest(),
        "counters": counters,
        "oracle_checked": oracle_checked,
        "speed_ratio": max(fifths) / min(fifths),
        "speed": f"{len(speed.cost)} calibrations, median {1000 * statistics.median(speed.cost):.3f} ms "
                 f"(reference {1000 * REFERENCE_S:.3f} ms)",
        "class_ms": {
            name: {"share": len(v) / len(good), "p50": percentile(v, 50)}
            for name, v in sorted(by_class.items())
        },
        "lru_served": sum(1 for r in good if r["payload"].get("cached")),
    }
