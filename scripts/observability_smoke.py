#!/usr/bin/env python3
"""CI smoke test for the observability surface.

Starts a real service (ephemeral port), ingests a tiny corpus, then:

1. runs a traced ``/search`` (``"trace": true``) and checks the
   response carries ``X-Trace-Id`` plus an inline span tree with the
   expected legs (handler, plan, engine scan) and engine work counters
   on the ``engine_scan`` span;
2. re-fetches the same trace from the ring via ``GET /traces/<id>``;
3. repeats the scan with a different ``NumAns`` -- a query-cache miss
   that the cross-request kernel memo must serve -- then scrapes
   ``GET /metrics`` and validates it is well-formed Prometheus text
   exposition (content type, line grammar, HELP/TYPE pairing,
   cumulative histogram buckets) carrying every
   ``staccato_engine_*_total`` counter, with the memo hit/miss
   counters having moved.

Exits non-zero on the first violation.

Run:  PYTHONPATH=src python scripts/observability_smoke.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import urllib.request

from repro import counters
from repro.bench.service_load import get_json, post_json
from repro.ocr.corpus import make_ca
from repro.service import start_service

SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?[0-9.eE+Inf]+$"
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def span_names(tree: dict) -> set[str]:
    names = {tree["name"]}
    for child in tree.get("children", ()):
        names |= span_names(child)
    return names


def find_span(tree: dict, name: str) -> dict | None:
    if tree["name"] == name:
        return tree
    for child in tree.get("children", ()):
        found = find_span(child, name)
        if found is not None:
            return found
    return None


def check_prometheus(text: str) -> None:
    helped, typed = set(), set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
        elif line.startswith("# TYPE "):
            typed.add(line.split()[2])
        elif line:
            if not SAMPLE.match(line):
                fail(f"malformed exposition line: {line!r}")
    if helped != typed:
        fail(f"HELP/TYPE mismatch: {helped ^ typed}")
    buckets = re.findall(
        r'staccato_requests_duration_ms_bucket\{endpoint="search",'
        r'le="[^"]+"\} (\d+)',
        text,
    )
    counts = [int(count) for count in buckets]
    if not counts or counts != sorted(counts):
        fail(f"histogram buckets missing or not cumulative: {counts}")
    if "staccato_uptime_seconds" not in text:
        fail("staccato_uptime_seconds gauge missing")
    engine = dict(
        re.findall(r"^staccato_engine_(\w+)_total (\d+)$", text, flags=re.M)
    )
    if set(engine) != set(counters.COUNTER_NAMES):
        fail(f"engine counter families wrong: {sorted(engine)}")
    if int(engine["lines_scanned"]) <= 0 or int(engine["dp_cells"]) <= 0:
        fail(f"engine counters did not move: {engine}")
    if int(engine["memo_hits"]) <= 0 or int(engine["memo_misses"]) <= 0:
        fail(f"kernel memo counters did not move: {engine}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        running = start_service(f"{tmp}/smoke.db", k=4, m=6)
        try:
            corpus = make_ca(num_docs=2, lines_per_doc=3, seed=1)
            status, _ = post_json(
                running.base_url,
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
                fail(f"ingest answered {status}")

            # 1. Traced request: header + inline span tree.
            request = urllib.request.Request(
                running.base_url + "/search",
                data=json.dumps(
                    {"pattern": "%Congress%", "plan": "filescan", "trace": True}
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
            names = span_names(tree)
            for expected in ("search", "handler", "plan", "engine_scan"):
                if expected not in names:
                    fail(f"span {expected!r} missing from trace: {names}")
            scan = find_span(tree, "engine_scan")
            span_counters = (scan.get("attrs") or {}).get("counters")
            if not span_counters or span_counters.get("lines_scanned", 0) <= 0:
                fail(f"engine_scan span lacks work counters: {scan}")

            # 2. The same trace is in the ring.
            status, record = get_json(running.base_url, f"/traces/{trace_id}")
            if status != 200 or record["trace_id"] != trace_id:
                fail(f"GET /traces/{trace_id} answered {status}")

            # 2b. The same scan with a different NumAns misses the
            # query cache but must be served by the kernel memo; the
            # /metrics scrape below asserts the hit counter moved.
            status, _ = post_json(
                running.base_url,
                "/search",
                {"pattern": "%Congress%", "plan": "filescan", "num_ans": 2},
            )
            if status != 200:
                fail(f"memo-warm search answered {status}")

            # 3. /metrics is valid Prometheus text.
            with urllib.request.urlopen(
                running.base_url + "/metrics", timeout=30
            ) as response:
                content_type = response.headers.get("Content-Type", "")
                text = response.read().decode("utf-8")
            if not content_type.startswith("text/plain; version=0.0.4"):
                fail(f"unexpected /metrics content type: {content_type}")
            check_prometheus(text)
        finally:
            running.stop()
    print("observability smoke: traced search + ring fetch + /metrics OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
