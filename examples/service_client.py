"""Service quickstart: the query service end to end, over HTTP.

Mirrors examples/quickstart.py for the serving path, in two acts:

1. **Single database** -- start the StaccatoDB query service over one
   file on an ephemeral port (the one-shard case of the router: every
   reply carries ``shards == [0]``), batch-ingest a small Congress Acts corpus through
   ``POST /ingest``, build the dictionary index over the wire with
   ``POST /index``, then ask the paper's style of questions -- a LIKE
   query via ``POST /search`` (twice, to show the result cache), an
   indexed regex query, and a probabilistic SELECT via ``POST /sql`` --
   and read the service counters from ``GET /stats``.
2. **Sharded** -- the same corpus into a 2-shard service
   (:mod:`repro.service.shards`): ``/ingest`` routes each document to
   its owning shard, ``/search`` fans out and merges the ranking
   (answers carry their source shard), and a shard-scoped query hits
   only one shard.  Background jobs ride along: the index rebuild runs
   as a polled ``rebuild_index`` job (:func:`submit_and_poll`, the
   canonical ``POST /jobs`` + ``GET /jobs/<id>`` loop), then a
   ``rebalance`` job moves a DocId range between the live shards and
   the merged ranking comes back unchanged.

Every response is checked; any HTTP error exits non-zero, so CI can run
this file as a smoke test of the README quickstart.

Run:  PYTHONPATH=src python examples/service_client.py
"""

import sys
import tempfile
import time

from repro.bench.report import format_table
from repro.bench.service_load import get_json, post_json
from repro.ocr.corpus import make_ca
from repro.service import start_service, start_sharded_service


class ServiceError(RuntimeError):
    """An endpoint answered with an error status."""


def checked_post(
    base_url: str, path: str, payload: dict, expect: int = 200
) -> dict:
    status, reply = post_json(base_url, path, payload)
    if status != expect:
        raise ServiceError(f"POST {path} -> {status}: {reply}")
    return reply


def checked_get(base_url: str, path: str) -> dict:
    status, reply = get_json(base_url, path)
    if status != 200:
        raise ServiceError(f"GET {path} -> {status}: {reply}")
    return reply


def submit_and_poll(
    base_url: str,
    job_type: str,
    params: dict | None = None,
    timeout_s: float = 60.0,
    poll_s: float = 0.05,
) -> dict:
    """Submit a background job and poll it to a terminal state.

    The canonical client loop for the job API: ``POST /jobs`` answers
    202 with the queued job row; ``GET /jobs/<id>`` reports state and
    progress until the job lands in ``succeeded`` / ``failed`` /
    ``cancelled``.  Returns the terminal row; raises on failure.
    """
    job = checked_post(
        base_url,
        "/jobs",
        {"type": job_type, "params": params or {}},
        expect=202,
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        row = checked_get(base_url, f"/jobs/{job['id']}")
        if row["state"] not in ("queued", "running"):
            if row["state"] != "succeeded":
                raise ServiceError(
                    f"job {row['id']} ({job_type}) {row['state']}: "
                    f"{row['error']}"
                )
            return row
        time.sleep(poll_s)
    raise ServiceError(f"job {job['id']} ({job_type}) never finished")


def batch_payload(corpus) -> dict:
    return {
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


def answer_table(answers) -> str:
    rows = [
        [a["line_id"], a["doc_id"], a["line_no"], f"{a['probability']:.6f}"]
        + ([a["shard"]] if "shard" in a else [])
        for a in answers
    ]
    headers = ["line", "doc", "line_no", "probability"]
    if answers and "shard" in answers[0]:
        headers.append("shard")
    return format_table(headers, rows)


def single_database_demo(tmp: str, corpus) -> None:
    running = start_service(f"{tmp}/ca.db", k=6, m=10, pool_size=2)
    try:
        print(f"single-db service up at {running.base_url}")
        health = checked_get(running.base_url, "/health")
        print(f"GET /health -> {health['status']}, "
              f"{health['lines']} lines stored\n")

        reply = checked_post(running.base_url, "/ingest", batch_payload(corpus))
        print(f"POST /ingest -> {reply['ingested_lines']} lines "
              f"from corpus {reply['dataset']!r} "
              f"in {reply['elapsed_s']:.1f}s\n")

        # /index is a rebuild_index background job now; "wait": true
        # keeps the synchronous response shape (plus the job id).
        reply = checked_post(
            running.base_url,
            "/index",
            {"terms": ["public", "law", "congress", "president"],
             "wait": True},
        )
        print(f"POST /index -> {reply['postings']} postings over "
              f"{reply['terms']} terms (pool reloaded: "
              f"{reply['shards']['0']['reloaded']}, job {reply['job_id']})\n")

        query = {"pattern": "%President%", "approach": "staccato", "num_ans": 5}
        reply = checked_post(running.base_url, "/search", query)
        if reply["shards"] != [0]:
            raise ServiceError(
                f"a one-file service is the one-shard router, got {reply}"
            )
        print(f"POST /search {query['pattern']!r} -> {reply['count']} answers "
              f"(plan={reply['plan']}, cached={reply['cached']}):")
        print(answer_table(reply["answers"]))

        again = checked_post(running.base_url, "/search", query)
        print(f"\nsame query again -> cached={again['cached']} "
              "(served from the LRU result cache)\n")

        indexed = {"pattern": r"REGEX:Public Law (8|9)\d", "plan": "indexed",
                   "num_ans": 5}
        reply = checked_post(running.base_url, "/search", indexed)
        print(f"POST /search {indexed['pattern']!r} -> plan={reply['plan']}, "
              f"{reply['count']} answers\n")

        sql = ("SELECT DocId, Loss FROM Claims "
               "WHERE DocData LIKE '%Congress%'")
        reply = checked_post(
            running.base_url, "/sql", {"query": sql, "num_ans": 5}
        )
        print(f"POST /sql -> {reply['count']} documents:")
        rows = [
            [r["DocId"], r["Loss"], f"{r['Probability']:.6f}"]
            for r in reply["rows"]
        ]
        print(format_table(["DocId", "Loss", "Probability"], rows))

        stats = checked_get(running.base_url, "/stats")
        cache = stats["cache"]
        print(f"\nGET /stats -> {stats['requests']['total']} requests, "
              f"cache hits={cache['hits']} misses={cache['misses']} "
              f"(hit rate {cache['hit_rate']:.0%})")
    finally:
        running.stop()
    print("single-db service stopped\n")


def sharded_demo(tmp: str, corpus) -> None:
    # range_width=2 so this tiny corpus's DocIds stripe over both shards.
    running = start_sharded_service(
        f"{tmp}/shards", num_shards=2, k=6, m=10, pool_size=2, range_width=2
    )
    try:
        print(f"2-shard service up at {running.base_url}")
        reply = checked_post(running.base_url, "/ingest", batch_payload(corpus))
        routed = ", ".join(
            f"shard {index}: {entry['ingested_lines']} lines"
            for index, entry in sorted(reply["shards"].items())
        )
        print(f"POST /ingest -> routed by DocId range ({routed})\n")

        # The same rebuild as a polled background job: submit via
        # POST /jobs, watch GET /jobs/<id> until it succeeds.
        row = submit_and_poll(
            running.base_url,
            "rebuild_index",
            {"terms": ["public", "law", "congress", "president"]},
        )
        print(f"rebuild_index job {row['id']} -> per-shard rebuild: "
              + ", ".join(f"shard {i}: {s['postings']} postings"
                          for i, s in sorted(row["result"]["shards"].items()))
              + "\n")

        query = {"pattern": "%President%", "approach": "staccato", "num_ans": 5}
        reply = checked_post(running.base_url, "/search", query)
        print(f"POST /search {query['pattern']!r} -> {reply['count']} answers "
              f"merged across shards {reply['shards']} "
              f"(plans={reply['plans']}):")
        print(answer_table(reply["answers"]))

        scoped = {**query, "shards": [0]}
        reply = checked_post(running.base_url, "/search", scoped)
        print(f"\nsame query scoped to shard 0 -> {reply['count']} answers "
              f"from shards {reply['shards']}\n")

        # Online rebalance: move shard 0's DocId range to shard 1 while
        # the service keeps serving; the merged ranking is unchanged on
        # the placement-independent projection (line ids are
        # shard-local, shard tags legitimately change hands).
        before = checked_post(running.base_url, "/search", query)
        row = submit_and_poll(
            running.base_url,
            "rebalance",
            {"doc_lo": 0, "doc_hi": 1, "source": 0, "target": 1},
        )
        moved = row["result"]
        print(f"rebalance job {row['id']} -> moved "
              f"{moved['moved_docs']} docs / {moved['moved_lines']} lines "
              f"from shard {moved['source']} to shard {moved['target']}")
        after = checked_post(running.base_url, "/search", query)
        same = [
            (a["doc_id"], a["line_no"], a["probability"])
            for a in before["answers"]
        ] == [
            (a["doc_id"], a["line_no"], a["probability"])
            for a in after["answers"]
        ]
        if not same:
            raise ServiceError("answers changed across the rebalance")
        print("merged answers identical before/after the move: True\n")

        health = checked_get(running.base_url, "/health")
        print(f"GET /health -> {health['status']}, "
              f"{health['lines']} total lines across "
              f"{health['num_shards']} shards {health['shard_lines']}")
    finally:
        running.stop()
    print("sharded service stopped")


def main() -> int:
    corpus = make_ca(num_docs=3, lines_per_doc=6, seed=7)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            single_database_demo(tmp, corpus)
            sharded_demo(tmp, corpus)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
