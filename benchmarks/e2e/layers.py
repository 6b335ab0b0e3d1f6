"""The traced run: per-layer metrics from spans recorded in the benchmark.

A deterministic sample of the workload's own inputs is replayed,
in-process, through each layer's public functions -- the calls
``ingest_dataset``, ``StaccatoDB.search``, ``indexed_search``,
``choose_plan``, ``execute_select`` and ``QueryService.search`` make --
with a span ``[id, parent, name, layer, request, start, end]`` around
every call.  Each rebuilt path is checked against the real call's
answers, and its time against the real call's (the coverage ratios).
Nothing here is an end-to-end number: the corpus is built with
``workers = nproc`` and the sample is small.

A layer the workload's own requests never enter (the index probe on
scan_cold, the router on single-database workloads) is measured on a
small supplement from the sibling generator with the same seed, so every
per-layer metric is a measured number on every workload; README.md says
on which workload each one is meaningful.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import time

import driver
import workloads
from repro import counters
from repro.automata.trie import DictionaryTrie
from repro.core.approximate import staccato_approximate
from repro.core.kmap import build_kmap
from repro.db import storage
from repro.db.engine import DEFAULT_WINDOW, StaccatoDB
from repro.db.planner import choose_plan
from repro.db.sql import execute_select
from repro.indexing.anchors import anchor_for_query
from repro.indexing.inverted import build_sfa_postings
from repro.indexing.projection import projected_match_probability
from repro.ocr.corpus import Dataset, Document
from repro.ocr.engine import SimulatedOcrEngine
from repro.query.answers import Answer, rank_answers
from repro.query.eval_kernel import KernelEvaluator
from repro.query.like import compile_like
from repro.query.memo import KernelMemo, query_fingerprint
from repro.service import QueryService, ShardedQueryService, start_service
from repro.service.app import check_pattern, run_search_plan
from repro.service.shards import merge_ranked
from repro.service.validation import validate_search
from repro.sfa import serialize
from repro.sfa.kernel import compile_kernel

INGEST_SAMPLE_DOCS = 3  # 24 lines through the staged ingest
EVERY = 8  # every 8th timed read is replayed
SCAN_CAP, INDEXED_CAP, SERVICE_CAP, SUPPLEMENT = 16, 24, 8, 12
#: Root span -> the replayed path whose self-time shares it feeds.  The
#: real ingest call contributes its write spans to the ingest path.
PATHS = {"replay.ingest": "ingest", "db.engine.ingest": "ingest", "replay.scan": "scan",
         "replay.indexed": "indexed"}


class ReplayMismatch(Exception):
    """A rebuilt path did not return the real call's answers."""


class Recorder:
    """Spans kept in memory; times and self times derived afterwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._closed: list = []

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, name.rsplit(".", 1)[0], request, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[6] = time.perf_counter()
            self._stack.pop()
            self._closed = record

    def seconds(self, name: str) -> float:
        return sum(s[6] - s[5] for s in self.spans if s[2] == name)

    def last(self) -> float:
        """Seconds of the span that closed most recently."""
        return self._closed[6] - self._closed[5]

    def self_time_shares(self) -> dict[str, dict[str, float]]:
        """Per replayed path, each layer's share of the path's time: a
        span's self time is its duration minus its children's."""
        self_time = {s[0]: s[6] - s[5] for s in self.spans}
        root_of: dict[int, int] = {}
        for span_id, parent, *_ in self.spans:
            if parent is not None:
                self_time[parent] -= self.spans[span_id][6] - self.spans[span_id][5]
                root_of[span_id] = root_of.get(parent, parent)
        shares: dict[str, dict[str, float]] = {}
        for span_id, root in root_of.items():
            path = PATHS.get(self.spans[root][2])
            if path is not None:
                layers = shares.setdefault(path, collections.Counter())
                layers[self.spans[span_id][3]] += self_time[span_id]
        return {
            path: {layer: value / sum(layers.values()) for layer, value in layers.most_common()}
            for path, layers in shares.items()
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class TimedConn:
    """A sqlite3 connection whose statements and commit are write spans,
    so ``ingest_dataset``'s own writes are timed through its public call."""

    def __init__(self, conn, rec: Recorder) -> None:
        self._conn, self._rec = conn, rec

    def execute(self, *args):
        with self._rec.span("db.storage.write"):
            return self._conn.execute(*args)

    def executemany(self, *args):
        with self._rec.span("db.storage.write"):
            return self._conn.executemany(*args)

    def __enter__(self):
        self._conn.__enter__()
        return self

    def __exit__(self, *exc):
        with self._rec.span("db.storage.write"):
            return self._conn.__exit__(*exc)


def dataset(docs: list[dict]) -> Dataset:
    return Dataset(
        name="e2e",
        documents=[
            Document(doc_id=d["doc_id"], name=d["name"], year=d["year"], loss=d["loss"], lines=tuple(d["lines"]))
            for d in docs
        ],
    )


def spaced(items: list, cap: int) -> list:
    """At most ``cap`` evenly spaced items."""
    if len(items) <= cap:
        return list(items)
    return [items[i * len(items) // cap] for i in range(cap)]


def distinct(requests: list[dict]) -> list[dict]:
    seen: dict[str, dict] = {}
    for request in requests:
        seen.setdefault(request["like"], request)
    return list(seen.values())


def as_filescan(request: dict) -> dict:
    return {"pattern": request["like"], "plan": "filescan", "num_ans": request["body"]["num_ans"]}


# ----------------------------------------------------------------------
def probe_ingest(rec: Recorder, n: collections.Counter, plan: dict, docs: list[dict], path: str) -> StaccatoDB:
    """ocr -> core -> sfa stage by stage, then the real ``ingest_dataset``,
    one document at a time so both see the same CPU speed."""
    ocr = SimulatedOcrEngine(seed=plan["ocr_seed"])
    k, m = plan["k"], plan["m"]
    db = StaccatoDB(path, k=k, m=m)
    for doc in docs:
        for line_no, text in enumerate(doc["lines"]):
            with rec.span("replay.ingest", f"{doc['doc_id']}:{line_no}"):
                with rec.span("ocr.recognize"):
                    sfa = ocr.recognize_line(text, line_seed=(doc["doc_id"], line_no))
                with rec.span("core.kmap"):
                    build_kmap(sfa, k)
                with rec.span("sfa.encode"):
                    blobs = [serialize.to_bytes(sfa)]
                with rec.span("sfa.kernel_compile"):
                    kernel = compile_kernel(sfa)
                    kernel.fingerprint
                with rec.span("sfa.encode"):
                    blobs.append(serialize.kernel_to_bytes(kernel))
                with rec.span("core.approximate"):
                    chunked = staccato_approximate(sfa, m=m, k=k)
                with rec.span("sfa.encode"):
                    blobs.append(serialize.to_bytes(chunked))
                with rec.span("sfa.kernel_compile"):
                    kernel = compile_kernel(chunked)
                    kernel.fingerprint
                with rec.span("sfa.encode"):
                    blobs.append(serialize.kernel_to_bytes(kernel))
            n["staged_ingest_s"] += rec.last()
            n["ingest_lines"] += 1
            n["sfa_edges"] += sfa.num_edges
            n["chunks"] += chunked.num_edges
            n["blob_bytes"] += sum(len(blob) for blob in blobs)
        with rec.span("db.engine.ingest", str(doc["doc_id"])):
            count = storage.ingest_dataset(TimedConn(db.conn, rec), dataset([doc]), ocr, k=k, m=m)
        if count != len(doc["lines"]):
            raise ReplayMismatch(f"ingest_dataset stored {count} of {len(doc['lines'])} lines")
    n["file_bytes"] = os.path.getsize(path)
    n["ingest_coverage"] = (n["staged_ingest_s"] + rec.seconds("db.storage.write")) / rec.seconds("db.engine.ingest")
    return db


def probe_index_build(rec: Recorder, n: collections.Counter, plan: dict, db: StaccatoDB) -> DictionaryTrie:
    trie = DictionaryTrie(plan["dictionary"])
    for key in storage.all_data_keys(db.conn)[: INGEST_SAMPLE_DOCS * workloads.LINES_PER_DOC]:
        graph = storage.load_staccato(db.conn, key)
        with rec.span("indexing.build", str(key)):
            postings = build_sfa_postings(graph, trie)
        n["build_lines"] += 1
        n["build_postings"] += sum(len(p) for p in postings.values())
    with rec.span("db.engine.build_index"):
        db.build_index(plan["dictionary"])
    return trie


def probe_scan(rec: Recorder, n: collections.Counter, plan: dict, db: StaccatoDB, requests: list[dict]) -> None:
    """compile -> fetch -> decode -> DP -> metadata -> rank, vs ``search``."""
    text_chars = db.conn.execute("SELECT SUM(LENGTH(Data)) FROM GroundTruth").fetchone()[0]
    for request in requests:
        like, num_ans = request["like"], request["body"]["num_ans"]
        with rec.span("replay.scan", like):
            with rec.span("automata.compile"):
                query = compile_like(like)
            with rec.span("db.storage.fetch"):
                keys = storage.all_data_keys(db.conn)
                stored = storage.load_kernel_blobs(db.conn, "staccato")
            with rec.span("sfa.kernel_decode"):
                kernels = [serialize.kernel_from_bytes(stored[key][1]) for key in keys]
            with rec.span("query.dp"):
                results = KernelEvaluator(query).evaluate_batch(kernels)
            answers = []
            with rec.span("db.storage.metadata"):
                for key, result in zip(keys, results):
                    if result.probability > 0.0:
                        doc_id, line_no = storage.line_metadata(db.conn, key)
                        answers.append(Answer(key, doc_id, line_no, result.probability))
            with rec.span("query.rank"):
                ranked = rank_answers(answers, num_ans=num_ans)
        staged = rec.last()
        with rec.span("db.engine.search", like):
            real = db.search(like, num_ans=num_ans)
        if ranked != real:
            raise ReplayMismatch(f"staged filescan of {like!r} differs from StaccatoDB.search")
        n["scan_staged_s"] += staged
        n["scan_queries"] += 1
        n["scan_lines"] += len(keys)
        n["fetch_bytes"] += sum(len(stored[key][1]) for key in keys)
        n["dp_cells"] += sum(r.dp_cells for r in results)
        n["dp_transitions"] += sum(r.dp_transitions for r in results)
        n["dfa_states"] += query.num_states
        n["compiles"] += 1
        n["answers"] += len(answers)
        # Paper Table 1, Staccato query cost per line: l*q*k + q^3*(m-1).
        q = query.num_states
        n["table1_cells"] += text_chars * q * plan["k"] + len(keys) * q**3 * (plan["m"] - 1)

    # The memo probe, and what /sql adds to a search: both on a handle
    # whose memo already holds the pattern, so a millisecond of SQL is
    # not lost in the noise of two 60 ms scans.
    memo = KernelMemo()
    memo_db = StaccatoDB(db.path, k=plan["k"], m=plan["m"], kernel_memo=memo)
    try:
        for request in requests[:SERVICE_CAP]:
            like = request["like"]
            memo_db.search(like)
            fingerprint = query_fingerprint(like)
            with rec.span("query.memo_probe", like):
                for kernel_fp, _ in stored.values():
                    memo.get(kernel_fp, fingerprint)
            n["memo_probes"] += len(stored)
            with rec.span("db.sql.execute_select", like):
                execute_select(memo_db, workloads.SQL_TEMPLATE.format(like), num_ans=None)
            n["sql_s"] += rec.last()
            with rec.span("db.engine.search_for_sql", like):
                memo_db.search(like, num_ans=None)
            n["sql_search_s"] += rec.last()
            n["sql_queries"] += 1
    finally:
        memo_db.close()


def probe_indexed(rec: Recorder, n: collections.Counter, db: StaccatoDB, trie: DictionaryTrie,
                  requests: list[dict]) -> None:
    """choose -> probe -> per-candidate decode + projected DP -> rank, vs
    ``indexed_search``; both plans are timed for the planner's regret."""
    for request in requests:
        like, num_ans = request["like"], request["body"]["num_ans"]
        with rec.span("replay.indexed", like):
            with rec.span("db.planner.choose"):
                chosen = choose_plan(db, like)
            choose_s = rec.last()
            with rec.span("automata.compile"):
                query = compile_like(like)
            with rec.span("indexing.probe"):
                anchor = anchor_for_query(like, trie)
                candidates = db.index_postings(anchor)
            answers = []
            for key, postings in candidates.items():
                with rec.span("sfa.graph_decode"):
                    graph = storage.load_staccato(db.conn, key)
                with rec.span("indexing.candidate_eval"):
                    prob = projected_match_probability(graph, query, postings, DEFAULT_WINDOW)
                if prob > 0.0:
                    with rec.span("db.storage.metadata"):
                        doc_id, line_no = storage.line_metadata(db.conn, key)
                    answers.append(Answer(key, doc_id, line_no, prob))
            with rec.span("query.rank"):
                ranked = rank_answers(answers, num_ans=num_ans)
        with rec.span("db.engine.indexed_search", like):
            real = db.indexed_search(like, num_ans=num_ans)
        index_s = rec.last()
        if ranked != real:
            raise ReplayMismatch(f"staged index plan of {like!r} differs from indexed_search")
        with rec.span("db.engine.scan_alternative", like):
            db.search(like, num_ans=num_ans)
        scan_s = rec.last()
        n["indexed_queries"] += 1
        n["compiles"] += 1
        n["dfa_states"] += query.num_states
        n["postings_probed"] += sum(len(p) for p in candidates.values())
        n["candidates"] += len(candidates)
        n["useful_candidates"] += len(answers)
        n["answers"] += len(answers)
        # What ``auto`` cost, planning included, over the better fixed plan.
        taken = index_s if chosen.kind == "index" else scan_s
        n["right_choices"] += taken <= min(index_s, scan_s)
        n["regret_s"] += choose_s + taken - min(index_s, scan_s)


def replay_workload(rec: Recorder, n: collections.Counter, plan: dict, service, steps: list) -> None:
    """The trace sample, in order, through the matching service, in-process."""
    before = counters.global_snapshot()
    cpu = time.process_time()
    for kind, item in steps:
        if kind == "ingest":
            entries = len(service.cache)
            with rec.span("service.app.ingest", str(item["doc_id"])):
                service.ingest(driver.ingest_body(plan, item))
            if entries:  # an ingest into an empty cache says nothing about eviction
                n["evicted"] += entries - len(service.cache)
                n["evicting_ingests"] += 1
        else:
            call = service.sql if item["endpoint"] == "/sql" else service.search
            with rec.span("service.app" + item["endpoint"].replace("/", "."), item["like"]):
                call(item["body"])
            n["replay_requests"] += 1
    n["replay_cpu_s"] = time.process_time() - cpu
    after = counters.global_snapshot()
    for name in after:
        n["engine." + name] = after[name] - before[name]
    stats = service.cache.stats()
    n["cache_hits"], n["cache_misses"] = stats["hits"], stats["misses"]


def probe_service(rec: Recorder, n: collections.Counter, plan: dict, main: str, requests: list[dict],
                  tiny_doc: dict) -> None:
    """What ``QueryService`` and the HTTP front end add to an engine call."""
    kwargs = {"k": plan["k"], "m": plan["m"]}
    on = start_service(main, **kwargs)
    off = start_service(main, trace_enabled=False, **kwargs)
    try:
        clients = driver.Client(on.port), driver.Client(off.port)
        for i, request in enumerate(requests):
            body = as_filescan(request)
            with rec.span("service.validation", request["like"]):
                check_pattern(validate_search(body).pattern)

            on.service.search(body)  # cold: fills the LRU and the service's memo
            variant = {**body, "num_ans": 100 + SERVICE_CAP + i}

            def engine():
                with rec.span("db.engine.plan", request["like"]):
                    with on.service.pool.acquire() as pooled:
                        run_search_plan(pooled, validate_search(variant))
                n["plan_s"] += rec.last()

            def miss():
                with rec.span("service.app.miss", request["like"]):
                    on.service.search(variant)
                n["miss_s"] += rec.last()

            # An LRU miss that hits the memo, against the same plan on the
            # service's own pooled connection; alternate which goes first.
            for step in (engine, miss) if i % 2 else (miss, engine):
                step()
            with rec.span("service.app.hit", request["like"]):
                hit = on.service.search(body)
            n["hit_s"] += rec.last()
            with rec.span("service.server.http", request["like"]):
                status, payload, _ = clients[0].call("POST", "/search", body)
            n["http_s"] += rec.last()
            if status != 200 or not (hit["cached"] and payload["cached"]) or payload["answers"] != hit["answers"]:
                raise ReplayMismatch(f"HTTP and in-process answers differ for {request['like']!r}")
            n["service_requests"] += 1
        # Tracing on against off, on requests that miss the LRU and hit
        # the memo (another num_ans), so the span tree is the full one.
        for request in requests:
            off.service.search(as_filescan(request))
        for round_ in range(3):
            for i, request in enumerate(requests):
                body = {**as_filescan(request), "num_ans": 200 + round_ * len(requests) + i}
                for name, client in zip(("service.trace.on", "service.trace.off"), clients):
                    with rec.span(name, request["like"]):
                        client.call("POST", "/search", body)
        entries = len(on.service.cache)
        with rec.span("service.server.ingest", str(tiny_doc["doc_id"])):
            status, payload, _ = clients[0].call("POST", "/ingest", driver.ingest_body(plan, tiny_doc))
        if status != 200:
            raise ReplayMismatch(f"/ingest of the one-line document failed: {payload}")
        n["ingest_overhead_s"] = rec.last() - payload["elapsed_s"]
        if not n["evicting_ingests"]:
            n["evicted"], n["evicting_ingests"] = entries - len(on.service.cache), 1
        for client in clients:
            client.close()
    finally:
        on.stop()
        off.stop()


def probe_shards(rec: Recorder, n: collections.Counter, plan: dict, paths: list[str], dbs: list[StaccatoDB],
                 requests: list[dict], out: str) -> None:
    """Router cost: a cold 2-shard search against its two engine legs."""
    sidecars = os.path.join(out, "router")
    router = ShardedQueryService(sidecars, len(paths), k=plan["k"], m=plan["m"], paths=paths)
    try:
        for request in requests:
            body = as_filescan(request)
            with rec.span("service.shards.search", request["like"]):
                merged = router.search(body)
            n["router_s"] += rec.last()
            legs = []
            for shard, db in enumerate(dbs):
                with rec.span("db.engine.leg", request["like"]):
                    legs.append((shard, db.search(request["like"], num_ans=body["num_ans"])))
                n["legs_s"] += rec.last()
            with rec.span("service.shards.merge", request["like"]):
                ranked = merge_ranked(legs, body["num_ans"])
            if [(a.doc_id, a.line_no, a.probability) for _, a in ranked] != [
                (row["doc_id"], row["line_no"], row["probability"]) for row in merged["answers"]
            ]:
                raise ReplayMismatch(f"router and merged legs differ for {request['like']!r}")
            n["merged_answers"] += sum(len(answers) for _, answers in legs)
            n["router_requests"] += 1
    finally:
        router.close()


# ----------------------------------------------------------------------
def run(plan: dict, out: str, keep: str) -> dict:
    """Replay the workload's sample layer by layer; returns the outcome."""
    rec, n = Recorder(), collections.Counter()
    sharded = bool(plan["shards"])
    corpus_docs = plan["preload"] + plan["bulk"]
    live = [step["ingest"] for step in plan["epochs"] if step["ingest"]]
    # Documents the plan never ingests: the staged-ingest sample, then
    # the second shard of the router probe.
    extra = workloads.corpus(len(corpus_docs) + len(live) + INGEST_SAMPLE_DOCS + 1, sharded)[-INGEST_SAMPLE_DOCS - 1:]
    last = extra.pop()
    tiny_doc = {**last, "lines": last["lines"][:1]}
    main, side = os.path.join(out, "main.db"), os.path.join(out, "extra.db")

    extra_db = probe_ingest(rec, n, plan, extra, side)
    db = StaccatoDB(main, k=plan["k"], m=plan["m"])
    try:
        with rec.span("harness.corpus"):
            db.ingest(dataset(corpus_docs), SimulatedOcrEngine(seed=plan["ocr_seed"]), workers=os.cpu_count())
        trie = probe_index_build(rec, n, plan, db)

        if plan["workload"] == "repeat_mixed":
            # The whole first epoch, so the class shares survive, then the
            # second epoch's ingest, which is the one that evicts.
            first, second = plan["epochs"][:2]
            steps = [("ingest", first["ingest"])] + [("read", r) for r in first["reads"]]
            steps.append(("ingest", second["ingest"]))
        else:
            steps = [("read", r) for r in workloads.timed_reads(plan)[::EVERY]]
        sample = distinct([item for kind, item in steps if kind == "read"])
        lines = [line for doc in plan["bulk"] for line in doc["lines"]]
        if plan["workload"] == "index_auto":
            anchored = spaced(sample, INDEXED_CAP)
        else:
            anchored = workloads.anchored_schedule(plan["seed"], lines, SUPPLEMENT, 0)[1]

        probe_scan(rec, n, plan, db, spaced(sample, SCAN_CAP))
        probe_indexed(rec, n, db, trie, anchored)
        if sharded:
            service = ShardedQueryService(
                os.path.join(out, "replay"), 2, k=plan["k"], m=plan["m"], paths=[main, side]
            )
        else:
            service = QueryService(main, k=plan["k"], m=plan["m"])
        try:
            replay_workload(rec, n, plan, service, steps)
        finally:
            service.close()
        probe_service(rec, n, plan, main, spaced(sample, SERVICE_CAP), tiny_doc)
        probe_shards(rec, n, plan, [main, side], [db, extra_db], spaced(sample, SERVICE_CAP), out)
    finally:
        db.close()
        extra_db.close()

    os.makedirs(keep, exist_ok=True)
    trace_file = os.path.join(keep, f"trace-{plan['workload']}.jsonl")
    rec.write(trace_file)

    def ms(name: str) -> float:
        return 1000.0 * rec.seconds(name)

    lookups = n["engine.memo_hits"] + n["engine.memo_misses"]
    metrics = {
        "ocr.recognize_ms_per_line": ms("ocr.recognize") / n["ingest_lines"],
        "ocr.sfa_edges_per_line": n["sfa_edges"] / n["ingest_lines"],
        "core.kmap_ms_per_line": ms("core.kmap") / n["ingest_lines"],
        "core.approximate_ms_per_line": ms("core.approximate") / n["ingest_lines"],
        "core.chunks_per_line": n["chunks"] / n["ingest_lines"],
        "sfa.kernel_compile_ms_per_line": ms("sfa.kernel_compile") / n["ingest_lines"],
        "sfa.encode_ms_per_line": ms("sfa.encode") / n["ingest_lines"],
        "sfa.blob_bytes_per_line": n["blob_bytes"] / n["ingest_lines"],
        "sfa.kernel_decode_ms_per_line": ms("sfa.kernel_decode") / n["scan_lines"],
        "sfa.graph_decode_ms_per_candidate": ms("sfa.graph_decode") / n["candidates"],
        "db.storage.write_ms_per_line": ms("db.storage.write") / n["ingest_lines"],
        "db.storage.file_bytes_per_line": n["file_bytes"] / n["ingest_lines"],
        "db.storage.fetch_ms_per_line": ms("db.storage.fetch") / n["scan_lines"],
        "db.storage.fetch_bytes_per_line": n["fetch_bytes"] / n["scan_lines"],
        "db.storage.metadata_us_per_answer": 1000.0 * ms("db.storage.metadata") / n["answers"],
        "automata.compile_ms_per_query": ms("automata.compile") / n["compiles"],
        "automata.dfa_states_per_query": n["dfa_states"] / n["compiles"],
        "query.dp_ms_per_line": ms("query.dp") / n["scan_lines"],
        "query.dp_cells_per_line": n["dp_cells"] / n["scan_lines"],
        "query.dp_transitions_per_line": n["dp_transitions"] / n["scan_lines"],
        "query.ns_per_dp_transition": 1e6 * ms("query.dp") / n["dp_transitions"],
        "query.dp_cells_vs_table1_ratio": n["dp_cells"] / n["table1_cells"],
        "query.rank_us_per_answer": 1000.0 * ms("query.rank") / n["answers"],
        "query.memo_probe_us_per_line": 1000.0 * ms("query.memo_probe") / n["memo_probes"],
        "query.memo_hit_ratio": n["engine.memo_hits"] / lookups if lookups else 0.0,
        "indexing.build_ms_per_line": ms("indexing.build") / n["build_lines"],
        "indexing.postings_per_line": n["build_postings"] / n["build_lines"],
        "indexing.probe_ms_per_query": ms("indexing.probe") / n["indexed_queries"],
        "indexing.postings_probed_per_query": n["postings_probed"] / n["indexed_queries"],
        "indexing.candidates_per_query": n["candidates"] / n["indexed_queries"],
        "indexing.candidate_eval_ms_per_candidate": ms("indexing.candidate_eval") / n["candidates"],
        "indexing.useful_candidate_ratio": n["useful_candidates"] / n["candidates"],
        "db.planner.choose_ms_per_query": ms("db.planner.choose") / n["indexed_queries"],
        "db.planner.right_choice_ratio": n["right_choices"] / n["indexed_queries"],
        "db.planner.regret_ms_per_query": 1000.0 * n["regret_s"] / n["indexed_queries"],
        "db.engine.search_ms_per_query": ms("db.engine.search") / n["scan_queries"],
        "db.engine.indexed_search_ms_per_query": ms("db.engine.indexed_search") / n["indexed_queries"],
        "db.engine.scan_coverage_ratio": n["scan_staged_s"] / rec.seconds("db.engine.search"),
        "db.engine.ingest_coverage_ratio": n["ingest_coverage"],
        "db.sql.overhead_ms_per_query": 1000.0 * (n["sql_s"] - n["sql_search_s"]) / n["sql_queries"],
        "service.validation_us_per_request": 1000.0 * ms("service.validation") / n["service_requests"],
        "service.cache.hit_ratio": n["cache_hits"] / (n["cache_hits"] + n["cache_misses"]),
        "service.cache.evicted_per_ingest": n["evicted"] / n["evicting_ingests"],
        "service.app.miss_overhead_ms_per_request": 1000.0 * (n["miss_s"] - n["plan_s"]) / n["service_requests"],
        "service.shards.fanout_overhead_ms_per_request": 1000.0 * (n["router_s"] - n["legs_s"]) / n["router_requests"],
        "service.shards.merge_us_per_answer": 1000.0 * ms("service.shards.merge") / n["merged_answers"],
        "service.server.wire_ms_per_request": 1000.0 * (n["http_s"] - n["hit_s"]) / n["service_requests"],
        "service.server.ingest_overhead_ms_per_doc": 1000.0 * n["ingest_overhead_s"],
        "service.trace.overhead_ratio": rec.seconds("service.trace.on") / rec.seconds("service.trace.off"),
        "service.cpu_ms_per_request": 1000.0 * n["replay_cpu_s"] / n["replay_requests"],
    }
    for name in ("dp_cells", "dp_transitions", "lines_scanned", "postings_probed", "index_candidates",
                 "memo_hits", "memo_misses", "plan_index", "plan_scan"):
        metrics[f"counters.{name}"] = n["engine." + name]
    return {
        "metrics": metrics,
        "attempted": len(rec.spans),
        "failed": 0,
        "trace_file": trace_file,
        "spans": len(rec.spans),
        "self_time_share": {
            f"{path}/{layer}": share
            for path, layers in rec.self_time_shares().items()
            for layer, share in layers.items()
        },
    }
