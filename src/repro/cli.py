"""Command-line interface: ``python -m repro <command>``.

What an open-source release of the prototype ships: ingest a corpus into
a database file, run LIKE/regex/SQL queries against any storage approach,
build the dictionary index, run the automated parameter tuner, and serve
the database over HTTP.

Examples::

    python -m repro ingest --corpus ca --db /tmp/ca.db --k 25 --m 40
    python -m repro search --db /tmp/ca.db --pattern '%President%' \\
        --approach staccato
    python -m repro sql --db /tmp/ca.db \\
        --query "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%Ford%'"
    python -m repro index --db /tmp/ca.db --terms public law congress
    python -m repro tune --corpus ca --size-fraction 0.1 --recall 0.9
    python -m repro serve --db /tmp/ca.db --port 8080
    python -m repro serve --shards 4 --shard-dir /tmp/shards --port 8080
    python -m repro serve --shards 2 --replicas 2 --shard-dir /tmp/shards
    python -m repro serve --db /tmp/ca.db --workers 4 --warm-start

``serve`` starts the concurrent query service of :mod:`repro.service`:
a JSON-over-HTTP server exposing ``POST /ingest`` (atomic
batch ingestion), ``POST /search`` (LIKE/regex, filescan/indexed/auto
plans), ``POST /sql`` (the probabilistic SELECT surface), ``POST
/index`` (dictionary-index rebuild plus pool broadcast), ``GET /stats``
(request metrics, cache and pool counters) and ``GET /health`` --
backed by a reader connection pool and an LRU query-result cache that
ingestion invalidates.  The service is the shard router of
:mod:`repro.service.shards`: ``--db`` serves one file, ``--shards N
--shard-dir DIR`` partitions documents across N StaccatoDB files by
DocId range, queries fan out and merge, and the replies have one
shape.  ``--replicas R`` keeps R read copies of every
shard with circuit-breaker failover (``POST /replicas`` attaches or
detaches copies at runtime).  ``--workers N`` sizes the background job
pool (``POST /jobs``: shard ``rebalance``, ``rebuild_index``,
``cache_snapshot``) and ``--warm-start`` replays the last cache
snapshot so a restart does not begin cold.  The installed console
script ``staccato`` is an alias for this module's ``main``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .bench.report import format_table
from .core.tuning import tune_parameters
from .db.engine import APPROACHES, StaccatoDB
from .db.sql import execute_select
from .ocr.corpus import make_ca, make_db, make_lt, make_scale
from .ocr.engine import SimulatedOcrEngine

__all__ = ["main"]

_CORPORA = {"ca": make_ca, "lt": make_lt, "db": make_db}


def _make_corpus(args: argparse.Namespace):
    if args.corpus == "scale":
        return make_scale(args.lines, seed=args.seed)
    maker = _CORPORA[args.corpus]
    return maker(num_docs=args.docs, lines_per_doc=args.lines, seed=args.seed)


def _cmd_ingest(args: argparse.Namespace) -> int:
    dataset = _make_corpus(args)
    db = StaccatoDB(args.db, k=args.k, m=args.m)
    started = time.perf_counter()
    count = db.ingest(
        dataset,
        SimulatedOcrEngine(seed=args.ocr_seed),
        workers=args.workers,
    )
    elapsed = time.perf_counter() - started
    print(f"ingested {count} lines into {args.db} in {elapsed:.1f}s "
          f"(k={args.k}, m={args.m})")
    for approach in ("kmap", "fullsfa", "staccato"):
        print(f"  {approach:9s} storage: {db.storage_bytes(approach):,} bytes")
    db.close()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .db.planner import execute_plan

    db = StaccatoDB(args.db)
    if args.planned or args.indexed:
        db.load_index()  # the stored dictionary; none -> filescan
    started = time.perf_counter()
    plan_note = ""
    if args.planned:
        plan, answers = execute_plan(
            db, args.pattern, approach=args.approach, num_ans=args.num_ans
        )
        plan_note = f", plan={plan.kind} ({plan.reason})"
    elif args.indexed:
        answers = db.indexed_search(
            args.pattern, approach=args.approach, num_ans=args.num_ans
        )
        plan_note = ", indexed"
    else:
        answers = db.search(
            args.pattern, approach=args.approach, num_ans=args.num_ans
        )
    elapsed = time.perf_counter() - started
    rows = [
        [a.line_id, a.doc_id, a.line_no, f"{a.probability:.6f}"]
        for a in answers
    ]
    print(format_table(["line", "doc", "line_no", "probability"], rows))
    print(f"{len(answers)} answers in {elapsed:.3f}s "
          f"({args.approach}{plan_note})")
    db.close()
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    db = StaccatoDB(args.db)
    started = time.perf_counter()
    result = execute_select(
        db, args.query, approach=args.approach, num_ans=args.num_ans
    )
    elapsed = time.perf_counter() - started
    if result:
        headers = list(result[0])
        rows = [[row[h] for h in headers] for row in result]
        print(format_table(headers, rows))
    print(f"{len(result)} rows in {elapsed:.3f}s")
    db.close()
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    db = StaccatoDB(args.db)
    started = time.perf_counter()
    count = db.build_index(args.terms, approach=args.approach)
    elapsed = time.perf_counter() - started
    print(f"indexed {len(args.terms)} terms, {count} postings "
          f"in {elapsed:.1f}s")
    db.close()
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    dataset = _make_corpus(args)
    ocr = SimulatedOcrEngine(seed=args.ocr_seed)
    sample = dataset.lines()[: args.sample]
    sfas = [
        ocr.recognize_line(text, line_seed=(doc_id, line_no))
        for _, doc_id, line_no, text in sample
    ]
    texts = [text for _, _, _, text in sample]
    result = tune_parameters(
        sfas,
        texts,
        args.queries,
        size_fraction=args.size_fraction,
        recall_target=args.recall,
    )
    status = "feasible" if result.feasible else "infeasible (best attempt)"
    print(f"m={result.m} k={result.k} recall={result.recall:.2f} [{status}]")
    print(f"estimated size {result.size_estimate:,} bytes, "
          f"budget {result.budget_bytes:,} bytes")
    return 0 if result.feasible else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve_forever

    if args.shards > 0 and not args.shard_dir:
        print("error: --shards needs --shard-dir", file=sys.stderr)
        return 2
    if args.shards <= 0 and not args.db:
        print("error: serve needs --db (or --shards/--shard-dir)",
              file=sys.stderr)
        return 2
    if args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return 2
    if args.worker_procs and args.shards <= 0:
        print("error: --worker-procs needs a sharded service (--shards)",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.trace_ring < 1:
        print("error: --trace-ring must be >= 1", file=sys.stderr)
        return 2
    if args.slow_query_ms is not None and args.slow_query_ms < 0:
        print("error: --slow-query-ms must be >= 0", file=sys.stderr)
        return 2
    if args.profile_hz < 0:
        print("error: --profile-hz must be >= 0", file=sys.stderr)
        return 2
    serve_forever(
        args.db,
        host=args.host,
        port=args.port,
        verbose=not args.quiet,
        shards=args.shards,
        shard_dir=args.shard_dir,
        replicas=args.replicas,
        warm_start=args.warm_start,
        worker_procs=args.worker_procs,
        k=args.k,
        m=args.m,
        pool_size=args.pool_size,
        cache_size=args.cache_size,
        index_approach=args.index_approach,
        workers=args.workers,
        trace_enabled=not args.no_trace,
        trace_ring=args.trace_ring,
        slow_query_ms=args.slow_query_ms,
        slow_log_path=args.slow_query_log,
        access_log_path=args.access_log,
        profile_hz=args.profile_hz,
    )
    return 0


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", choices=[*_CORPORA, "scale"], default="ca",
        help="synthetic corpus to generate",
    )
    parser.add_argument("--docs", type=int, default=6)
    parser.add_argument("--lines", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ocr-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Staccato: probabilistic OCR data in an RDBMS "
        "(VLDB 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="OCR a corpus into a database")
    _add_corpus_options(ingest)
    ingest.add_argument("--db", required=True, help="SQLite database path")
    ingest.add_argument("--k", type=int, default=25)
    ingest.add_argument("--m", type=int, default=40)
    ingest.add_argument("--workers", type=int, default=None)
    ingest.set_defaults(func=_cmd_ingest)

    search = sub.add_parser("search", help="run a LIKE/REGEX query")
    search.add_argument("--db", required=True)
    search.add_argument("--pattern", required=True)
    search.add_argument("--approach", choices=APPROACHES, default="staccato")
    search.add_argument("--num-ans", type=int, default=100)
    search.add_argument("--indexed", action="store_true",
                        help="force the index probe plan")
    search.add_argument("--planned", action="store_true",
                        help="let the cost-based planner pick the plan")
    search.set_defaults(func=_cmd_search)

    sql = sub.add_parser("sql", help="run a select-project SQL query")
    sql.add_argument("--db", required=True)
    sql.add_argument("--query", required=True)
    sql.add_argument("--approach", choices=APPROACHES, default="staccato")
    sql.add_argument("--num-ans", type=int, default=100)
    sql.set_defaults(func=_cmd_sql)

    index = sub.add_parser("index", help="build the dictionary index")
    index.add_argument("--db", required=True)
    index.add_argument("--terms", nargs="+", required=True)
    index.add_argument(
        "--approach", choices=("kmap", "staccato"), default="staccato"
    )
    index.set_defaults(func=_cmd_index)

    tune = sub.add_parser("tune", help="auto-tune (m, k) on a labeled sample")
    _add_corpus_options(tune)
    tune.add_argument("--sample", type=int, default=12)
    tune.add_argument("--size-fraction", type=float, default=0.10)
    tune.add_argument("--recall", type=float, default=0.9)
    tune.add_argument(
        "--queries", nargs="+",
        default=["%President%", "%Public Law%", r"REGEX:U.S.C. 2\d\d\d"],
    )
    tune.set_defaults(func=_cmd_tune)

    serve = sub.add_parser(
        "serve", help="serve one database (or a shard set) over a JSON HTTP API"
    )
    serve.add_argument("--db", default=None, help="SQLite database path")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve N StaccatoDB shards instead of one --db")
    serve.add_argument("--shard-dir", default=None,
                       help="directory holding the shard-NNNN.db files")
    serve.add_argument("--replicas", type=int, default=1,
                       help="read replicas per shard (or of the one --db)")
    serve.add_argument("--worker-procs", action="store_true",
                       help="run each shard in its own worker subprocess "
                            "behind the fan-out router (sharded mode only)")
    serve.add_argument("--workers", type=int, default=2,
                       help="background job worker threads (POST /jobs)")
    serve.add_argument("--warm-start", action="store_true",
                       help="reload the last cache_snapshot job's output "
                            "so the result cache does not start cold")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--k", type=int, default=25)
    serve.add_argument("--m", type=int, default=40)
    serve.add_argument("--pool-size", type=int, default=4,
                       help="reader connections kept open")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="query-result cache entries (0 disables)")
    serve.add_argument(
        "--index-approach", choices=("kmap", "staccato"), default="staccato",
        help="approach whose dictionary index indexed plans use",
    )
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable request tracing (GET /traces empties; "
                            "slow-query and access logs need tracing)")
    serve.add_argument("--trace-ring", type=int, default=256,
                       help="finished traces kept in memory for GET /traces")
    serve.add_argument(
        "--slow-query-ms", type=float, default=None,
        help="log a JSON line with the full span tree for any request "
             "slower than this many milliseconds",
    )
    serve.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="slow-query log destination ('-' or unset: stderr)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="structured JSON access log, one line per request "
             "('-' for stderr)",
    )
    serve.add_argument(
        "--profile-hz", type=float, default=0.0,
        help="sampling profiler frequency in samples/second "
             "(0 disables; results at GET /profile)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
