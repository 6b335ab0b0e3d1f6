"""What one request does against one database file.

The helpers every topology shares, whichever leg reaches the file (see
:mod:`repro.service.legs`): the up-front pattern check, the plan a
``/search`` request runs on one pooled connection, the JSON shape of one
answer row, and the index digest a warm start compares.  The service
itself -- endpoints, cache, jobs -- is the shard router of
:mod:`repro.service.shards`, over one file or many.
"""

from __future__ import annotations

from ..automata.regex import RegexError
from ..db.engine import StaccatoDB
from ..db.planner import execute_plan
from ..query.answers import Answer
from ..query.like import compile_like
from . import trace
from .validation import ApiError, SearchRequest

__all__ = [
    "run_search_plan",
    "answer_row",
    "check_pattern",
    "index_fingerprint",
]


def check_pattern(pattern: str) -> None:
    """Reject an uncompilable pattern up front, as a structured 400.

    Compilation is deterministic, so letting a bad pattern reach the
    evaluation path would fail *every* replica it touches -- tripping
    circuit breakers and answering 503 for healthy shards over what is
    purely a client mistake.
    """
    try:
        compile_like(pattern)
    except RegexError as exc:
        raise ApiError(400, str(exc), code="bad_pattern") from exc


def index_fingerprint(db: StaccatoDB) -> list:
    """A cheap digest of the persisted dictionary index.

    Line counts alone cannot tell a warm start that ``POST /index`` ran
    between snapshot and restart -- a rebuild changes plan labels and
    projected evaluations without touching ``MasterData``.  The digest
    covers the postings (count plus key/offset sums) and the ``IndexMeta``
    record; a rebuild over different terms or approach changes it, while
    an identical rebuild (deterministic postings) legitimately keeps
    cached results valid.  Shaped as nested lists so it JSON round-trips
    comparably.
    """
    totals = db.conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(DataKey), 0), COALESCE(SUM(Offset), 0) "
        "FROM InvertedIndex"
    ).fetchone()
    meta = db.conn.execute(
        "SELECT Key, Value FROM IndexMeta ORDER BY Key"
    ).fetchall()
    return [list(totals), [list(row) for row in meta]]


def answer_row(answer: Answer) -> dict[str, object]:
    """One :class:`Answer` as the JSON row the API returns."""
    return {
        "line_id": answer.line_id,
        "doc_id": answer.doc_id,
        "line_no": answer.line_no,
        "probability": answer.probability,
    }


def run_search_plan(
    db: StaccatoDB, request: SearchRequest
) -> tuple[str, list[Answer]]:
    """Execute one search request's plan against one database.

    What every shard leg runs; returns the plan label actually used
    plus the ranked answers.
    """
    with trace.span("plan", requested=request.plan) as plan_span:
        if request.plan == "auto":
            plan, answers = execute_plan(
                db,
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = f"auto:{plan.kind}"
        elif request.plan == "indexed":
            answers = db.indexed_search(
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = (
                "indexed"
                if db.index_covers(request.pattern, request.approach)
                else "indexed:filescan-fallback"
            )
        else:
            answers = db.search(
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = "filescan"
        if plan_span is not None:
            plan_span.annotate(plan=label, answers=len(answers))
    return label, answers
