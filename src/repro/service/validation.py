"""Request validation and structured API errors.

Every endpoint parses its JSON body through one of the ``validate_*``
functions below, which either return a typed request object or raise
:class:`ApiError`.  The HTTP layer turns an ApiError into a structured
response body::

    {"error": {"code": "bad_request", "message": "..."}}

with the error's HTTP status, so clients can branch on ``code`` without
scraping messages.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..db.engine import APPROACHES
from ..db.storage import DEFAULT_APPROACHES
from ..ocr.corpus import Dataset, Document

__all__ = [
    "ApiError",
    "SearchRequest",
    "SqlRequest",
    "IngestRequest",
    "IndexRequest",
    "ReplicaRequest",
    "JobSubmitRequest",
    "RebalanceParams",
    "validate_search",
    "validate_sql",
    "validate_ingest",
    "validate_index",
    "validate_replicas",
    "validate_job_submit",
    "validate_rebalance_params",
    "PLANS",
    "MAX_LINE_CHARS",
    "MAX_INGEST_LINES",
    "REPLICA_ACTIONS",
]

PLANS = ("filescan", "indexed", "auto")

#: Representations an ingest batch may request.
INGEST_APPROACHES = ("map", "kmap", "fullsfa", "staccato")

#: Representations the dictionary index may cover (paper Section 4).
INDEX_APPROACHES = ("kmap", "staccato")

#: What ``POST /replicas`` can do to one shard's replica set.
REPLICA_ACTIONS = ("attach", "detach")

#: The longest line ``/ingest`` builds.  Construction is superlinear in
#: the line length and holds the shard's write lock: at m=40 k=25 a
#: 58-character line takes 0.03 s, a 1 000-character one 2.5 s.  The
#: corpus generators write at most 91 characters.
MAX_LINE_CHARS = 512

#: The most lines one ``/ingest`` body may carry, over all its
#: documents.  The shard's write lock is held for the whole batch, so at
#: 0.03 s per line this caps one request's hold at about two minutes;
#: without it only the 32 MiB body cap bounds the count.
MAX_INGEST_LINES = 4096


class ApiError(Exception):
    """A client-visible error with an HTTP status and stable code."""

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "bad_request",
        hint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.hint = hint

    def to_payload(self) -> dict[str, Any]:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.hint is not None:
            error["hint"] = self.hint
        return {"error": error}


@dataclass(frozen=True, slots=True)
class SearchRequest:
    pattern: str
    approach: str
    plan: str
    num_ans: int | None
    shards: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class SqlRequest:
    query: str
    approach: str
    num_ans: int | None
    shards: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class IngestRequest:
    dataset: Dataset
    ocr_seed: int
    approaches: tuple[str, ...]
    workers: int | None


@dataclass(frozen=True, slots=True)
class IndexRequest:
    terms: tuple[str, ...]
    approach: str
    shards: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class ReplicaRequest:
    action: str
    shard: int
    replica: int | None = None


@dataclass(frozen=True, slots=True)
class JobSubmitRequest:
    type: str
    params: Mapping[str, Any]
    wait: bool = False


@dataclass(frozen=True, slots=True)
class RebalanceParams:
    doc_lo: int
    doc_hi: int
    source: int
    target: int


# ----------------------------------------------------------------------
def _mapping(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ApiError(400, "request body must be a JSON object")
    return payload


def _required_str(payload: Mapping[str, Any], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ApiError(400, f"{key!r} must be a non-empty string")
    return value


def _choice(
    payload: Mapping[str, Any], key: str, choices: Sequence[str], default: str
) -> str:
    value = payload.get(key, default)
    if value not in choices:
        raise ApiError(
            400, f"{key!r} must be one of {list(choices)}, got {value!r}"
        )
    return value


def _optional_int(
    payload: Mapping[str, Any],
    key: str,
    default: int | None,
    minimum: int | None = None,
) -> int | None:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(400, f"{key!r} must be an integer or null")
    if minimum is not None and value < minimum:
        raise ApiError(400, f"{key!r} must be >= {minimum}")
    return value


def _stored_int(
    payload: Mapping[str, Any], key: str, default: int | None
) -> int | None:
    """An integer bound for an SQLite INTEGER column: past 64 bits the
    driver raises ``OverflowError`` mid-transaction, so refuse it here."""
    value = _optional_int(payload, key, default)
    if value is not None and not -(2**63) <= value < 2**63:
        raise ApiError(400, f"{key!r} must fit a signed 64-bit integer")
    return value


def _optional_shards(payload: Mapping[str, Any]) -> tuple[int, ...] | None:
    """The optional ``shards`` scope: a list of shard indices, or None
    (range-checked by the router, which knows how many shards it has)."""
    value = payload.get("shards")
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ApiError(400, "'shards' must be a non-empty list of shard indices")
    indices: list[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int) or item < 0:
            raise ApiError(400, "'shards' entries must be integers >= 0")
        if item not in indices:
            indices.append(item)
    return tuple(sorted(indices))


# ----------------------------------------------------------------------
def validate_search(payload: Any) -> SearchRequest:
    """``POST /search`` body -> SearchRequest."""
    body = _mapping(payload)
    return SearchRequest(
        pattern=_required_str(body, "pattern"),
        approach=_choice(body, "approach", APPROACHES, "staccato"),
        plan=_choice(body, "plan", PLANS, "filescan"),
        num_ans=_optional_int(body, "num_ans", default=100, minimum=1),
        shards=_optional_shards(body),
    )


def validate_sql(payload: Any) -> SqlRequest:
    """``POST /sql`` body -> SqlRequest."""
    body = _mapping(payload)
    return SqlRequest(
        query=_required_str(body, "query"),
        approach=_choice(body, "approach", APPROACHES, "staccato"),
        num_ans=_optional_int(body, "num_ans", default=100, minimum=1),
        shards=_optional_shards(body),
    )


def validate_index(payload: Any) -> IndexRequest:
    """``POST /index`` body -> IndexRequest."""
    body = _mapping(payload)
    raw_terms = body.get("terms")
    if (
        not isinstance(raw_terms, list)
        or not raw_terms
        or not all(isinstance(t, str) and t for t in raw_terms)
    ):
        raise ApiError(400, "'terms' must be a non-empty list of dictionary words")
    return IndexRequest(
        terms=tuple(raw_terms),
        approach=_choice(body, "approach", INDEX_APPROACHES, "staccato"),
        shards=_optional_shards(body),
    )


def validate_replicas(payload: Any) -> ReplicaRequest:
    """``POST /replicas`` body -> ReplicaRequest."""
    body = _mapping(payload)
    action = body.get("action")
    if action not in REPLICA_ACTIONS:
        raise ApiError(
            400,
            f"'action' must be one of {list(REPLICA_ACTIONS)}, got {action!r}",
        )
    shard = _optional_int(body, "shard", default=None, minimum=0)
    if shard is None:
        raise ApiError(400, "'shard' must be an integer shard index")
    replica = _optional_int(body, "replica", default=None, minimum=0)
    if action == "detach" and replica is None:
        raise ApiError(400, "'replica' names which replica to detach")
    return ReplicaRequest(action=action, shard=shard, replica=replica)


def validate_job_submit(payload: Any) -> JobSubmitRequest:
    """``POST /jobs`` body -> JobSubmitRequest.

    Membership of ``type`` in the registry -- and the shape of
    ``params`` -- are the owning service's call, so only the envelope
    is checked here.
    """
    body = _mapping(payload)
    job_type = _required_str(body, "type")
    params = body.get("params", {})
    if not isinstance(params, Mapping):
        raise ApiError(400, "'params' must be a JSON object")
    wait = body.get("wait", False)
    if not isinstance(wait, bool):
        raise ApiError(400, "'wait' must be a boolean")
    return JobSubmitRequest(type=job_type, params=params, wait=wait)


def validate_rebalance_params(
    params: Mapping[str, Any], num_shards: int
) -> RebalanceParams:
    """``rebalance`` job params -> RebalanceParams."""
    body = _mapping(params)
    doc_lo = _optional_int(body, "doc_lo", default=None, minimum=0)
    doc_hi = _optional_int(body, "doc_hi", default=None, minimum=0)
    if doc_lo is None or doc_hi is None:
        raise ApiError(
            400, "rebalance needs integer 'doc_lo' and 'doc_hi' bounds"
        )
    if doc_hi < doc_lo:
        raise ApiError(400, "'doc_hi' must be >= 'doc_lo'")
    source = _optional_int(body, "source", default=None, minimum=0)
    target = _optional_int(body, "target", default=None, minimum=0)
    if source is None or target is None:
        raise ApiError(
            400, "rebalance needs integer 'source' and 'target' shard indices"
        )
    for name, index in (("source", source), ("target", target)):
        if index >= num_shards:
            raise ApiError(
                400,
                f"unknown {name} shard {index}; this service has "
                f"{num_shards} shards (0..{num_shards - 1})",
                code="unknown_shard",
            )
    if source == target:
        raise ApiError(400, "'source' and 'target' must be different shards")
    return RebalanceParams(
        doc_lo=doc_lo, doc_hi=doc_hi, source=source, target=target
    )


def validate_ingest(payload: Any) -> IngestRequest:
    """``POST /ingest`` body -> IngestRequest (a one-batch Dataset)."""
    body = _mapping(payload)
    raw_docs = body.get("documents")
    if not isinstance(raw_docs, list) or not raw_docs:
        raise ApiError(400, "'documents' must be a non-empty list")
    name = body.get("dataset", "service-batch")
    if not isinstance(name, str) or not name:
        raise ApiError(400, "'dataset' must be a non-empty string")
    documents: list[Document] = []
    seen_ids: set[int] = set()
    total_lines = 0
    for position, raw in enumerate(raw_docs):
        doc = _mapping(raw)
        doc_id = _stored_int(doc, "doc_id", default=None)
        if doc_id is None:
            raise ApiError(400, f"documents[{position}] needs an integer 'doc_id'")
        if doc_id in seen_ids:
            raise ApiError(400, f"duplicate doc_id {doc_id} in batch")
        seen_ids.add(doc_id)
        lines = doc.get("lines")
        if (
            not isinstance(lines, list)
            or not lines
            or not all(isinstance(line, str) for line in lines)
        ):
            raise ApiError(
                400,
                f"documents[{position}].lines must be a non-empty list of strings",
            )
        total_lines += len(lines)
        if total_lines > MAX_INGEST_LINES:
            raise ApiError(
                400,
                f"an ingest batch may carry at most {MAX_INGEST_LINES} "
                "lines in total",
            )
        for number, line in enumerate(lines):
            if not line or len(line) > MAX_LINE_CHARS:
                raise ApiError(
                    400,
                    f"documents[{position}].lines[{number}] must have 1 to "
                    f"{MAX_LINE_CHARS} characters, not {len(line)}",
                )
        loss = doc.get("loss", 0.0)
        if isinstance(loss, bool) or not isinstance(loss, (int, float)):
            raise ApiError(400, f"documents[{position}].loss must be a number")
        # json.loads accepts NaN and reads 1e400 as inf; the relation
        # can hold neither (NaN is stored as NULL, inf is served back as
        # the non-JSON token Infinity), and a huge int does not convert.
        try:
            loss = float(loss)
        except OverflowError:
            loss = math.inf
        if not math.isfinite(loss):
            raise ApiError(
                400, f"documents[{position}].loss must be a finite number"
            )
        doc_name = doc.get("name", f"doc-{doc_id}")
        if not isinstance(doc_name, str):
            raise ApiError(400, f"documents[{position}].name must be a string")
        documents.append(
            Document(
                doc_id=doc_id,
                name=doc_name,
                year=_stored_int(doc, "year", default=0) or 0,
                loss=loss,
                lines=tuple(lines),
            )
        )
    raw_approaches = body.get("approaches", list(DEFAULT_APPROACHES))
    if not isinstance(raw_approaches, list) or not raw_approaches:
        raise ApiError(400, "'approaches' must be a non-empty list")
    bad = [a for a in raw_approaches if a not in INGEST_APPROACHES]
    if bad:
        raise ApiError(
            400, f"unknown approaches {bad!r}; choose from {list(INGEST_APPROACHES)}"
        )
    workers = _optional_int(body, "workers", default=None, minimum=1)
    if workers is not None:
        # Client-supplied, so bound it: each worker is a forked process.
        workers = min(workers, os.cpu_count() or 1)
    return IngestRequest(
        dataset=Dataset(name=name, documents=documents),
        ocr_seed=_optional_int(body, "ocr_seed", default=0) or 0,
        approaches=tuple(raw_approaches),
        workers=workers,
    )
