"""Answer checking: response shape, quality against ground truth, and an
offline oracle that re-evaluates sampled requests from the database files.

A rejected response is a failed operation: it has no latency sample.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sqlite3
import sys

from repro.automata.trie import DictionaryTrie
from repro.bench.metrics import evaluate_answers
from repro.db.engine import DEFAULT_WINDOW
from repro.indexing.anchors import anchor_for_query
from repro.indexing.postings import Posting
from repro.indexing.projection import projected_match_probability
from repro.query.eval_sfa import match_probability
from repro.query.like import compile_like
from repro.sfa import serialize

ORACLE_REQUESTS = 10
TOLERANCE = 1e-9


class Checker:
    """Ground truth of what has been ingested, and the per-response checks."""

    def __init__(self) -> None:
        #: clean text by (doc_id, line_no)
        self.text: dict[tuple[int, int], str] = {}
        #: first epoch a key was visible in; keys are the rows of either
        #: endpoint: (doc_id, line_no) for /search, (doc_id,) for /sql
        self.since: dict[tuple, int] = {}
        self.digest = hashlib.sha256()
        self._dfas: dict[str, object] = {}
        self._recalls: list[float] = []
        self._precisions: list[float] = []

    def add_doc(self, doc: dict, epoch: int) -> None:
        self.since[(doc["doc_id"],)] = epoch
        for line_no, text in enumerate(doc["lines"]):
            self.text[(doc["doc_id"], line_no)] = text
            self.since[(doc["doc_id"], line_no)] = epoch

    def visible(self, key: tuple, epoch: int) -> bool:
        return self.since.get(key, sys.maxsize) <= epoch

    def dfa(self, like: str):
        if like not in self._dfas:
            self._dfas[like] = compile_like(like)
        return self._dfas[like]

    # ------------------------------------------------------------------
    def _reject(self, record: dict) -> str | None:
        """Why a 200 response is not a well-formed ranked relation, if so."""
        payload, request = record["payload"], record["request"]
        sql = request["endpoint"] == "/sql"
        rows = payload.get("rows" if sql else "answers")
        if not isinstance(rows, list) or payload.get("count") != len(rows):
            return "rows/count malformed"
        if not isinstance(payload.get("cached"), bool):
            return "no 'cached' flag"
        if len(rows) > request["body"]["num_ans"]:
            return "more rows than num_ans"
        last = 1.0 + TOLERANCE
        for row in rows:
            key = (row.get("DocId"),) if sql else (row.get("doc_id"), row.get("line_no"))
            if not self.visible(key, record["epoch"]):
                return f"row names something never ingested: {key}"
            prob = row.get("Probability" if sql else "probability")
            if not isinstance(prob, float) or not 0.0 < prob <= last:
                return f"probability {prob!r} outside (0, 1] or not descending"
            last = prob
        return None

    def check_reads(self, records: list[dict]) -> int:
        """Mark each record ``ok`` or not; returns how many were rejected."""
        rejected = 0
        for record in records:
            request = record["request"]
            if record["status"] != 200:
                reason = f"status {record['status']}: {record['payload']}"
            else:
                reason = self._reject(record)
            record["ok"] = reason is None
            if reason is not None:
                rejected += 1
                print(f"REJECTED {request['endpoint']} {request['like']}: {reason}", file=sys.stderr)
                continue
            ranked = ranked_rows(record)
            self.digest.update(
                json.dumps([request["endpoint"], request["like"], request["body"]["num_ans"],
                            [[*key, repr(prob)] for key, prob in ranked]]).encode()
            )
            if request["endpoint"] == "/search" and request["body"]["num_ans"] == 100:
                query = self.dfa(request["like"])
                truth = {
                    key for key, text in self.text.items()
                    if self.visible(key, record["epoch"]) and query.accepts(text)
                }
                quality = evaluate_answers({key for key, _ in ranked}, truth)
                self._recalls.append(quality.recall)
                self._precisions.append(quality.precision)
        return rejected

    @property
    def quality_samples(self) -> int:
        return len(self._recalls)

    @property
    def recall(self) -> float:
        return sum(self._recalls) / len(self._recalls) if self._recalls else float("nan")

    @property
    def precision(self) -> float:
        return sum(self._precisions) / len(self._precisions) if self._precisions else float("nan")


def ranked_rows(record: dict) -> list[tuple[tuple, float]]:
    """A response's ranking as ``[(key, probability)]``; the key is
    ``(doc_id, line_no)`` for /search and ``(DocId,)`` for /sql."""
    if record["request"]["endpoint"] == "/sql":
        return [((row["DocId"],), row["Probability"]) for row in record["payload"]["rows"]]
    return [((row["doc_id"], row["line_no"]), row["probability"]) for row in record["payload"]["answers"]]


# ----------------------------------------------------------------------
def _stored_lines(data_dir: str):
    """Every stored line of every database file: key, DataKey, chunk graph
    and that file's postings by term."""
    for path in sorted(glob.glob(os.path.join(data_dir, "*.db"))):
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            rows = conn.execute(
                "SELECT m.DocId, m.SFANum, m.DataKey, g.GraphBlob FROM MasterData m "
                "JOIN StaccatoGraph g ON g.DataKey = m.DataKey ORDER BY m.DataKey"
            ).fetchall()
            postings = conn.execute("SELECT Term, DataKey, U, V, Rank, Offset FROM InvertedIndex").fetchall()
        finally:
            conn.close()
        by_term: dict[str, dict[int, set[Posting]]] = {}
        for term, data_key, u, v, rank, offset in postings:
            by_term.setdefault(term, {}).setdefault(data_key, set()).add(
                Posting(u=u, v=v, rank=rank, offset=offset)
            )
        for doc_id, line_no, data_key, blob in rows:
            yield (doc_id, line_no), data_key, serialize.from_bytes(blob), by_term


def _expected(record: dict, stored: list, trie: DictionaryTrie, checker: Checker) -> dict[tuple, float]:
    """Probability of every visible key under the plan the server reported."""
    request = record["request"]
    like = request["like"]
    query = checker.dfa(like)
    indexed = str(record["payload"].get("plan", "")).endswith("index")
    anchor = anchor_for_query(like, trie) if indexed else None
    line_probs: dict[tuple, float] = {}
    for key, data_key, graph, by_term in stored:
        if not checker.visible(key, record["epoch"]):
            continue
        if indexed:
            postings = by_term.get(anchor, {}).get(data_key)
            if not postings:
                continue
            prob = projected_match_probability(graph, query, postings, DEFAULT_WINDOW)
        else:
            prob = match_probability(graph, query)
        if prob > 0.0:
            line_probs[key] = prob
    if request["endpoint"] != "/sql":
        return line_probs
    miss: dict[tuple, float] = {}
    for (doc_id, _), prob in line_probs.items():
        miss[(doc_id,)] = miss.get((doc_id,), 1.0) * (1.0 - prob)
    return {key: 1.0 - value for key, value in miss.items() if 1.0 - value > 0.0}


def oracle(plan: dict, checker: Checker, records: list[dict], data_dir: str) -> tuple[int, int]:
    """Re-evaluate evenly spaced requests with the dict DP over the stored
    ``SFA1`` blobs: every returned probability to 1e-9, and nothing
    outside a truncated answer may outrank its last row (ranking exact
    up to ties).  Returns ``(checked, mismatched)``.
    """
    good = [r for r in records if r.get("ok")]
    if not good:
        return 0, 0
    count = min(ORACLE_REQUESTS, len(good))
    sample = [good[(2 * i + 1) * len(good) // (2 * count)] for i in range(count)]
    stored = list(_stored_lines(data_dir))
    trie = DictionaryTrie(plan["dictionary"])
    mismatched = 0
    for record in sample:
        expected = _expected(record, stored, trie, checker)
        ranked = ranked_rows(record)
        reason = None
        for key, prob in ranked:
            if abs(expected.get(key, 0.0) - prob) > TOLERANCE:
                reason = f"{key}: served {prob!r}, stored data gives {expected.get(key, 0.0)!r}"
                break
        if reason is None:
            returned = {key for key, _ in ranked}
            floor = ranked[-1][1] if len(ranked) == record["request"]["body"]["num_ans"] else 0.0
            left_out = [k for k, p in expected.items() if k not in returned and p > floor + TOLERANCE]
            if left_out:
                reason = f"{len(left_out)} lines outrank the served answers, e.g. {left_out[0]}"
        if reason is not None:
            mismatched += 1
            print(f"ORACLE MISMATCH {record['request']['endpoint']} {record['request']['like']}: {reason}",
                  file=sys.stderr)
    return len(sample), mismatched
