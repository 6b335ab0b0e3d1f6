"""A small SQL layer for single-table select-project queries.

The paper's interface promise is that "enterprise users can ask their
existing queries directly" -- e.g. Figure 1(C):

    SELECT DocId, Loss FROM Claims
    WHERE Year = 2010 AND DocData LIKE '%Ford%';

This module parses exactly that class of queries (projection, conjunctive
WHERE with comparisons on scalar document columns and LIKE on the OCR
column ``DocData``) and evaluates it against a :class:`StaccatoDB`.  The
output is a probabilistic relation: the projected columns plus a
``Probability`` column.  Per-document probability combines the document's
line probabilities as independent events:
``P(doc) = 1 - prod(1 - p_line)``.

Beyond the paper's prototype, the layer also supports *expected
aggregates* over the probabilistic relation -- the direction the paper's
Section 7 names as future work ("using aggregation with a probabilistic
RDBMS"): ``COUNT(*)`` returns the expected number of qualifying
documents, ``SUM(col)`` the expected sum ``sum_d P(d) * col(d)`` (both
exact by linearity of expectation), and ``AVG(col)`` the ratio of those
two expectations (the standard first-order approximation of E[avg]).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import StaccatoDB

__all__ = [
    "SqlError",
    "ParsedSelect",
    "parse_select",
    "execute_select",
    "shard_select",
    "shard_select_rows",
    "merge_shard_rows",
    "aggregate_full_rows",
]

DOC_COLUMNS = {"docid", "docname", "year", "loss"}
#: Canonical spellings of the scalar document columns, keyed lowercase.
CANONICAL_COLUMNS = {
    "docid": "DocId",
    "docname": "DocName",
    "year": "Year",
    "loss": "Loss",
}
OCR_COLUMN = "docdata"
_COMPARATORS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class SqlError(ValueError):
    """Raised on unsupported or malformed SQL."""


AGGREGATE_FUNCTIONS = {"sum", "count", "avg"}


@dataclass(slots=True)
class ParsedSelect:
    """The parsed form of a supported SELECT statement."""

    columns: list[str]
    table: str
    scalar_predicates: list[tuple[str, str, object]] = field(default_factory=list)
    like_patterns: list[str] = field(default_factory=list)
    aggregates: list[tuple[str, str]] = field(default_factory=list)
    order_by: tuple[str, bool] | None = None  # (column, descending)
    limit: int | None = None

    @property
    def is_aggregate(self) -> bool:
        """True when the projection is made of aggregate functions."""
        return bool(self.aggregates)


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<string>'[^']*(?:''[^']*)*')  # one scan, not a step per char
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<op><>|!=|<=|>=|=|<|>|,|\*|\(|\))
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )""",
    re.VERBOSE,
)


def _tokenize(sql: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    text = sql.strip().rstrip(";")
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise SqlError(f"cannot tokenize SQL at: {text[pos:pos + 20]!r}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of SQL")
        self.pos += 1
        return token

    def expect_word(self, word: str) -> None:
        kind, value = self.take()
        if kind != "word" or value.lower() != word:
            raise SqlError(f"expected {word.upper()}, got {value!r}")

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)


def _unquote(literal: str) -> str:
    return literal[1:-1].replace("''", "'")


def parse_select(sql: str) -> ParsedSelect:
    """Parse a single-table select-project (or expected-aggregate) query."""
    stream = _TokenStream(_tokenize(sql))
    stream.expect_word("select")
    columns: list[str] = []
    aggregates: list[tuple[str, str]] = []
    while True:
        kind, value = stream.take()
        if kind == "op" and value == "*":
            columns.append("*")
        elif kind == "word" and (
            value.lower() in AGGREGATE_FUNCTIONS
            and stream.peek() == ("op", "(")
        ):
            stream.take()  # '('
            arg_kind, arg = stream.take()
            if arg_kind == "op" and arg == "*":
                argument = "*"
            elif arg_kind == "word":
                argument = arg
            else:
                raise SqlError(f"bad aggregate argument {arg!r}")
            closing = stream.take()
            if closing != ("op", ")"):
                raise SqlError(f"unclosed aggregate {value}(")
            func = value.lower()
            if func == "count" and argument != "*":
                raise SqlError("only COUNT(*) is supported")
            if func in ("sum", "avg") and argument.lower() not in (
                "loss", "year", "docid"
            ):
                raise SqlError(f"cannot aggregate column {argument!r}")
            aggregates.append((func, argument))
        elif kind == "word":
            columns.append(value)
        else:
            raise SqlError(f"bad projection column {value!r}")
        nxt = stream.peek()
        if nxt is not None and nxt == ("op", ","):
            stream.take()
            continue
        break
    if aggregates and columns:
        raise SqlError("cannot mix aggregates with plain projection columns")
    stream.expect_word("from")
    kind, table = stream.take()
    if kind != "word":
        raise SqlError(f"bad table name {table!r}")
    parsed = ParsedSelect(columns=columns, table=table, aggregates=aggregates)
    nxt = stream.peek()
    if nxt is not None and nxt[0] == "word" and nxt[1].lower() == "where":
        stream.take()
        while True:
            kind, column = stream.take()
            if kind != "word":
                raise SqlError(f"bad predicate column {column!r}")
            kind, op = stream.take()
            if kind == "word" and op.lower() == "like":
                kind, literal = stream.take()
                if kind != "string":
                    raise SqlError("LIKE needs a quoted pattern")
                if column.lower() != OCR_COLUMN:
                    raise SqlError(
                        f"LIKE is supported on the OCR column DocData, "
                        f"not {column!r}"
                    )
                parsed.like_patterns.append(_unquote(literal))
            elif kind == "op" and op in _COMPARATORS:
                kind, literal = stream.take()
                if kind == "string":
                    value: object = _unquote(literal)
                elif kind == "number":
                    value = float(literal) if "." in literal else int(literal)
                else:
                    raise SqlError(f"bad comparison literal {literal!r}")
                if column.lower() not in DOC_COLUMNS:
                    raise SqlError(f"unknown scalar column {column!r}")
                parsed.scalar_predicates.append((column, op, value))
            else:
                raise SqlError(f"unsupported operator {op!r}")
            nxt = stream.peek()
            if nxt is None or nxt[0] != "word" or nxt[1].lower() != "and":
                break
            stream.take()
    _parse_trailing_clauses(stream, parsed)
    if not stream.exhausted:
        raise SqlError(f"unexpected trailing tokens near {stream.peek()!r}")
    return parsed


def _parse_trailing_clauses(stream: _TokenStream, parsed: ParsedSelect) -> None:
    """``ORDER BY col [ASC|DESC]`` and ``LIMIT n``."""
    nxt = stream.peek()
    if nxt is not None and nxt[0] == "word" and nxt[1].lower() == "order":
        stream.take()
        stream.expect_word("by")
        kind, column = stream.take()
        if kind != "word":
            raise SqlError(f"bad ORDER BY column {column!r}")
        if column.lower() not in DOC_COLUMNS | {"probability"}:
            raise SqlError(f"cannot ORDER BY {column!r}")
        descending = False
        direction = stream.peek()
        if direction is not None and direction[0] == "word" and direction[
            1
        ].lower() in ("asc", "desc"):
            stream.take()
            descending = direction[1].lower() == "desc"
        parsed.order_by = (column, descending)
    nxt = stream.peek()
    if nxt is not None and nxt[0] == "word" and nxt[1].lower() == "limit":
        stream.take()
        kind, literal = stream.take()
        if kind != "number" or "." in literal:
            raise SqlError(f"bad LIMIT value {literal!r}")
        parsed.limit = int(literal)


def execute_select(
    db: StaccatoDB,
    sql: str,
    approach: str = "staccato",
    num_ans: int | None = 100,
    parsed: ParsedSelect | None = None,
) -> list[dict[str, object]]:
    """Run a select-project query, returning a probabilistic relation.

    Rows are per *document* (as in the Figure 1(C) claims query): the
    projected columns plus ``Probability``, sorted by descending
    probability.  ``parsed`` overrides the parse of ``sql`` -- the shard
    router passes the widened per-shard plan of :func:`shard_select`
    here so every shard evaluates the same predicates but returns the
    mergeable full relation.
    """
    if parsed is None:
        parsed = parse_select(sql)
    where = " AND ".join(
        f"{col} {'!=' if op == '<>' else op} ?"
        for col, op, _ in parsed.scalar_predicates
    )
    params = tuple(value for _, _, value in parsed.scalar_predicates)
    doc_sql = "SELECT DocId, DocName, Year, Loss FROM Documents"
    if where:
        doc_sql += f" WHERE {where}"
    docs = {
        row[0]: {"DocId": row[0], "DocName": row[1], "Year": row[2], "Loss": row[3]}
        for row in db.conn.execute(doc_sql, params)
    }
    if not docs:
        if parsed.is_aggregate:
            return [
                {
                    "COUNT(*)"
                    if func == "count"
                    else f"{func.upper()}({CANONICAL_COLUMNS[arg.lower()]})": 0.0
                    for func, arg in parsed.aggregates
                }
            ]
        return []

    # Combine the LIKE predicates: each yields per-line probabilities that
    # aggregate per document as independent events.
    doc_probs: dict[int, float] = {doc_id: 1.0 for doc_id in docs}
    if parsed.like_patterns:
        keys = [
            key
            for (key,) in db.conn.execute(
                "SELECT DataKey FROM MasterData WHERE DocId IN ({})".format(
                    ",".join("?" * len(docs))
                ),
                tuple(docs),
            )
        ]
        for pattern in parsed.like_patterns:
            answers = db.search(pattern, approach=approach, num_ans=None, data_keys=keys)
            miss_prob = {doc_id: 1.0 for doc_id in docs}
            for answer in answers:
                if answer.doc_id in miss_prob:
                    miss_prob[answer.doc_id] *= 1.0 - answer.probability
            for doc_id in docs:
                doc_probs[doc_id] *= 1.0 - miss_prob[doc_id]

    if parsed.is_aggregate:
        result: dict[str, object] = {}
        expected_count = sum(doc_probs.values())
        for func, argument in parsed.aggregates:
            if func == "count":
                result["COUNT(*)"] = expected_count
                continue
            lookup = {name.lower(): name for name in next(iter(docs.values()))}
            actual = lookup[argument.lower()]
            expected_sum = sum(
                doc_probs[doc_id] * float(row[actual])  # type: ignore[arg-type]
                for doc_id, row in docs.items()
            )
            if func == "sum":
                result[f"SUM({actual})"] = expected_sum
            else:
                result[f"AVG({actual})"] = (
                    expected_sum / expected_count if expected_count else 0.0
                )
        return [result]

    projected = []
    for doc_id, row in docs.items():
        prob = doc_probs[doc_id]
        if prob <= 0.0:
            continue
        if parsed.columns == ["*"]:
            out = dict(row)
        else:
            lookup = {name.lower(): name for name in row}
            out = {}
            for col in parsed.columns:
                actual = lookup.get(col.lower())
                if actual is None:
                    raise SqlError(f"unknown projection column {col!r}")
                out[actual] = row[actual]
        out["Probability"] = prob
        projected.append((doc_id, out))

    if parsed.order_by is not None:
        column, descending = parsed.order_by
        if column.lower() == "probability":
            projected.sort(
                key=lambda item: item[1]["Probability"], reverse=descending
            )
        else:
            lookup = {name.lower(): name for name in ("DocId", "DocName", "Year", "Loss")}
            actual = lookup[column.lower()]
            projected.sort(
                key=lambda item: docs[item[0]][actual],  # type: ignore[index]
                reverse=descending,
            )
    else:
        projected.sort(
            key=lambda item: (-float(item[1]["Probability"]), item[0])
        )
    rows_out = [out for _, out in projected]
    if parsed.limit is not None:
        rows_out = rows_out[: parsed.limit]
    if num_ans is not None:
        rows_out = rows_out[:num_ans]
    return rows_out


# ----------------------------------------------------------------------
# Sharded execution: each shard holds a disjoint set of documents, so a
# select-project query distributes as "run everywhere, merge".  The
# per-shard plan must return enough to merge losslessly: the full scalar
# row (the ORDER BY column may not be projected) with no LIMIT/NumAns
# cutoff, and for aggregates the *base* expectations (COUNT/SUM) that
# AVG is a ratio of -- per-shard averages do not combine.
# ----------------------------------------------------------------------
def shard_select(parsed: ParsedSelect) -> ParsedSelect:
    """The widened plan one shard runs so the router can merge exactly."""
    if parsed.is_aggregate:
        base: list[tuple[str, str]] = []
        for func, argument in parsed.aggregates:
            if func == "avg":
                needed = [("count", "*"), ("sum", argument)]
            else:
                needed = [(func, argument)]
            for agg in needed:
                if agg not in base:
                    base.append(agg)
        aggregates, columns = base, []
    else:
        aggregates, columns = [], ["*"]
    return ParsedSelect(
        columns=columns,
        table=parsed.table,
        scalar_predicates=list(parsed.scalar_predicates),
        like_patterns=list(parsed.like_patterns),
        aggregates=aggregates,
        order_by=None,
        limit=None,
    )


def shard_select_rows(parsed: ParsedSelect) -> ParsedSelect:
    """The rebalance-safe per-shard plan: always full document rows.

    While a shard rebalance is mid-flight a document's rows may briefly
    exist on two shards (copied to the target, not yet deleted from the
    source).  Per-shard *scalar* aggregates cannot be de-duplicated
    after the fact, so during a move the router asks every shard for
    the full per-document relation instead, de-duplicates by DocId
    (copies are byte-identical), and computes aggregates itself with
    :func:`aggregate_full_rows`.
    """
    return ParsedSelect(
        columns=["*"],
        table=parsed.table,
        scalar_predicates=list(parsed.scalar_predicates),
        like_patterns=list(parsed.like_patterns),
        aggregates=[],
        order_by=None,
        limit=None,
    )


def aggregate_full_rows(
    parsed: ParsedSelect, rows: list[dict[str, object]]
) -> list[dict[str, object]]:
    """Expected aggregates recomputed at the router from full rows.

    Mirrors the aggregate arm of :func:`execute_select`: the expected
    COUNT is the sum of document probabilities, expected SUM weights
    each document's column by its probability, AVG is their ratio.
    """
    expected_count = sum(float(row["Probability"]) for row in rows)  # type: ignore[arg-type]
    result: dict[str, object] = {}
    for func, argument in parsed.aggregates:
        if func == "count":
            result["COUNT(*)"] = expected_count
            continue
        actual = CANONICAL_COLUMNS[argument.lower()]
        expected_sum = sum(
            float(row["Probability"]) * float(row[actual])  # type: ignore[arg-type]
            for row in rows
        )
        if func == "sum":
            result[f"SUM({actual})"] = expected_sum
        else:
            result[f"AVG({actual})"] = (
                expected_sum / expected_count if expected_count else 0.0
            )
    return [result]


def _aggregate_key(func: str, argument: str) -> str:
    if func == "count":
        return "COUNT(*)"
    return f"{func.upper()}({CANONICAL_COLUMNS[argument.lower()]})"


def merge_shard_rows(
    parsed: ParsedSelect,
    shard_rows: list[list[dict[str, object]]],
    num_ans: int | None = 100,
) -> list[dict[str, object]]:
    """Merge per-shard :func:`shard_select` relations into the final one.

    Documents are disjoint across shards, so expected aggregates add by
    linearity and row merging is a concatenate-sort-project.  The result
    matches ``execute_select`` over one database holding the union,
    provided documents were ingested in DocId order there (the single
    database breaks scalar ORDER BY ties by insertion order; the merge
    breaks them by DocId).
    """
    if parsed.is_aggregate:
        totals: dict[str, float] = {}
        for rows in shard_rows:
            if not rows:
                continue
            (row,) = rows
            for key, value in row.items():
                totals[key] = totals.get(key, 0.0) + float(value)  # type: ignore[arg-type]
        result: dict[str, object] = {}
        expected_count = totals.get("COUNT(*)", 0.0)
        for func, argument in parsed.aggregates:
            if func == "count":
                result["COUNT(*)"] = expected_count
            elif func == "sum":
                result[_aggregate_key(func, argument)] = totals.get(
                    _aggregate_key("sum", argument), 0.0
                )
            else:
                expected_sum = totals.get(_aggregate_key("sum", argument), 0.0)
                result[_aggregate_key("avg", argument)] = (
                    expected_sum / expected_count if expected_count else 0.0
                )
        return [result]

    merged = [dict(row) for rows in shard_rows for row in rows]
    merged.sort(key=lambda row: row["DocId"])  # type: ignore[arg-type, return-value]
    if parsed.order_by is not None:
        column, descending = parsed.order_by
        if column.lower() == "probability":
            merged.sort(
                key=lambda row: row["Probability"],  # type: ignore[arg-type, return-value]
                reverse=descending,
            )
        else:
            actual = CANONICAL_COLUMNS[column.lower()]
            merged.sort(
                key=lambda row: row[actual],  # type: ignore[arg-type, return-value]
                reverse=descending,
            )
    else:
        merged.sort(
            key=lambda row: (-float(row["Probability"]), row["DocId"])  # type: ignore[arg-type, return-value]
        )

    rows_out: list[dict[str, object]] = []
    for row in merged:
        if parsed.columns == ["*"]:
            out = dict(row)
        else:
            out = {}
            for col in parsed.columns:
                actual = CANONICAL_COLUMNS.get(col.lower())
                if actual is None or actual not in row:
                    raise SqlError(f"unknown projection column {col!r}")
                out[actual] = row[actual]
            out["Probability"] = row["Probability"]
        rows_out.append(out)
    if parsed.limit is not None:
        rows_out = rows_out[: parsed.limit]
    if num_ans is not None:
        rows_out = rows_out[:num_ans]
    return rows_out
