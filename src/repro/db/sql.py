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

Evaluation is two steps, shared by every caller: :func:`document_relation`
selects the per-document relation from one database, and
:func:`finish_select` turns a relation into the answer.  A plain handle
runs one after the other; the shard router finishes the de-duplicated
union of its shards' relations, so every topology answers identically.

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
    "document_relation",
    "finish_select",
    "execute_select",
]

#: Conjuncts a WHERE clause may hold, comparisons and LIKEs together:
#: every LIKE is a scan of the selected documents' lines, and SQLite
#: refuses a deep enough comparison tree as an internal error.
MAX_SQL_PREDICATES = 32

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
      | (?P<number>-?\d{1,19}(?!\d)(?:\.\d+)?)  # int64: 19 digits
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
    if columns != ["*"]:
        for column in columns:
            if column.lower() not in DOC_COLUMNS:
                raise SqlError(f"unknown projection column {column!r}")
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
                    if not -(2**63) <= value < 2**63:  # SQLite's INTEGER
                        raise SqlError(f"{literal} is out of range")
                else:
                    raise SqlError(f"bad comparison literal {literal!r}")
                if column.lower() not in DOC_COLUMNS:
                    raise SqlError(f"unknown scalar column {column!r}")
                parsed.scalar_predicates.append((column, op, value))
            else:
                raise SqlError(f"unsupported operator {op!r}")
            if (
                len(parsed.scalar_predicates) + len(parsed.like_patterns)
                > MAX_SQL_PREDICATES
            ):
                raise SqlError(
                    f"WHERE has more than {MAX_SQL_PREDICATES} conjuncts"
                )
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


def document_relation(
    db: StaccatoDB, parsed: ParsedSelect, approach: str = "staccato"
) -> list[dict[str, object]]:
    """The per-document relation ``parsed`` selects, before any answer
    shaping: every scalar column plus ``Probability``, one row per
    document with probability > 0, in DocId order.

    No projection, aggregate, ORDER BY, LIMIT or ``num_ans`` applies
    here -- :func:`finish_select` does that, on this relation from one
    handle or on the union of several shards' relations.
    """
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
        for row in db.conn.execute(doc_sql + " ORDER BY DocId", params)
    }
    if not docs:
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
    return [
        {**row, "Probability": doc_probs[doc_id]}
        for doc_id, row in docs.items()
        if doc_probs[doc_id] > 0.0
    ]


def finish_select(
    parsed: ParsedSelect,
    relation: list[dict[str, object]],
    num_ans: int | None = 100,
) -> list[dict[str, object]]:
    """The answer to ``parsed`` from its document relation (DocId order,
    as :func:`document_relation` returns it): one row of expected
    aggregates, or the rows sorted (descending probability unless ORDER
    BY says otherwise; ties by DocId), projected and cut at LIMIT and
    ``num_ans``.  Every sum runs in DocId order, so the answer depends
    only on the relation, never on where its rows came from.
    """
    if parsed.is_aggregate:
        expected_count = sum((row["Probability"] for row in relation), 0.0)  # type: ignore[misc]
        result: dict[str, object] = {}
        for func, argument in parsed.aggregates:
            if func == "count":
                result["COUNT(*)"] = expected_count
                continue
            actual = CANONICAL_COLUMNS[argument.lower()]
            expected_sum = sum(
                (row["Probability"] * float(row[actual]) for row in relation),  # type: ignore[operator, arg-type]
                0.0,
            )
            if func == "sum":
                result[f"SUM({actual})"] = expected_sum
            else:
                result[f"AVG({actual})"] = (
                    expected_sum / expected_count if expected_count else 0.0
                )
        return [result]

    rows = list(relation)
    if parsed.order_by is not None:
        column, descending = parsed.order_by
        # parse_select allows Probability or a document column here.
        key = CANONICAL_COLUMNS.get(column.lower(), "Probability")
        rows.sort(key=lambda row: row[key], reverse=descending)  # type: ignore[arg-type, return-value]
    else:
        rows.sort(key=lambda row: (-row["Probability"], row["DocId"]))  # type: ignore[operator, return-value]
    if parsed.limit is not None:
        rows = rows[: parsed.limit]
    if num_ans is not None:
        rows = rows[:num_ans]
    if parsed.columns == ["*"]:
        return [dict(row) for row in rows]
    columns = [CANONICAL_COLUMNS[col.lower()] for col in parsed.columns]
    columns.append("Probability")
    return [{col: row[col] for col in columns} for row in rows]


def execute_select(
    db: StaccatoDB,
    sql: str,
    approach: str = "staccato",
    num_ans: int | None = 100,
) -> list[dict[str, object]]:
    """Run a select-project query, returning a probabilistic relation.

    Rows are per *document* (as in the Figure 1(C) claims query): the
    projected columns plus ``Probability``, sorted by descending
    probability -- or one row of expected aggregates.
    """
    parsed = parse_select(sql)
    return finish_select(parsed, document_relation(db, parsed, approach), num_ans)
