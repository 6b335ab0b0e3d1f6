"""The two parsers that take HTTP input end in a result or their own error.

``/search`` hands its pattern to :func:`repro.query.like.compile_like`
and ``/sql`` its query to :func:`repro.db.sql.parse_select`.  Whatever
text arrives, each must answer with its result or with the error the
service maps onto a 400 -- never with another exception, which would be
a 500.  Hypothesis draws arbitrary text and text built from each
grammar's own pieces, which reaches far deeper than random characters.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import Dfa, QueryTooComplex
from repro.automata.regex import RegexError
from repro.db.sql import ParsedSelect, SqlError, parse_select
from repro.query.like import compile_like

#: The pieces of the LIKE / REGEX pattern language, and a few strangers.
PATTERN_PIECES = list("%_()|*\\. adZ9\x00é") + [
    "\\d", "\\x", "\\(", "\\\\", "(\\x)*", "REGEX:",
]

#: The pieces of the supported SELECT, and a few strangers.
SQL_PIECES = [
    "SELECT", "select", "*", "FROM", "Claims", "WHERE", "AND", "LIKE",
    "DocData", "DocId", "Year", "Loss", "DocName", "Probability", "nope",
    "COUNT", "SUM", "AVG", "(", ")", ",", ";", "=", "<>", "!=", "<", "<=",
    ">", ">=", "ORDER", "BY", "ASC", "DESC", "LIMIT", "0", "-1", "2.5",
    "12345678901234567890", "9" * 5000, "'%Ford%'", "'it''s'", "'", "''",
    "٣", "\x00",
]


def _patterns():
    pieces = st.lists(st.sampled_from(PATTERN_PIECES), max_size=24)
    built = st.tuples(st.sampled_from(["", "REGEX:"]), pieces).map(
        lambda drawn: drawn[0] + "".join(drawn[1])
    )
    return st.one_of(st.text(), built)


def _queries():
    pieces = st.lists(st.sampled_from(SQL_PIECES), max_size=24)
    built = st.tuples(
        st.sampled_from(["", "SELECT * FROM Claims WHERE "]), pieces
    ).map(lambda drawn: drawn[0] + " ".join(drawn[1]))
    return st.one_of(st.text(), built)


@settings(max_examples=400, deadline=None)
@given(_patterns())
def test_compile_like_ends_in_a_dfa_or_its_own_error(like):
    try:
        result = compile_like(like)
    except (RegexError, QueryTooComplex):
        return
    assert isinstance(result, Dfa)


@settings(max_examples=400, deadline=None)
@given(_queries())
def test_parse_select_ends_in_a_parse_or_sql_error(sql):
    try:
        result = parse_select(sql)
    except SqlError:
        return
    assert isinstance(result, ParsedSelect)

