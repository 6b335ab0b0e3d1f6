"""Tests for the SQL layer (repro.db.sql)."""

import pytest

from repro.db.engine import StaccatoDB
from repro.db.sql import (
    MAX_SQL_PREDICATES,
    SqlError,
    execute_select,
    parse_select,
)
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel


class TestParsing:
    def test_figure1c_query(self):
        parsed = parse_select(
            "SELECT DocId, Loss FROM Claims "
            "WHERE Year = 2010 AND DocData LIKE '%Ford%';"
        )
        assert parsed.columns == ["DocId", "Loss"]
        assert parsed.table == "Claims"
        assert parsed.scalar_predicates == [("Year", "=", 2010)]
        assert parsed.like_patterns == ["%Ford%"]

    def test_star_projection(self):
        parsed = parse_select("SELECT * FROM Claims")
        assert parsed.columns == ["*"]
        assert not parsed.scalar_predicates

    def test_case_insensitive_keywords(self):
        parsed = parse_select("select docid from claims where year = 1")
        assert parsed.columns == ["docid"]

    def test_comparison_operators(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE Loss >= 100.5 AND Year <> 2000"
        )
        assert parsed.scalar_predicates == [
            ("Loss", ">=", 100.5),
            ("Year", "<>", 2000),
        ]

    def test_string_literal_with_escape(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE DocData LIKE '%it''s%'"
        )
        assert parsed.like_patterns == ["%it's%"]

    def test_multiple_likes(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE DocData LIKE '%a%' "
            "AND DocData LIKE '%b%'"
        )
        assert parsed.like_patterns == ["%a%", "%b%"]


class TestParseErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO Claims VALUES (1)",
            "SELECT FROM Claims",
            "SELECT DocId Claims",
            "SELECT DocId FROM Claims WHERE",
            "SELECT DocId FROM Claims WHERE Year LIKE '%a%'",
            "SELECT DocId FROM Claims WHERE DocData = 'x' OR Year = 1",
            "SELECT DocId FROM Claims WHERE Unknown = 3",
            "SELECT DocId FROM Claims WHERE DocData LIKE 5",
        ],
    )
    def test_rejected(self, sql):
        with pytest.raises(SqlError):
            parse_select(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Bogus FROM Claims",
            "SELECT DocId, Probability FROM Claims",
            "SELECT *, DocId FROM Claims",
        ],
    )
    def test_projection_names_document_columns(self, sql):
        with pytest.raises(SqlError, match="projection column"):
            parse_select(sql)

    def test_an_integer_sqlite_cannot_hold_is_rejected(self):
        # Past 4 300 digits ``int`` itself refuses the text, past 64 bits
        # SQLite refuses the parameter: both are the client's literal.
        too_big = ("9" * 5000, "99999999999999999999", "-9223372036854775809")
        for literal in too_big:
            with pytest.raises(SqlError):
                parse_select(f"SELECT DocId FROM Claims WHERE Loss = {literal}")
        with pytest.raises(SqlError):
            parse_select("SELECT DocId FROM Claims LIMIT " + "9" * 5000)
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE Loss = -9223372036854775808"
        )
        assert parsed.scalar_predicates == [("Loss", "=", -(2**63))]

    def test_where_clause_is_bounded(self):
        def conjuncts(n: int) -> str:
            terms = ["Year > 0", "DocData LIKE '%a%'"] * n
            return "SELECT DocId FROM Claims WHERE " + " AND ".join(terms[:n])

        parsed = parse_select(conjuncts(MAX_SQL_PREDICATES))
        assert len(parsed.scalar_predicates) + len(parsed.like_patterns) == (
            MAX_SQL_PREDICATES
        )
        for n in (MAX_SQL_PREDICATES + 1, 1200):
            with pytest.raises(SqlError, match="conjuncts"):
                parse_select(conjuncts(n))


@pytest.fixture(scope="module")
def sql_db():
    db = StaccatoDB(k=6, m=8)
    dataset = make_ca(num_docs=3, lines_per_doc=5)
    db.ingest(
        dataset,
        SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=2),
        approaches=("kmap", "fullsfa", "staccato"),
    )
    yield db
    db.close()


class TestExecution:
    def test_projection_only(self, sql_db):
        rows = execute_select(sql_db, "SELECT DocId, Year FROM Claims")
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"DocId", "Year", "Probability"}
            assert row["Probability"] == 1.0

    def test_scalar_filter(self, sql_db):
        rows = execute_select(
            sql_db, "SELECT DocId, Year FROM Claims WHERE DocId < 2"
        )
        assert {row["DocId"] for row in rows} <= {0, 1}

    def test_like_produces_probabilistic_relation(self, sql_db):
        rows = execute_select(
            sql_db,
            "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
        )
        assert rows
        probs = [row["Probability"] for row in rows]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 < p <= 1.0 for p in probs)

    def test_doc_probability_combines_lines(self, sql_db):
        """P(doc) = 1 - prod(1 - p_line) over its matching lines."""
        answers = sql_db.search("%the%", approach="fullsfa", num_ans=None)
        by_doc = {}
        for a in answers:
            by_doc.setdefault(a.doc_id, []).append(a.probability)
        rows = execute_select(
            sql_db,
            "SELECT DocId FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
            num_ans=None,
        )
        got = {row["DocId"]: row["Probability"] for row in rows}
        for doc_id, probs in by_doc.items():
            miss = 1.0
            for p in probs:
                miss *= 1.0 - p
            assert got[doc_id] == pytest.approx(1.0 - miss)

    def test_unknown_projection_column(self, sql_db):
        with pytest.raises(SqlError):
            execute_select(sql_db, "SELECT Bogus FROM Claims")
        # Whatever the data: no document matches here.
        with pytest.raises(SqlError):
            execute_select(sql_db, "SELECT Bogus FROM Claims WHERE Year = 1900")

    def test_no_matching_docs(self, sql_db):
        rows = execute_select(
            sql_db, "SELECT DocId FROM Claims WHERE Year = 1900"
        )
        assert rows == []

    def test_num_ans_limits_rows(self, sql_db):
        rows = execute_select(sql_db, "SELECT DocId FROM Claims", num_ans=1)
        assert len(rows) == 1
