"""Tests for ORDER BY / LIMIT in the SQL layer."""

import pytest

from repro.db.engine import StaccatoDB
from repro.db.sql import SqlError, execute_select, parse_select
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel


class TestParsing:
    def test_order_by_desc(self):
        parsed = parse_select("SELECT DocId FROM Claims ORDER BY Loss DESC")
        assert parsed.order_by == ("Loss", True)

    def test_order_by_default_asc(self):
        parsed = parse_select("SELECT DocId FROM Claims ORDER BY Year")
        assert parsed.order_by == ("Year", False)

    def test_order_by_probability(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims ORDER BY Probability DESC LIMIT 3"
        )
        assert parsed.order_by == ("Probability", True)
        assert parsed.limit == 3

    def test_where_then_order_then_limit(self):
        parsed = parse_select(
            "SELECT DocId FROM Claims WHERE Year > 2000 "
            "ORDER BY Loss DESC LIMIT 2"
        )
        assert parsed.scalar_predicates == [("Year", ">", 2000)]
        assert parsed.order_by == ("Loss", True)
        assert parsed.limit == 2

    def test_bad_order_column(self):
        with pytest.raises(SqlError):
            parse_select("SELECT DocId FROM Claims ORDER BY Bogus")

    def test_bad_limit(self):
        with pytest.raises(SqlError):
            parse_select("SELECT DocId FROM Claims LIMIT 2.5")

    def test_trailing_garbage(self):
        with pytest.raises(SqlError):
            parse_select("SELECT DocId FROM Claims LIMIT 2 extra")


@pytest.fixture(scope="module")
def clause_db():
    db = StaccatoDB(k=5, m=6)
    db.ingest(
        make_ca(num_docs=4, lines_per_doc=3),
        SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=44),
        approaches=("kmap", "fullsfa", "staccato"),
    )
    yield db
    db.close()


class TestExecution:
    def test_order_by_loss_desc(self, clause_db):
        rows = execute_select(
            clause_db, "SELECT DocId, Loss FROM Claims ORDER BY Loss DESC"
        )
        losses = [row["Loss"] for row in rows]
        assert losses == sorted(losses, reverse=True)

    def test_order_by_year_asc(self, clause_db):
        rows = execute_select(
            clause_db, "SELECT DocId, Year FROM Claims ORDER BY Year"
        )
        years = [row["Year"] for row in rows]
        assert years == sorted(years)

    def test_limit(self, clause_db):
        rows = execute_select(clause_db, "SELECT DocId FROM Claims LIMIT 2")
        assert len(rows) == 2

    def test_order_by_unprojected_column(self, clause_db):
        # Ordering may use a column that is not projected.
        rows = execute_select(
            clause_db, "SELECT DocId FROM Claims ORDER BY Loss DESC"
        )
        full = execute_select(
            clause_db, "SELECT DocId, Loss FROM Claims ORDER BY Loss DESC"
        )
        assert [r["DocId"] for r in rows] == [r["DocId"] for r in full]

    def test_order_by_probability_with_like(self, clause_db):
        rows = execute_select(
            clause_db,
            "SELECT DocId FROM Claims WHERE DocData LIKE '%the%' "
            "ORDER BY Probability DESC LIMIT 3",
            approach="fullsfa",
        )
        probs = [row["Probability"] for row in rows]
        assert probs == sorted(probs, reverse=True)
        assert len(rows) <= 3
