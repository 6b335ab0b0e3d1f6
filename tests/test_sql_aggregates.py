"""Tests for expected aggregates over probabilistic relations (sql.py).

The paper's Section 7 names probabilistic aggregation as future work;
our SQL layer supports COUNT(*) / SUM(col) / AVG(col) with expectation
semantics over the per-document match probabilities.
"""

import pytest

from repro.db.engine import StaccatoDB
from repro.db.sql import SqlError, execute_select, parse_select
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel


class TestParsing:
    def test_count_star(self):
        parsed = parse_select("SELECT COUNT(*) FROM Claims")
        assert parsed.aggregates == [("count", "*")]
        assert parsed.is_aggregate

    def test_sum_and_avg(self):
        parsed = parse_select("SELECT SUM(Loss), AVG(Loss) FROM Claims")
        assert parsed.aggregates == [("sum", "Loss"), ("avg", "Loss")]

    def test_count_of_column_rejected(self):
        with pytest.raises(SqlError):
            parse_select("SELECT COUNT(Loss) FROM Claims")

    def test_sum_of_text_column_rejected(self):
        with pytest.raises(SqlError):
            parse_select("SELECT SUM(DocName) FROM Claims")

    def test_mixing_rejected(self):
        with pytest.raises(SqlError):
            parse_select("SELECT DocId, COUNT(*) FROM Claims")

    def test_unclosed_aggregate(self):
        with pytest.raises(SqlError):
            parse_select("SELECT SUM(Loss FROM Claims")


@pytest.fixture(scope="module")
def agg_db():
    db = StaccatoDB(k=6, m=8)
    dataset = make_ca(num_docs=3, lines_per_doc=4)
    db.ingest(dataset, SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=6))
    yield db
    db.close()


class TestExecution:
    def test_count_without_predicate(self, agg_db):
        (row,) = execute_select(agg_db, "SELECT COUNT(*) FROM Claims")
        assert row["COUNT(*)"] == pytest.approx(3.0)

    def test_expected_count_matches_rows(self, agg_db):
        sql_rows = execute_select(
            agg_db,
            "SELECT DocId FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
            num_ans=None,
        )
        (agg,) = execute_select(
            agg_db,
            "SELECT COUNT(*) FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
        )
        expected = sum(row["Probability"] for row in sql_rows)
        assert agg["COUNT(*)"] == pytest.approx(expected)

    def test_expected_sum(self, agg_db):
        rows = execute_select(
            agg_db,
            "SELECT Loss FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
            num_ans=None,
        )
        (agg,) = execute_select(
            agg_db,
            "SELECT SUM(Loss) FROM Claims WHERE DocData LIKE '%the%'",
            approach="fullsfa",
        )
        expected = sum(row["Probability"] * row["Loss"] for row in rows)
        assert agg["SUM(Loss)"] == pytest.approx(expected)

    def test_avg_is_ratio_of_expectations(self, agg_db):
        (agg,) = execute_select(
            agg_db,
            "SELECT SUM(Loss), COUNT(*), AVG(Loss) FROM Claims "
            "WHERE DocData LIKE '%the%'",
            approach="fullsfa",
        )
        assert agg["AVG(Loss)"] == pytest.approx(
            agg["SUM(Loss)"] / agg["COUNT(*)"]
        )

    def test_empty_relation(self, agg_db):
        (agg,) = execute_select(
            agg_db, "SELECT COUNT(*) FROM Claims WHERE Year = 1800"
        )
        assert agg["COUNT(*)"] == 0.0


class TestParallelIngest:
    def test_parallel_matches_serial(self):
        dataset = make_ca(num_docs=2, lines_per_doc=4)
        ocr = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=9)
        serial = StaccatoDB(k=5, m=6)
        serial.ingest(dataset, ocr)
        parallel = StaccatoDB(k=5, m=6)
        parallel.ingest(dataset, ocr, workers=2)
        for table in ("kMAPData", "CompiledKernel", "StaccatoGraph"):
            a = serial.conn.execute(
                f"SELECT * FROM {table} ORDER BY DataKey"
            ).fetchall()
            b = parallel.conn.execute(
                f"SELECT * FROM {table} ORDER BY DataKey"
            ).fetchall()
            assert a == b, table
        serial.close()
        parallel.close()
