"""Tests for model-based views (repro.db.views)."""

import pytest

from repro.db.engine import StaccatoDB
from repro.db.views import drop_view, list_views, materialize_view, refresh_view
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel


@pytest.fixture(scope="module")
def view_db():
    db = StaccatoDB(k=6, m=8)
    dataset = make_ca(num_docs=2, lines_per_doc=5)
    db.ingest(
        dataset,
        SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=33),
        approaches=("kmap", "fullsfa", "staccato"),
    )
    yield db
    db.close()


class TestMaterialize:
    def test_rows_match_search(self, view_db):
        count = materialize_view(view_db, "the_lines", "%the%", "fullsfa")
        answers = view_db.search("%the%", approach="fullsfa")
        assert count == len(answers)
        rows = view_db.conn.execute(
            "SELECT DataKey, DocId, LineNum, Probability FROM the_lines "
            "ORDER BY DataKey"
        ).fetchall()
        want = sorted(
            (a.line_id, a.doc_id, a.line_no, a.probability) for a in answers
        )
        for got, expected in zip(rows, want):
            assert got[:3] == expected[:3]
            assert got[3] == pytest.approx(expected[3])

    def test_view_is_plain_sql_queryable(self, view_db):
        materialize_view(view_db, "prez", "%President%", "fullsfa")
        row = view_db.conn.execute(
            "SELECT COUNT(*), MAX(Probability) FROM prez"
        ).fetchone()
        assert row[0] >= 0

    def test_invalid_name_rejected(self, view_db):
        with pytest.raises(ValueError):
            materialize_view(view_db, "bad name; drop", "%a%")

    def test_rematerialize_replaces(self, view_db):
        materialize_view(view_db, "v1", "%the%", "map")
        first = view_db.conn.execute("SELECT COUNT(*) FROM v1").fetchone()[0]
        materialize_view(view_db, "v1", "%zzzznot%", "map")
        second = view_db.conn.execute("SELECT COUNT(*) FROM v1").fetchone()[0]
        assert second == 0
        assert first >= second


class TestRegistry:
    def test_list_and_refresh(self, view_db):
        materialize_view(view_db, "reg1", "%the%", "map")
        views = dict(
            (name, (pattern, approach))
            for name, pattern, approach in list_views(view_db)
        )
        assert views["reg1"] == ("%the%", "map")
        count = refresh_view(view_db, "reg1")
        assert count == len(view_db.search("%the%", approach="map"))

    def test_refresh_unknown(self, view_db):
        with pytest.raises(KeyError):
            refresh_view(view_db, "missing")

    def test_drop(self, view_db):
        materialize_view(view_db, "temp", "%the%", "map")
        drop_view(view_db, "temp")
        names = [name for name, _, _ in list_views(view_db)]
        assert "temp" not in names
        tables = {
            row[0]
            for row in view_db.conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert "temp" not in tables
