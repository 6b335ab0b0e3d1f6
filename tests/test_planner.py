"""Tests for cost-based plan selection (repro.db.planner)."""

import pytest

from repro import counters
from repro.db.engine import StaccatoDB
from repro.db.planner import QueryPlan, choose_plan, execute_plan
from repro.indexing.anchors import anchor_for_query
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.query.memo import KernelMemo


@pytest.fixture(scope="module")
def planned_db():
    # No result cached: every run of a plan does its DP, whatever ran
    # before it, so counters compare across runs.
    db = StaccatoDB(k=6, m=8, kernel_memo=KernelMemo(capacity=0))
    db.ingest(
        make_ca(num_docs=3, lines_per_doc=6),
        SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=61),
    )
    db.build_index(["public", "law", "the", "president", "congress"])
    yield db
    db.close()


class TestChoosePlan:
    def test_no_index_scans(self):
        db = StaccatoDB()
        plan = choose_plan(db, "%anything%")
        assert plan.kind == "scan"
        assert "no index" in plan.reason
        db.close()

    def test_unanchored_scans(self, planned_db):
        plan = choose_plan(planned_db, r"REGEX:(8|9)\d")
        assert plan.kind == "scan"
        assert plan.anchor is None

    def test_selective_anchor_probes(self, planned_db):
        plan = choose_plan(planned_db, r"REGEX:Public Law (8|9)\d")
        assert plan.kind == "index"
        assert plan.anchor == "public"
        assert plan.selectivity is not None
        assert plan.selectivity <= 1.0

    def test_saturated_anchor_scans(self, planned_db):
        # 'the' appears in essentially every line of the corpus.
        selectivity = planned_db.index_selectivity("the")
        plan = choose_plan(
            planned_db, "%the President%", threshold=selectivity - 0.01
        )
        assert plan.kind == "scan"
        assert plan.anchor == "the"

    def test_threshold_boundary(self, planned_db):
        selectivity = planned_db.index_selectivity("public")
        probe = choose_plan(
            planned_db, r"REGEX:Public Law (8|9)\d", threshold=selectivity + 0.01
        )
        scan = choose_plan(
            planned_db, r"REGEX:Public Law (8|9)\d", threshold=selectivity - 0.01
        )
        assert probe.kind == "index"
        assert scan.kind == "scan"


class TestExecutePlan:
    def test_plans_agree_on_answers(self, planned_db):
        like = r"REGEX:Public Law (8|9)\d"
        plan, answers = execute_plan(planned_db, like)
        scan_answers = planned_db.search(like, approach="staccato")
        assert isinstance(plan, QueryPlan)
        assert {a.line_id for a in answers} == {a.line_id for a in scan_answers}

    def test_scan_plan_executes(self, planned_db):
        plan, answers = execute_plan(planned_db, r"REGEX:(8|9)\d")
        assert plan.kind == "scan"
        assert isinstance(answers, list)

    @pytest.mark.parametrize(
        "like, threshold",
        [
            (r"REGEX:Public Law (8|9)\d", 0.8),  # index plan
            ("%the President%", 0.0),  # anchored, but scanned
            (r"REGEX:(8|9)\d", 0.8),  # no anchor
        ],
    )
    def test_same_plan_and_counters_as_choose_then_run(
        self, planned_db, like, threshold
    ):
        """``execute_plan`` judges selectivity from the posting lists it
        then evaluates; the plan (selectivity to the bit) and every
        counter equal choosing by COUNT(DISTINCT) and running the plan."""
        with counters.collect() as separate:
            chosen = choose_plan(planned_db, like, threshold=threshold)
            run = (
                planned_db.indexed_search
                if chosen.kind == "index"
                else planned_db.search
            )
            expected = run(like, approach="staccato", num_ans=100)
        with counters.collect() as planned:
            plan, answers = execute_plan(planned_db, like, threshold=threshold)
        assert plan == chosen
        assert answers == expected
        assert dict(planned) == dict(separate)

    def test_one_parse_and_one_probe_per_planned_query(
        self, planned_db, monkeypatch
    ):
        from repro.db import engine

        parses = []

        def counting_anchor(like, trie):
            parses.append(like)
            return anchor_for_query(like, trie)

        monkeypatch.setattr(engine, "anchor_for_query", counting_anchor)
        statements = []
        planned_db.conn.set_trace_callback(statements.append)
        try:
            plan, _ = execute_plan(planned_db, r"REGEX:Public Law (8|9)\d")
        finally:
            planned_db.conn.set_trace_callback(None)
        assert plan.kind == "index"
        assert len(parses) == 1
        assert sum("InvertedIndex" in sql for sql in statements) == 1
        # The stored index is read once, by the decision that uses it.
        assert sum("IndexMeta" in sql for sql in statements) == 1

    def test_index_of_another_approach_falls_back_to_the_scan(self, planned_db):
        """The postings address the staccato kernels: a kmap request has
        no anchor, is reported and counted as a scan, and scans once."""
        like = r"REGEX:Public Law (8|9)\d"
        chosen = choose_plan(planned_db, like, approach="kmap")
        assert chosen == QueryPlan(
            "scan",
            None,
            None,
            "the index is over 'staccato' data; batched filescan",
        )
        assert choose_plan(planned_db, like).kind == "index"
        with counters.collect() as counts:
            plan, answers = execute_plan(planned_db, like, approach="kmap")
        assert plan == chosen
        assert answers == planned_db.search(like, approach="kmap")
        assert counts["plan_scan"] == 1
        assert counts.get("plan_index", 0) == 0
        assert counts["lines_scanned"] == planned_db.num_lines
