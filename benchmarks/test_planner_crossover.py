"""Planner crossover: when does the index probe stop paying off?

Complements Figure 20: the cost-based planner must pick the index probe
for selective anchors and fall back to the filescan for saturated ones,
and its choice should track the measured runtimes.
"""

import time

import pytest

from repro.db.engine import StaccatoDB
from repro.db.planner import choose_plan, execute_plan
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.query.memo import KernelMemo

from .conftest import DICTIONARY


@pytest.fixture(scope="module")
def planner_db():
    # Images kept, no result cached: every timed scan runs its DP.
    db = StaccatoDB(k=10, m=14, kernel_memo=KernelMemo(capacity=0))
    db.ingest(make_ca(num_docs=4, lines_per_doc=10), SimulatedOcrEngine(seed=91))
    db.build_index([*DICTIONARY, "the"])
    yield db
    db.close()


def test_planner_decisions_track_runtime(benchmark, planner_db, report):
    queries = [
        (r"REGEX:Public Law (8|9)\d", "selective anchor"),
        ("%the President%", "saturated anchor ('the')"),
        (r"REGEX:(8|9)\d", "no anchor"),
    ]
    rows = []
    for like, label in queries:
        plan = choose_plan(planner_db, like)
        started = time.perf_counter()
        scan = planner_db.search(like, approach="staccato")
        scan_time = time.perf_counter() - started
        started = time.perf_counter()
        probe = planner_db.indexed_search(like)
        probe_time = time.perf_counter() - started
        rows.append(
            [
                label,
                plan.kind,
                f"{plan.selectivity:.0%}" if plan.selectivity is not None else "-",
                f"{scan_time * 1e3:.1f}ms",
                f"{probe_time * 1e3:.1f}ms",
            ]
        )
        assert {a.line_id for a in probe} == {a.line_id for a in scan}, label
    report.table(
        "Planner: probe-vs-scan decisions and measured runtimes",
        ["query", "plan", "selectivity", "scan", "probe"],
        rows,
    )
    # The selective anchor gets the probe; the unanchored query the scan.
    assert choose_plan(planner_db, r"REGEX:Public Law (8|9)\d").kind == "index"
    assert choose_plan(planner_db, r"REGEX:(8|9)\d").kind == "scan"
    # The saturated anchor falls back once 'the' covers most lines.
    the_sel = planner_db.index_selectivity("the")
    if the_sel > 0.8:
        assert choose_plan(planner_db, "%the President%").kind == "scan"
    benchmark.pedantic(
        execute_plan,
        args=(planner_db, r"REGEX:Public Law (8|9)\d"),
        rounds=3,
        iterations=1,
    )
