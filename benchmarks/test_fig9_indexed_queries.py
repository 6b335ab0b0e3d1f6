"""Figure 9: inverted-index query plans vs the filescan.

An anchored regex ('Public Law (8|9)\\d', anchor 'public') runs through
the dictionary index: total runtime across (m, k) settings, and runtime
as a fraction of the filescan runtime compared with the anchor term's
selectivity.  The paper's findings: the index gives substantial speedups;
as m and k grow the term appears in more lines (selectivity rises) and
the speedup erodes.

The engine's filescan skips lines that cannot spell the pattern's
literal runs, which the paper's filescan does not; the work comparison
measures the paper's filescan by running every kernel the handle
stores through the batch evaluator, none skipped.
"""

import time

import pytest

from repro import counters
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.query.eval_kernel import KernelEvaluator
from repro.query.like import compile_like
from repro.query.memo import KernelMemo

from .conftest import DICTIONARY

#: End-to-end benchmark; minutes of wall-clock. CI runs -m 'not slow' first.
pytestmark = pytest.mark.slow

PATTERN = r"REGEX:Public Law (8|9)\d"
DATASET = make_ca(num_docs=4, lines_per_doc=10)
OCR_SEED = 41


@pytest.fixture(scope="module")
def dbs():
    """StaccatoDBs ingested at several (m, k) points."""
    dataset = DATASET
    ocr = SimulatedOcrEngine(seed=OCR_SEED)
    instances = {}
    for m, k in [(10, 5), (10, 25), (40, 5), (40, 25)]:
        # Images kept, no result cached: every timed scan runs its DP.
        db = StaccatoDB(k=k, m=m, kernel_memo=KernelMemo(capacity=0))
        db.ingest(dataset, ocr, approaches=("kmap", "staccato"))
        db.build_index(DICTIONARY)
        instances[(m, k)] = db
    yield instances
    for db in instances.values():
        db.close()


def test_indexed_runtimes_and_selectivity(benchmark, dbs, report):
    rows = []
    for (m, k), db in sorted(dbs.items()):
        started = time.perf_counter()
        scan = db.search(PATTERN, approach="staccato")
        scan_time = time.perf_counter() - started
        started = time.perf_counter()
        probed = db.indexed_search(PATTERN, use_projection=True)
        index_time = time.perf_counter() - started
        selectivity = db.index_selectivity("public")
        rows.append(
            [
                m,
                k,
                f"{selectivity:.1%}",
                f"{scan_time * 1e3:.1f}ms",
                f"{index_time * 1e3:.1f}ms",
                f"{index_time / scan_time:.0%}",
            ]
        )
        # The probe never loses answer lines.
        assert {a.line_id for a in probed} == {a.line_id for a in scan}, (m, k)
    report.table(
        "Figure 9: indexed runtime vs filescan ('Public Law (8|9)\\d')",
        ["m", "k", "selectivity", "filescan", "indexed", "% of scan"],
        rows,
    )
    db = dbs[(40, 25)]
    benchmark.pedantic(
        db.indexed_search, args=(PATTERN,), rounds=3, iterations=1
    )


def test_index_speedup_exists(benchmark, dbs, report):
    db = dbs[(40, 25)]
    started = time.perf_counter()
    with counters.collect() as scan_work:
        db.search(PATTERN, approach="staccato")
    scan_time = time.perf_counter() - started
    started = time.perf_counter()
    with counters.collect() as index_work:
        db.indexed_search(PATTERN)
    index_time = time.perf_counter() - started
    # The paper's filescan: every kernel the handle stores, none skipped.
    stored = storage.load_kernel_blobs(db.conn, "staccato")
    evaluator = KernelEvaluator(compile_like(PATTERN))
    paper_transitions = sum(
        result.dp_transitions
        for result in evaluator.evaluate_batch(
            storage.decode_kernel("staccato", key, blob)
            for key, (_, blob) in stored.items()
        )
    )
    report.note(
        "Figure 9 speedup",
        f"indexed plan = {index_time / scan_time:.0%} of filescan "
        f"({scan_time / max(index_time, 1e-9):.1f}x faster) at m=40 k=25; "
        f"{index_work['dp_transitions']} of {paper_transitions} "
        "DP transitions of the paper's filescan (the engine's, which "
        f"skips {scan_work['lines_pruned']} lines that cannot spell the "
        f"pattern: {scan_work.get('dp_transitions', 0)})",
    )
    # Work, not wall clock: the probe's windows relax fewer transitions
    # than the paper's filescan of the whole table, however loaded the
    # box is.
    assert index_work["dp_transitions"] < paper_transitions
    benchmark.pedantic(
        db.search, args=(PATTERN,), kwargs={"approach": "staccato"},
        rounds=2, iterations=1,
    )
