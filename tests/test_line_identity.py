"""``(DocId, LineNo)`` names one line, on every topology.

A batch for a DocId the file already holds appends the document's new
lines, numbered after its last stored one, so a later line is a line
of its own: ``/search`` answers it, and ``/search`` and ``/sql`` agree
on which lines the document has (``/sql`` combines a document's lines
as independent events: ``1 - prod(1 - p)``).
"""

from __future__ import annotations

import math

import pytest

from repro.bench.service_load import post_json
from repro.service import start_service, start_sharded_service

K, M = 4, 6
TOPOLOGIES = ["db", "shards", "worker_procs"]


@pytest.fixture(params=TOPOLOGIES)
def twice_ingested(request, tmp_path):
    """A service whose document 7 came in two batches of one line."""
    if request.param == "db":
        running = start_service(str(tmp_path / "one.db"), k=K, m=M, pool_size=2)
    else:
        running = start_sharded_service(
            str(tmp_path / "shards"), 2,
            worker_procs=request.param == "worker_procs",
            k=K, m=M, pool_size=2, range_width=2,
        )
    try:
        for line in ("the first line", "the second line"):
            status, reply = post_json(
                running.base_url, "/ingest",
                {"documents": [{"doc_id": 7, "lines": [line]}]},
            )
            assert status == 200, reply
        yield running.base_url
    finally:
        running.stop()


def _search(url: str, pattern: str) -> dict[tuple[int, int], float]:
    status, reply = post_json(
        url, "/search", {"pattern": pattern, "num_ans": None}
    )
    assert status == 200, reply
    return {
        (row["doc_id"], row["line_no"]): row["probability"]
        for row in reply["answers"]
    }


def test_the_appended_line_is_answered(twice_ingested):
    lines = _search(twice_ingested, "%line%")
    assert sorted(lines) == [(7, 0), (7, 1)]
    assert all(p > 0 for p in lines.values())


def test_search_and_sql_agree_on_the_document_lines(twice_ingested):
    lines = _search(twice_ingested, "%line%")
    status, reply = post_json(
        twice_ingested, "/sql",
        {"query": "SELECT DocId FROM Claims WHERE DocData LIKE '%line%'"},
    )
    assert status == 200, reply
    (row,) = reply["rows"]
    assert row["DocId"] == 7
    assert row["Probability"] == pytest.approx(
        1 - math.prod(1 - p for p in lines.values())
    )
