"""NumAns is a prefix: a top-n answer is the first n rows of a top-N one.

The paper ranks a query's answers by probability and cuts them at
NumAns (Appendix H.3), so cutting at n <= N must give the first n rows
of the cut at N -- on one database and on every shard layout, exact
probability ties included.  The router's result cache relies on it: an
entry computed at N answers every smaller ``num_ans`` by slicing.

* The property: each leg's cut (``rank_answers``, as
  :func:`~repro.service.app.run_search_plan` cuts) merged by
  ``merge_ranked`` is a prefix across cuts, and equals one database's
  ranking, over random relations with forced ties, re-ingested
  documents (their second batch numbered after their last line),
  documents mid-move (on two shards), 1-3 shards and line ids in an
  order unrelated to DocIds.
* The wire: on ``--db``, ``--shards 2`` and ``--worker-procs``, replies
  served from a covering entry are ``cached``, count their rows, and
  are byte-equal to what a service without a cache computes -- also
  after a document was ingested twice.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.service_load import post_json
from repro.ocr.corpus import make_ca
from repro.query.answers import Answer, rank_answers
from repro.service import start_service, start_sharded_service
from repro.service.shards import merge_ranked

K, M = 4, 6

#: Few distinct probabilities, so exact ties are common; 0.0 rows are
#: non-matches ``rank_answers`` drops.
_PROBABILITIES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0])


@st.composite
def sharded_relations(draw):
    """``(per_shard, whole)``: one relation spread over 1-3 shards (a
    document lives on one, and a document mid-move on two with the same
    probabilities), and the same rows in one database.  A re-ingested
    document holds a second batch of lines, numbered after its first.
    Every copy numbers its lines in a random order of its own."""
    num_shards = draw(st.integers(1, 3))
    docs = draw(
        st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True)
    )
    lines = {doc_id: draw(st.integers(1, 4)) for doc_id in docs}
    for doc_id in draw(st.sets(st.sampled_from(docs))):  # re-ingested
        lines[doc_id] += draw(st.integers(1, 4))
    rows = [
        (doc_id, line_no, draw(_PROBABILITIES))
        for doc_id in docs
        for line_no in range(lines[doc_id])
    ]
    owner = {doc_id: draw(st.integers(0, num_shards - 1)) for doc_id in docs}
    moving = {
        doc_id: draw(st.integers(0, num_shards - 1))
        for doc_id in draw(st.sets(st.sampled_from(docs)))
    }

    def numbered(kept):
        order = draw(st.permutations(range(len(kept))))
        return [
            Answer(line_id, doc_id, line_no, probability)
            for line_id, (doc_id, line_no, probability) in zip(order, kept)
        ]

    per_shard = [
        (
            shard,
            numbered([
                row for row in rows
                if shard in (owner[row[0]], moving.get(row[0]))
            ]),
        )
        for shard in range(num_shards)
    ]
    return per_shard, numbered(rows)


def _leg(rows, num_ans):
    """What one leg returns at ``num_ans``."""
    return rank_answers(rows, num_ans)


def _top(per_shard, num_ans):
    """What the router answers at ``num_ans``: each leg's cut, merged."""
    return merge_ranked(
        [(shard, _leg(rows, num_ans)) for shard, rows in per_shard],
        num_ans,
    )


def _lines(ranked):
    return [(a.doc_id, a.line_no, a.probability) for a in ranked]


class TestPrefixProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        sharded_relations(),
        st.integers(1, 40),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_top_n_is_a_prefix_of_top_N(self, relation, n, big):
        per_shard, whole = relation
        if big is not None and big < n:
            n, big = big, n
        wide = _top(per_shard, big)
        narrow = _top(per_shard, n)
        assert narrow == wide[:n]
        assert _lines(a for _, a in narrow) == _lines(_leg(whole, n))

    def test_a_tie_at_the_cut_keeps_the_lowest_docid(self):
        # Line ids run against DocIds: the tied row of the higher line
        # id belongs to the lower DocId, so a cut by line id would keep
        # DocId 9 where one database keeps DocId 1.
        tied = [Answer(0, 9, 0, 0.5), Answer(1, 1, 0, 0.5)]
        assert [a.doc_id for a in rank_answers(tied, 1)] == [1]
        assert _lines(a for _, a in _top([(0, tied)], 1)) == [(1, 0, 0.5)]


# ----------------------------------------------------------------------
_PATTERN = "%e%"
_SQL = f"SELECT DocId, Loss FROM Claims WHERE DocData LIKE '{_PATTERN}'"


def _batches() -> list[dict]:
    """Two ingests, the higher DocIds first, so every shard numbers its
    lines against DocId order."""
    corpus = make_ca(num_docs=6, lines_per_doc=3, seed=3)
    documents = [
        {"doc_id": doc.doc_id, "year": doc.year, "lines": list(doc.lines)}
        for doc in corpus.documents
    ]
    return [
        {"documents": documents[3:], "ocr_seed": 0},
        {"documents": documents[:3], "ocr_seed": 1},
    ]


def _start(topology: str, where, cache_size: int):
    if topology == "db":
        return start_service(
            str(where / "one.db"), k=K, m=M, pool_size=2,
            cache_size=cache_size,
        )
    return start_sharded_service(
        str(where / "shards"), 2, worker_procs=topology == "worker_procs",
        k=K, m=M, pool_size=2, range_width=2, cache_size=cache_size,
    )


def _wire(reply: dict, rows: str) -> bytes:
    return json.dumps(reply[rows], sort_keys=True).encode()


#: ``(path, body without num_ans, rows field)`` of each endpoint.
_ENDPOINTS = [
    ("/search", {"pattern": _PATTERN}, "answers"),
    ("/sql", {"query": _SQL}, "rows"),
]

def _ask(url, path, body, rows, num_ans, cached, seen):
    """One request at ``num_ans``: ``cached`` as expected, ``count``
    its rows; the reply is kept in ``seen`` for the cache-less check."""
    asked = {**body, "num_ans": num_ans}
    status, reply = post_json(url, path, asked)
    assert status == 200, reply
    assert reply["cached"] is cached, (path, num_ans)
    assert reply["count"] == len(reply[rows])
    seen.append((path, asked, rows, _wire(reply, rows)))
    return reply


def _same_fresh(topology, where, seen):
    """The same files behind a service that caches nothing: every reply
    in ``seen`` is byte for byte what computing it returns."""
    fresh = _start(topology, where, cache_size=0)
    try:
        for path, body, rows, wire in seen:
            status, reply = post_json(fresh.base_url, path, body)
            assert status == 200 and reply["cached"] is False
            assert _wire(reply, rows) == wire, (path, body)
    finally:
        fresh.stop()


class TestCoveredReplies:
    @pytest.mark.parametrize("topology", ["db", "shards", "worker_procs"])
    def test_smaller_num_ans_is_a_slice_of_the_cached_reply(
        self, tmp_path, topology
    ):
        running = _start(topology, tmp_path, cache_size=64)
        seen: list[tuple[str, dict, str, bytes]] = []
        try:
            url = running.base_url
            for batch in _batches():
                assert post_json(url, "/ingest", batch)[0] == 200
            for path, body, rows in _ENDPOINTS:
                first = _ask(url, path, body, rows, 100, False, seen)
                assert 2 < first["count"] < 100
                for num_ans in (1, 10, 50):
                    reply = _ask(url, path, body, rows, num_ans, True, seen)
                    assert reply[rows] == first[rows][:num_ans]
                # A wider request recomputes, though the reply at 100
                # held every row, and replaces the entry.
                _ask(url, path, body, rows, None, False, seen)
                _ask(url, path, body, rows, 100, True, seen)
                # An entry is replaced only by one that covers more.
                kmap = {**body, "approach": "kmap"}
                for num_ans, cached in ((2, False), (3, False), (2, True),
                                        (1, True), (None, False), (3, True)):
                    _ask(url, path, kmap, rows, num_ans, cached, seen)
        finally:
            running.stop()
        _same_fresh(topology, tmp_path, seen)

    @pytest.mark.parametrize("topology", ["db", "shards", "worker_procs"])
    def test_a_reingested_document_slices_like_a_fresh_reply(
        self, tmp_path, topology
    ):
        """Every document ingested twice, alike, holds each line twice
        on its shard, the second copy numbered after the first and tied
        with it.  Narrower and wider requests after it match a
        cache-less service, and the narrow ones count ``num_ans``
        lines."""
        running = _start(topology, tmp_path, cache_size=64)
        seen: list[tuple[str, dict, str, bytes]] = []
        try:
            url = running.base_url
            for batch in _batches() + _batches():
                assert post_json(url, "/ingest", batch)[0] == 200
            for path, body, rows in _ENDPOINTS:
                narrow = _ask(url, path, body, rows, 6, False, seen)
                assert narrow["count"] == 6
                wide = _ask(url, path, body, rows, 100, False, seen)
                assert narrow[rows] == wide[rows][:6]
                for num_ans in (1, 2, 3, 6, 10, 50):
                    _ask(url, path, body, rows, num_ans, True, seen)
                _ask(url, path, body, rows, None, False, seen)
                _ask(url, path, body, rows, 100, True, seen)
        finally:
            running.stop()
        _same_fresh(topology, tmp_path, seen)
