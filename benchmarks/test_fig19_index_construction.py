"""Figure 19: inverted-index construction and bulk-load times.

Appendix H.6: per-SFA index construction time grows with k (roughly
linearly) and jumps when high (m, k) settings flood the index with terms;
bulk-loading the postings into the relational index table tracks the
posting volume.

What is asserted is work, not wall clock: postings per (m, k) grow with k
at fixed m, and the two adapters of the one postings DP -- fed from the
``Sfa`` and from its compiled kernel -- return equal postings.  The
timing columns are a report.
"""

import sqlite3
import time

from repro.automata.trie import DictionaryTrie
from repro.indexing.inverted import build_kernel_postings, build_sfa_postings
from repro.sfa.kernel import compile_kernel

from .conftest import DICTIONARY
import pytest

#: End-to-end benchmark; minutes of wall-clock. CI runs -m 'not slow' first.
pytestmark = pytest.mark.slow


def test_index_construction_times(benchmark, ca_bench, report):
    trie = DictionaryTrie(DICTIONARY)
    rows = []
    volume = {}
    for m, k in [(1, 1), (1, 10), (10, 10), (10, 25), (40, 10), (40, 25)]:
        graphs = ca_bench.staccato(m, k)
        kernels = [compile_kernel(graph) for graph in graphs]
        started = time.perf_counter()
        from_sfa = [build_sfa_postings(graph, trie) for graph in graphs]
        sfa_fed = time.perf_counter() - started
        started = time.perf_counter()
        from_kernel = [build_kernel_postings(kernel, trie) for kernel in kernels]
        kernel_fed = time.perf_counter() - started
        assert from_kernel == from_sfa
        volume[(m, k)] = sum(
            len(p) for postings in from_sfa for p in postings.values()
        )
        rows.append(
            [
                m,
                k,
                f"{sfa_fed * 1e3:.0f}ms",
                f"{kernel_fed * 1e3:.0f}ms",
                volume[(m, k)],
            ]
        )
    report.table(
        "Figure 19(A): index construction time and postings per (m, k)",
        ["m", "k", "time (Sfa-fed)", "time (kernel-fed)", "postings"],
        rows,
    )
    # More strings per chunk -> more postings, at every m.
    assert volume[(1, 1)] <= volume[(1, 10)]
    assert volume[(10, 10)] <= volume[(10, 25)]
    assert volume[(40, 10)] <= volume[(40, 25)]
    benchmark.pedantic(
        build_sfa_postings,
        args=(ca_bench.staccato(10, 10)[0], trie),
        rounds=3,
        iterations=1,
    )


def test_bulk_load_times(benchmark, ca_bench, report):
    trie = DictionaryTrie(DICTIONARY)
    rows_by_setting = {}
    for m, k in [(10, 10), (40, 25)]:
        rows = []
        for line_id, graph in enumerate(ca_bench.staccato(m, k)):
            for term, postings in build_sfa_postings(graph, trie).items():
                rows.extend(
                    (term, line_id, p.u, p.v, p.rank, p.offset)
                    for p in postings
                )
        rows_by_setting[(m, k)] = rows

    report_rows = []
    for (m, k), rows in rows_by_setting.items():
        conn = sqlite3.connect(":memory:")
        conn.execute(
            "CREATE TABLE InvertedIndex "
            "(Term TEXT, DataKey INT, U INT, V INT, Rank INT, Offset INT)"
        )
        started = time.perf_counter()
        with conn:
            conn.executemany(
                "INSERT INTO InvertedIndex VALUES (?, ?, ?, ?, ?, ?)", rows
            )
            conn.execute(
                "CREATE INDEX idx_term ON InvertedIndex(Term)"
            )
        elapsed = time.perf_counter() - started
        report_rows.append([m, k, len(rows), f"{elapsed * 1e3:.1f}ms"])
        conn.close()
    report.table(
        "Figure 19(B): bulk index load times",
        ["m", "k", "postings", "load time"],
        report_rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
