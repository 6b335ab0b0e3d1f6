"""Table 8: runtimes of all 21 workload queries, all four approaches.

The paper's Table 8 shape: MAP in fractions of a second, k-MAP a small
multiple above, Staccato one to two orders of magnitude above MAP, and
FullSFA two to four orders above MAP (with regex/Kleene queries the most
expensive FullSFA entries).
"""

from repro.bench.workload import standard_workload

from .conftest import TABLE78_PARAMS
import pytest

#: End-to-end benchmark; minutes of wall-clock. CI runs -m 'not slow' first.
pytestmark = pytest.mark.slow

APPROACHES = ("map", "kmap", "fullsfa", "staccato")


def test_table8_runtimes(benchmark, workload_results, report):
    rows = []
    sums = dict.fromkeys(APPROACHES, 0.0)
    for query in standard_workload():
        cells = [query.query_id]
        for approach in APPROACHES:
            result = workload_results[(query.query_id, approach)]
            sums[approach] += result.runtime_s
            cells.append(f"{result.runtime_s:.3f}")
        rows.append(cells)
    rows.append(
        ["TOTAL"] + [f"{sums[a]:.2f}" for a in APPROACHES]
    )
    report.table(
        f"Table 8: runtimes in seconds, m={TABLE78_PARAMS['m']} "
        f"k={TABLE78_PARAMS['k']}",
        ["query", "MAP", "k-MAP", "FullSFA", "Staccato"],
        rows,
    )
    # Aggregate orderings (per-query noise is possible at this scale).
    # Every approach is a kernel scan on the engine, and the pair
    # filter skips most lines of a k-MAP or Staccato scan, so Staccato
    # is not guaranteed above k-MAP: the paper's MAP < k-MAP < Staccato
    # ordering reflected per-string vs dict-DP interpretation costs.
    # The representation-cost orderings that survive the implementation
    # are MAP below everything and FullSFA above everything.
    assert sums["map"] < sums["kmap"] < sums["fullsfa"]
    assert sums["map"] < sums["staccato"] < sums["fullsfa"]
    # How far FullSFA sits above MAP is stated, not asserted.
    report.note(
        "Table 8 FullSFA / MAP",
        f"FullSFA takes {sums['fullsfa'] / sums['map']:.0f}x as long as MAP "
        "over the 21 queries; the paper reports two to four orders of "
        "magnitude. The engine scans MAP as one-chunk kernels: a line the "
        "pair filter keeps has its whole string composed into a "
        "transition row for every DFA state, and each query pays a fixed "
        "cost (compiling the pattern, listing the kernels, laying out the "
        "DP) that 60 to 72 lines do not amortize. A per-string scorer "
        "steps one DFA state through each string.",
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
