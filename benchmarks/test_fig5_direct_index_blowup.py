"""Figure 5: postings from *directly* indexing one SFA explode with m.

The paper indexes the stored strings of a single OCR line and counts
postings: linear-ish in k at fixed m (panel A), exponential in m at
fixed k (panel B) -- overflowing 64-bit counts beyond m = 60.  This is
why Staccato indexes a user dictionary instead (Section 4).
"""

from repro.core.approximate import staccato_approximate
from tests.oracles.direct import direct_posting_count


def _line_sfa(ca_bench):
    # The longest line of the shared CA corpus, as in "one OCR line".
    return max(ca_bench.sfas(), key=lambda s: s.num_edges)


def test_panel_a_fix_m_vary_k(benchmark, ca_bench, report):
    sfa = _line_sfa(ca_bench)
    rows = []
    counts = {}
    for m in (5, 20):
        for k in (1, 10, 25, 50):
            approx = staccato_approximate(sfa, m=m, k=k)
            count = direct_posting_count(approx)
            counts[(m, k)] = count
            rows.append([m, k, f"{count:.2e}" if count > 1e6 else count])
    report.table(
        "Figure 5(A): direct-index postings, fix m vary k",
        ["m", "k", "postings"],
        rows,
    )
    for m in (5, 20):
        assert counts[(m, 50)] > counts[(m, 1)]
    benchmark.pedantic(
        direct_posting_count,
        args=(staccato_approximate(sfa, m=5, k=25),),
        rounds=3,
        iterations=1,
    )


def test_panel_b_fix_k_vary_m(benchmark, ca_bench, report):
    sfa = _line_sfa(ca_bench)
    rows = []
    counts = {}
    for k in (10, 50):
        for m in (1, 5, 10, 20, 40):
            approx = staccato_approximate(sfa, m=m, k=k)
            count = direct_posting_count(approx)
            counts[(k, m)] = count
            over64 = count > 2**63 - 1
            rows.append(
                [k, m, f"{count:.3e}", "yes" if over64 else "no"]
            )
    report.table(
        "Figure 5(B): direct-index postings, fix k vary m (exponential)",
        ["k", "m", "postings", "overflows 64-bit"],
        rows,
    )
    # Exponential growth: each m step multiplies the count.
    for k in (10, 50):
        assert counts[(k, 20)] > 100 * counts[(k, 5)]

    benchmark.pedantic(
        direct_posting_count,
        args=(staccato_approximate(sfa, m=20, k=10),),
        rounds=3,
        iterations=1,
    )
