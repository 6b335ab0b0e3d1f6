"""Figure 4: the recall-runtime tradeoff scatter (MAP / Staccato / FullSFA).

One keyword query and one regex query; Staccato (m=10, k=50) must land
between MAP (fast, low recall) and FullSFA (slow, recall 1.0) on *both*
axes for the regex, which is the paper's headline plot.  The plot
prints milliseconds; the runtime order is asserted on the DP work of
each timed search, which a busy machine cannot flip.
"""

from repro.bench.workload import query_by_id


def test_recall_runtime_tradeoff(benchmark, ca_bench, report):
    keyword = query_by_id("CA4")   # 'President'
    regex = query_by_id("CA7")     # 'U.S.C. 2\d\d\d'
    rows = []
    results = {}
    for query in (keyword, regex):
        for label, approach, kwargs in [
            ("M", "map", {}),
            ("S", "staccato", {"m": 10, "k": 50}),
            ("F", "fullsfa", {}),
        ]:
            result = ca_bench.run(query, approach, **kwargs)
            results[(query.query_id, label)] = result
            rows.append(
                [
                    query.query_id,
                    label,
                    f"{result.recall:.2f}",
                    f"{result.runtime_s * 1e3:.1f}ms",
                ]
            )
    report.table(
        "Figure 4: recall vs runtime (M=MAP, S=Staccato m=10 k=50, F=FullSFA)",
        ["query", "approach", "recall", "runtime"],
        rows,
    )
    # The regex query must show the full ordering of the paper.
    regex_id = regex.query_id
    assert results[(regex_id, "M")].recall <= results[(regex_id, "S")].recall
    assert results[(regex_id, "S")].recall <= results[(regex_id, "F")].recall
    assert results[(regex_id, "F")].recall == 1.0
    for counter in ("dp_cells", "dp_transitions"):
        work = [results[(regex_id, label)].work[counter] for label in "MSF"]
        assert work[0] < work[1] < work[2], (counter, work)
    benchmark.pedantic(
        ca_bench.search,
        args=(regex.like, "staccato"),
        kwargs={"m": 10, "k": 50},
        rounds=3,
        iterations=1,
    )
