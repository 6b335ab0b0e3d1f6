"""Figure 10: filescan runtimes vs dataset size.

The paper scans 1 to 100 GB of Google Books SFAs; all approaches scale
linearly, with MAP ~3 orders of magnitude below FullSFA and Staccato
configurations in between.  We sweep a Google-Books-style synthetic
corpus over a 1:8 size range and check linearity plus the ordering.
"""

import pytest

from repro.bench.harness import CorpusBench
from repro.ocr.corpus import make_scale
from repro.ocr.engine import SimulatedOcrEngine

#: End-to-end benchmark; minutes of wall-clock. CI runs -m 'not slow' first.
pytestmark = pytest.mark.slow

PATTERN = r"REGEX:19\d\d"
SIZES = [15, 30, 60, 120]


@pytest.fixture(scope="module")
def scale_benches():
    ocr = SimulatedOcrEngine(seed=55)
    benches = {}
    for size in SIZES:
        bench = CorpusBench(make_scale(size), ocr)
        bench.sfas()
        benches[size] = bench
    return benches


def test_scalability(benchmark, scale_benches, report):
    settings = [
        ("MAP", "map", {}),
        ("Staccato m=10 k=25", "staccato", {"m": 10, "k": 25}),
        ("Staccato m=40 k=25", "staccato", {"m": 40, "k": 25}),
        ("FullSFA", "fullsfa", {}),
    ]
    rows = []
    runtimes = {}
    for size in SIZES:
        bench = scale_benches[size]
        for label, approach, kwargs in settings:
            _, elapsed = bench.search(PATTERN, approach, **kwargs)
            runtimes[(label, size)] = elapsed
            rows.append([size, label, f"{elapsed * 1e3:.1f}ms"])
    report.table(
        "Figure 10: filescan runtime vs dataset size (lines)",
        ["lines", "approach", "runtime"],
        rows,
    )
    largest = SIZES[-1]
    # Ordering at the largest size: MAP < Staccato < FullSFA.
    assert (
        runtimes[("MAP", largest)]
        < runtimes[("Staccato m=10 k=25", largest)]
        < runtimes[("FullSFA", largest)]
    )
    # How far MAP sits below FullSFA is stated, not asserted.
    ratio = runtimes[("FullSFA", largest)] / runtimes[("MAP", largest)]
    report.note(
        "Figure 10 FullSFA / MAP",
        f"FullSFA takes {ratio:.0f}x as long as MAP at {largest} lines; "
        "the paper reports about three orders of magnitude. The engine "
        "scans MAP as one-chunk kernels: a line the pair filter keeps has "
        "its whole string composed into a transition row for every DFA "
        "state, and each query pays a fixed cost (compiling the pattern, "
        "listing the kernels, laying out the DP) that a small corpus does "
        "not amortize. A per-string scorer steps one DFA state through "
        "each string.",
    )
    # Roughly linear growth: 8x data must stay well below 8^2 = 64x time.
    for label, _, _ in settings:
        ratio = runtimes[(label, largest)] / max(runtimes[(label, SIZES[0])], 1e-6)
        assert ratio < 40, (label, ratio)

    bench = scale_benches[SIZES[0]]
    benchmark.pedantic(
        bench.search, args=(PATTERN, "fullsfa"), rounds=2, iterations=1
    )
