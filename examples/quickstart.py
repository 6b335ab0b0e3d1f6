"""Quickstart: the paper's Figure 1 'Ford' example, end to end.

An insurance claim was scanned; the OCR believes the text was most likely
'F0 rd' but 'Ford' is also possible.  The MAP approach (keep only the
best string) misses the claim; keeping the probabilistic model finds it.

Run:  python examples/quickstart.py
"""

from repro.core import build_kmap, kmap_sfa, staccato_approximate
from repro.query import compile_like
from repro.query.eval_kernel import KernelEvaluator
from repro.sfa import builder, ops
from repro.sfa.kernel import compile_kernel


def kernel_probability(sfa, query) -> float:
    """P[the text matches]: the compiled-kernel evaluation the engine runs."""
    return KernelEvaluator(query).evaluate(compile_kernel(sfa)).probability


def main() -> None:
    # The stochastic automaton of paper Figure 1(B).
    sfa = builder.figure1_sfa()
    print("The OCR output for the scanned snippet is an SFA:")
    print(f"  {sfa}")
    print(f"  it represents {ops.string_count(sfa)} candidate strings\n")

    # What Google Books would store: the single most likely string.
    map_doc = build_kmap(sfa, 1)
    print(f"MAP string: {map_doc.map_string!r} "
          f"(prob {map_doc.strings[0][1]:.4f})")

    # The query from the paper: ... WHERE DocData LIKE '%Ford%'
    query = compile_like("%Ford%")

    print("\nDoes the claim mention 'Ford'?")
    # MAP is Staccato at m = 1, k = 1: one chunk holding the best string.
    print(f"  MAP     : {kernel_probability(kmap_sfa(map_doc.strings), query):.4f}"
          "   <- the claim is LOST")
    full = kernel_probability(sfa, query)
    print(f"  FullSFA : {full:.4f}   <- found, with probability ~0.12")

    # Staccato: split into m chunks, keep k strings per chunk.
    approx = staccato_approximate(sfa, m=2, k=2)
    stac = kernel_probability(approx, query)
    print(f"  Staccato: {stac:.4f}   <- m=2, k=2 already recovers it")

    print("\nRepresentation sizes (stored strings):")
    print(f"  MAP      stores 1 string")
    print(f"  FullSFA  stores {ops.string_count(sfa)} strings "
          f"({sfa.num_emissions()} weighted arcs)")
    print(f"  Staccato stores {ops.string_count(approx)} strings "
          f"({approx.num_emissions()} chunk rows)")


if __name__ == "__main__":
    main()
