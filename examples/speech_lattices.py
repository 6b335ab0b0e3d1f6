"""Speech transcription lattices through the same Staccato machinery.

The paper's Section 7: "transducers provide a unifying formal framework
for both transcription processes" (OCR and speech).  This example runs a
simulated speech recognizer over spoken claim reports and shows that the
whole stack -- MAP vs k-MAP vs chunked lattices, probabilistic LIKE
queries -- works unchanged on word lattices.

Run:  python examples/speech_lattices.py
"""

from repro.core import build_kmap, kmap_sfa, staccato_approximate
from repro.ocr.speech import SimulatedSpeechEngine
from repro.query import compile_like
from repro.query.eval_kernel import KernelEvaluator
from repro.sfa import ops
from repro.sfa.kernel import compile_kernel

UTTERANCES = [
    "the claim mentions a ford truck",
    "please write the loss amount for claim two",
    "their new claim is right there in the file",
    "the public law covers four of the claims",
]


def kernel_probability(sfa, query) -> float:
    """P[the text matches]: the compiled-kernel evaluation the engine runs."""
    return KernelEvaluator(query).evaluate(compile_kernel(sfa)).probability


def main() -> None:
    engine = SimulatedSpeechEngine(word_error_rate=0.35, seed=17)
    query = compile_like("%ford%")

    print("Transcribing utterances into word lattices ...\n")
    for i, sentence in enumerate(UTTERANCES):
        lattice = engine.recognize_utterance(sentence, utterance_seed=i)
        best, prob = build_kmap(lattice, 1).strings[0]
        print(f"utterance {i}: {sentence!r}")
        print(f"  1-best transcript: {best!r} (p={prob:.3f})")
        print(f"  lattice: {lattice.num_edges} word slots, "
              f"{ops.string_count(lattice)} candidate transcripts")

        map_hit = kernel_probability(kmap_sfa([(best, prob)]), query)
        lattice_hit = kernel_probability(lattice, query)
        if lattice_hit > 0:
            verdict = "FOUND in lattice" if map_hit == 0 else "found"
            print(f"  mentions 'ford'? 1-best: {map_hit:.3f}  "
                  f"lattice: {lattice_hit:.3f}  <- {verdict}")

        approx = staccato_approximate(lattice, m=3, k=3)
        approx_hit = kernel_probability(approx, query)
        print(f"  Staccato m=3 k=3 keeps {ops.string_count(approx)} "
              f"transcripts; P[ford] = {approx_hit:.3f}\n")


if __name__ == "__main__":
    main()
