"""The simulated OCR engine: ground-truth text line -> SFA.

This is our substitute for OCRopus (see DESIGN.md): given the true
contents of a scanned line, it produces the stochastic finite automaton an
OCR engine would emit -- per-glyph alternatives on chain edges, plus the
structural branching real segmentation uncertainty creates:

* **merges**: an adjacent pair like ``rn`` may be read as the single glyph
  ``m`` (a skip edge over two positions);
* **splits**: a glyph like ``m`` may be read as the pair ``rn`` (a detour
  through an auxiliary node);
* **space drops**: inter-word spacing is hard to detect (paper Section 1),
  so a space may vanish (a skip edge emitting the following glyph).

The construction maintains the *unique-paths property* of paper
Section 2.2 by keeping every emission a single character and the outgoing
emission characters of every node distinct -- the SFA is then
deterministic as an automaton, so each string has exactly one labeled
path.  Outgoing probabilities are normalized at every node, giving a valid
stochastic SFA.
"""

from __future__ import annotations

import hashlib
import random

from ..sfa.model import Sfa
from .noise import NoiseModel

__all__ = ["SimulatedOcrEngine", "stable_seed"]


def stable_seed(*parts: object) -> int:
    """A process-independent integer seed from arbitrary repr-able parts.

    ``hash(str)`` is salted per process, so seeded corpora must derive
    their randomness through a stable digest instead.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SimulatedOcrEngine:
    """Deterministic (seeded) OCR simulator producing one SFA per line."""

    def __init__(self, noise: NoiseModel | None = None, seed: int = 0) -> None:
        self.noise = noise or NoiseModel()
        self.seed = seed

    def recognize_line(self, text: str, line_seed: object = None) -> Sfa:
        """OCR one line of ground-truth text into an SFA.

        The same ``(engine seed, text, line_seed)`` triple always yields
        the identical SFA, which is what makes the synthetic corpora
        reproducible.
        """
        if not text:
            raise ValueError("cannot OCR an empty line")
        rng = random.Random(stable_seed(self.seed, text, line_seed))
        length = len(text)
        sfa = Sfa(start=0, final=length)
        next_aux = length + 1
        for i, char in enumerate(text):
            target = i + 1
            used: set[str] = set()
            branches: list[tuple[int, list[tuple[str, float]], float]] = []

            # Structural event: merge the pair (text[i], text[i+1]) into a
            # single glyph on a skip edge i -> i+2.
            merged = (
                self.noise.merge_for(text[i : i + 2]) if i + 2 <= length else None
            )
            if merged and rng.random() < self.noise.merge_prob:
                skip_to = i + 2
                weight = 0.1 + 0.25 * rng.random()
                branches.append((skip_to, [(merged, 1.0)], weight))
                used.add(merged)

            # Structural event: drop an uncertain space, i.e. skip the
            # space position and emit the following glyph directly.
            if (
                char == " "
                and i + 2 <= length
                and rng.random() < self.noise.space_drop_prob
            ):
                following = text[i + 1]
                if following not in used and following != " ":
                    weight = 0.1 + 0.2 * rng.random()
                    branches.append((i + 2, [(following, 1.0)], weight))
                    used.add(following)

            # Structural event: split the glyph into two via an aux node.
            split = self.noise.split_for(char)
            split_branch: tuple[int, str, str, float] | None = None
            if split and rng.random() < self.noise.split_prob:
                first, second = split[0], split[1]
                if first not in used:
                    weight = 0.1 + 0.2 * rng.random()
                    split_branch = (next_aux, first, second, weight)
                    next_aux += 1
                    used.add(first)

            # The chain edge carries the per-glyph confusion alternatives.
            alternatives = self.noise.alternatives(char, rng, forbidden=used)
            structural = sum(w for _, _, w in branches)
            if split_branch is not None:
                structural += split_branch[3]
            scale = 1.0 - structural
            sfa.add_edge(i, target, [(s, p * scale) for s, p in alternatives])
            for skip_to, emissions, weight in branches:
                dest = min(skip_to, sfa.final)
                sfa.add_edge(i, dest, [(s, p * weight) for s, p in emissions])
            if split_branch is not None:
                aux, first, second, weight = split_branch
                sfa.add_edge(i, aux, [(first, weight)])
                sfa.add_edge(aux, target, [(second, 1.0)])
        return sfa
