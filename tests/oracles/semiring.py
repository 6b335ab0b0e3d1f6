"""Semiring-generic shortest distance over SFAs (OpenFST style).

Paper footnote 5: "Many (including OpenFST) tools use a formalization
with log-odds instead of probabilities.  It has some intuitive property
for graph concepts, e.g., the shortest path corresponds to the most
likely string."  OpenFST expresses all of its algorithms over abstract
semirings; this module provides the same abstraction for SFAs and shows
the specialized dynamic programs of :mod:`repro.sfa.ops` and
:mod:`repro.sfa.paths` are instances of one generic single-source
shortest-distance recursion over a DAG:

* ``REAL``     (+, x)            -> total probability mass (sum-product);
* ``VITERBI``  (max, x)          -> MAP probability (max-product);
* ``TROPICAL`` (min, +) on -log  -> MAP cost, the OpenFST view;
* ``COUNT``    (+, x) on counts  -> number of labeled paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.sfa.model import Sfa
from repro.sfa.ops import topological_order

__all__ = ["Semiring", "REAL", "VITERBI", "TROPICAL", "COUNT", "shortest_distance"]


@dataclass(frozen=True, slots=True)
class Semiring:
    """An abstract commutative semiring with an emission-weight map.

    ``plus``/``times`` with identities ``zero``/``one``; ``weight`` maps
    an emission probability into the semiring's domain.
    """

    name: str
    plus: Callable[[float, float], float]
    times: Callable[[float, float], float]
    zero: float
    one: float
    weight: Callable[[float], float]


REAL = Semiring(
    name="real",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0.0,
    one=1.0,
    weight=lambda p: p,
)

VITERBI = Semiring(
    name="viterbi",
    plus=max,
    times=lambda a, b: a * b,
    zero=0.0,
    one=1.0,
    weight=lambda p: p,
)

TROPICAL = Semiring(
    name="tropical",
    plus=min,
    times=lambda a, b: a + b,
    zero=math.inf,
    one=0.0,
    weight=lambda p: -math.log(p) if p > 0.0 else math.inf,
)

COUNT = Semiring(
    name="count",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0,
    one=1,
    weight=lambda p: 1 if p > 0.0 else 0,
)


def shortest_distance(sfa: Sfa, semiring: Semiring = REAL) -> dict[int, float]:
    """Single-source generalized shortest distance from the start node.

    ``d[v] = plus over labeled paths p: start->v of times over p of
    weight(emission prob)`` -- computed in one topological sweep, exactly
    OpenFST's ``ShortestDistance`` on an acyclic machine.

    Instances: ``REAL`` gives :func:`repro.sfa.ops.forward_mass`;
    ``VITERBI`` at the final node gives the MAP probability; ``TROPICAL``
    gives its -log cost; ``COUNT`` gives :func:`repro.sfa.ops.string_count`.
    """
    distance = {node: semiring.zero for node in sfa.nodes}
    distance[sfa.start] = semiring.one
    for node in topological_order(sfa):
        current = distance[node]
        if current == semiring.zero:
            continue
        for succ in set(sfa.succ(node)):
            acc = distance[succ]
            for emission in sfa.emissions(node, succ):
                acc = semiring.plus(
                    acc, semiring.times(current, semiring.weight(emission.prob))
                )
            distance[succ] = acc
    return distance
