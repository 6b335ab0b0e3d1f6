"""Probabilistic query evaluation over SFAs (paper Section 2.2).

``Pr[q] = sum over strings x accepted by the query DFA of Pr(x)`` is
computed without enumeration by the dynamic program of Re et al. [45]:
propagate, in topological order, the probability mass of every (SFA node,
DFA state) pair.  The running time is linear in the SFA and (at worst)
cubic in the number of DFA states -- the ``l*q*k + q^3(m-1)`` /
``l*q*|Sigma| + q^3(l-1)`` costs of the paper's Table 1.

The same evaluator serves the FullSFA baseline (character emissions) and
Staccato chunk graphs (string emissions); only the data differs, exactly
as in the paper where both data and query are transducers.

One optimization matters in practice: the match-anywhere DFA has an
*absorbing* accept state, so once a path's mass reaches it the rest of its
suffix mass is fully matched.  We fold that mass out immediately using the
precomputed backward masses instead of dragging it through the DP.
"""

from __future__ import annotations

from .. import counters
from ..automata import dfa
from ..automata.dfa import Dfa
from ..sfa.model import Sfa
from ..sfa.ops import backward_mass, topological_order

__all__ = ["match_probability", "match_probability_exact"]


def match_probability(sfa: Sfa, query: Dfa) -> float:
    """Probability that a string emitted by ``sfa`` satisfies ``query``.

    Exact under the unique-paths property (each string = one path, so path
    probabilities sum to string probabilities).
    """
    if query.match_anywhere:
        return _match_probability_absorbing(sfa, query)
    return match_probability_exact(sfa, query)


def match_probability_exact(sfa: Sfa, query: Dfa) -> float:
    """The general DP without the absorbing-accept shortcut."""
    # The counters accumulate in plain locals; one counters.add() flush
    # per evaluation keeps the instrumented inner loop allocation-free.
    cells = 0
    transitions = 0
    masses: dict[int, dict[int, float]] = {node: {} for node in sfa.nodes}
    masses[sfa.start][query.start] = 1.0
    for node in topological_order(sfa):
        dist = masses[node]
        if not dist:
            continue
        cells += len(dist)
        for succ in set(sfa.successors(node)):
            succ_dist = masses[succ]
            for emission in sfa.emissions(node, succ):
                transitions += len(dist)
                for state, mass in dist.items():
                    nxt = query.step_string(state, emission.string)
                    if nxt == dfa.DEAD:
                        continue
                    weight = mass * emission.prob
                    succ_dist[nxt] = succ_dist.get(nxt, 0.0) + weight
    counters.add(dp_cells=cells, dp_transitions=transitions)
    return sum(
        mass
        for state, mass in masses[sfa.final].items()
        if query.is_accepting(state)
    )


def _match_probability_absorbing(sfa: Sfa, query: Dfa) -> float:
    """Match-anywhere DP: accepted mass is folded out through the backward
    masses the moment the absorbing accept state is reached."""
    backward = backward_mass(sfa)
    matched = 0.0
    cells = 0
    transitions = 0
    masses: dict[int, dict[int, float]] = {node: {} for node in sfa.nodes}
    start_state = query.start
    if query.is_accepting(start_state):
        # Pattern matches the empty string: everything matches.
        return backward[sfa.start]
    masses[sfa.start][start_state] = 1.0
    for node in topological_order(sfa):
        dist = masses[node]
        if not dist:
            continue
        cells += len(dist)
        for succ in set(sfa.successors(node)):
            succ_dist = masses[succ]
            for emission in sfa.emissions(node, succ):
                transitions += len(dist)
                for state, mass in dist.items():
                    nxt = query.step_string(state, emission.string)
                    weight = mass * emission.prob
                    if query.is_accepting(nxt):
                        matched += weight * backward[succ]
                    else:
                        succ_dist[nxt] = succ_dist.get(nxt, 0.0) + weight
    counters.add(dp_cells=cells, dp_transitions=transitions)
    return matched
