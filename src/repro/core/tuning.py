"""Automated (m, k) parameter tuning (paper Sections 3.2 and 5.5).

Choosing Staccato's knobs by hand is unintuitive, so the paper tunes them
from (a) a labeled sample of SFAs, (b) a set of representative queries,
(c) a *size constraint* (storage as a fraction of the FullSFA dataset
size) and (d) a *recall constraint*.  The Table 1 size model
``space(m, k) = l*k + 16*m*k`` ties k to m along the size boundary, which
turns tuning into a one-dimensional search: find the smallest ``m``
(smaller m = faster queries) whose boundary-k meets the recall target.
The paper solves it "using essentially a binary search"; so do we.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.dfa import Dfa
from ..query.eval_kernel import KernelBatch, KernelEvaluator
from ..query.like import compile_like
from ..sfa.kernel import compile_kernel
from ..sfa.model import Sfa
from ..sfa.paths import k_best_strings
from ..sfa.serialize import blob_size
from .approximate import staccato_approximate

__all__ = [
    "size_model",
    "dataset_size_model",
    "k_on_size_boundary",
    "TuningResult",
    "tune_parameters",
    "sample_recall",
]

#: Bytes of metadata stored per retained string: tuple id, location in the
#: SFA, probability value (the paper's "factor 16", Table 1).
METADATA_BYTES = 16


def size_model(length: int, m: int, k: int) -> int:
    """Table 1's Staccato space cost for one line: ``l*k + 16*m*k``."""
    return length * k + METADATA_BYTES * m * k


def dataset_size_model(lengths: list[int], m: int, k: int) -> int:
    """The size model summed over a dataset of line lengths."""
    return sum(size_model(length, m, k) for length in lengths)


def k_on_size_boundary(lengths: list[int], m: int, budget_bytes: int) -> int:
    """Largest k with ``dataset_size_model(lengths, m, k) <= budget``.

    The model is linear in k -- ``k * (sum(l) + 16*m*n)`` -- so the
    boundary k is a single division.
    """
    denom = sum(lengths) + METADATA_BYTES * m * len(lengths)
    return max(0, budget_bytes // denom)


@dataclass(frozen=True, slots=True)
class TuningResult:
    """Outcome of the automated tuner."""

    m: int
    k: int
    recall: float
    feasible: bool
    size_estimate: int
    budget_bytes: int


def sample_recall(
    sfas: list[Sfa],
    truth_texts: list[str],
    queries: list[str],
    m: int,
    k: int,
) -> float:
    """Average recall of the (m, k) approximation over sample queries.

    ``truth_texts`` are the ground-truth line contents aligned with
    ``sfas``; a line is truly relevant to a query iff its clean text
    matches, and retrieved iff the approximated SFA gives it non-zero
    match probability (its compiled kernel, one batch per point).
    """
    batch = KernelBatch(
        [compile_kernel(staccato_approximate(sfa, m, k)) for sfa in sfas]
    )
    recalls = []
    for like in queries:
        query: Dfa = compile_like(like)
        relevant = [i for i, text in enumerate(truth_texts) if query.accepts(text)]
        if not relevant:
            continue
        results = KernelEvaluator(query).evaluate_batch(batch, lines=relevant)
        hits = sum(1 for result in results if result.probability > 0.0)
        recalls.append(hits / len(relevant))
    if not recalls:
        return 1.0
    return sum(recalls) / len(recalls)


def tune_parameters(
    sfas: list[Sfa],
    truth_texts: list[str],
    queries: list[str],
    size_fraction: float = 0.10,
    recall_target: float = 0.9,
    m_step: int = 5,
) -> TuningResult:
    """Find the smallest feasible ``m`` (and its boundary ``k``).

    Implements the paper's method: the size budget is ``size_fraction``
    of the FullSFA dataset size; for each candidate ``m`` (multiples of
    ``m_step``, as in Section 5.5) the boundary ``k`` comes from the size
    model, and average recall is estimated on the labeled sample.  A
    binary search returns the smallest m meeting the recall target; if no
    m is feasible, the best attempt is returned with ``feasible=False``.
    """
    if not sfas:
        raise ValueError("tuning needs at least one sample SFA")
    lengths = [len(text) for text in truth_texts]
    budget = int(size_fraction * sum(blob_size(sfa) for sfa in sfas))
    max_m = max(sfa.num_edges for sfa in sfas)
    candidates = list(range(m_step, max_m + m_step, m_step))

    def evaluate(m: int) -> tuple[int, float]:
        k = k_on_size_boundary(lengths, m, budget)
        if k < 1:
            return 0, 0.0
        return k, sample_recall(sfas, truth_texts, queries, m, k)

    lo, hi = 0, len(candidates) - 1
    best: TuningResult | None = None
    fallback: TuningResult | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        m = candidates[mid]
        k, recall = evaluate(m)
        result = TuningResult(
            m=m,
            k=k,
            recall=recall,
            feasible=k >= 1 and recall >= recall_target,
            size_estimate=dataset_size_model(lengths, m, max(k, 1)),
            budget_bytes=budget,
        )
        if fallback is None or result.recall > fallback.recall:
            fallback = result
        if result.feasible:
            best = result
            hi = mid - 1  # look for a smaller feasible m
        else:
            lo = mid + 1
    if best is not None:
        return best
    assert fallback is not None
    return fallback
