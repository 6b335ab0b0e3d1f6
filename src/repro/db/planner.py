"""Cost-based plan selection: index probe vs filescan.

Section 5.3's lesson is that the dictionary index helps only while the
anchor term is selective; Figure 20 shows selectivity saturating toward
100% at high (m, k), "rendering [the indexes] useless".  A real system
must therefore *choose* between the probe and the scan per query.  This
planner makes that choice the way a textbook optimizer would:

    cost(scan)  ~ N * c_line
    cost(probe) ~ c_lookup + sel * N * c_line

so the probe wins when the anchor's selectivity is below roughly
``1 - c_lookup / (N * c_line)`` -- i.e. almost always when selective, and
never when the posting list covers the corpus.  Selectivity comes from
the index itself (a COUNT(DISTINCT) probe), mirroring how an RDBMS uses
its statistics.  It counts every line the index plan would evaluate:
the lines holding a posting of the anchor plus the lines the index does
not cover (:meth:`~repro.db.engine.StaccatoDB.uncovered_keys` -- none
on a file whose writers index what they ingest), which that plan scans
whole; so the plans return the same lines whichever is chosen, and a
file with a long uncovered tail is scanned rather than probed.

Both plans evaluate compiled kernels (:mod:`repro.query.eval_kernel`):
the scan as one lockstep batch over every line, the probe as a
projected replay of each candidate's kernel on the windows of its
postings, after one keyed read of the candidates' rows.  Measured at
``m=40, k=25`` on the 96 lines of the end-to-end corpus (2 vCPUs,
numpy): a projected candidate costs ~0.36 ms (keyed fetch + decode +
python replay) on top of ~0.43 ms per probe, whichever handle runs it.
A scanned line costs ~0.45 ms on a plain handle (fetch, decode and
layout per query), which is where the 0.8 threshold came from, but
~0.07 ms on a service handle, whose scan image
(:mod:`repro.query.memo`) leaves only the DP: there the plans cross at
~17 candidates of 96, a selectivity of ~0.18, and between 0.18 and 0.8
the probe is the slower plan (7-28 ms against a 7 ms scan).  The
threshold is deliberately not moved with the scan cost: it decides
whether a request returns projected or full-line probabilities, so
recalibrating it changes answers and counters and is its own change
(ROADMAP).

:func:`execute_plan` parses the anchor once and probes the index once:
the posting lists and uncovered lines it judges the selectivity by are
what the index plan then evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import counters
from ..indexing.anchors import anchor_for_query
from .engine import StaccatoDB

__all__ = ["QueryPlan", "choose_plan", "execute_plan"]

#: Selectivity above which the probe stops paying for itself (the probe
#: also pays the B-tree lookup and posting materialization).
DEFAULT_SELECTIVITY_THRESHOLD = 0.8


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """The chosen access path for one query."""

    kind: str  # "index" | "scan"
    anchor: str | None
    selectivity: float | None
    reason: str


def choose_plan(
    db: StaccatoDB,
    like: str,
    threshold: float = DEFAULT_SELECTIVITY_THRESHOLD,
) -> QueryPlan:
    """Pick the access path for ``like`` against the current index."""
    anchor, why_not = _usable_anchor(db, like)
    if anchor is None:
        return _counted(QueryPlan("scan", None, None, why_not))
    selectivity = db.index_selectivity(anchor) + db.line_fraction(
        len(db.uncovered_keys())
    )
    return _counted(_by_selectivity(anchor, selectivity, threshold))


def _counted(plan: QueryPlan) -> QueryPlan:
    if plan.kind == "index":
        counters.add(plan_index=1)
    else:
        counters.add(plan_scan=1)
    return plan


def _usable_anchor(db: StaccatoDB, like: str) -> tuple[str | None, str]:
    """The anchor term the index can serve, or why there is none."""
    if db._trie is None:
        return None, "no index built; batched filescan"
    anchor = anchor_for_query(like, db._trie)
    if anchor is None:
        return (
            None,
            "query is not left-anchored by a dictionary term; batched filescan",
        )
    return anchor, ""


def _by_selectivity(
    anchor: str, selectivity: float, threshold: float
) -> QueryPlan:
    if selectivity > threshold:
        return QueryPlan(
            "scan",
            anchor,
            selectivity,
            f"anchor '{anchor}' matches {selectivity:.0%} of lines "
            f"(> {threshold:.0%} threshold)",
        )
    return QueryPlan(
        "index",
        anchor,
        selectivity,
        f"anchor '{anchor}' selects {selectivity:.0%} of lines",
    )


def execute_plan(
    db: StaccatoDB,
    like: str,
    approach: str = "staccato",
    num_ans: int | None = 100,
    threshold: float = DEFAULT_SELECTIVITY_THRESHOLD,
):
    """Choose and run the best plan; returns ``(plan, answers)``.

    The choice is :func:`choose_plan`'s, made from the index probe
    itself instead of a separate ``COUNT(DISTINCT)``: the lines the
    index plan would evaluate -- the anchor's posting lists plus every
    line the index does not cover -- are the selectivity, and they are
    handed to the index plan.
    """
    anchor, why_not = _usable_anchor(db, like)
    if anchor is None:
        plan = QueryPlan("scan", None, None, why_not)
    else:
        candidates, uncovered = db.index_probe(anchor)
        plan = _by_selectivity(
            anchor,
            db.line_fraction(len(candidates) + len(uncovered)),
            threshold,
        )
    _counted(plan)
    if plan.kind == "index":
        answers = db.indexed_search(
            like,
            approach=approach,
            num_ans=num_ans,
            probed=(anchor, candidates, uncovered),
        )
    else:
        answers = db.search(like, approach=approach, num_ans=num_ans)
    return plan, answers
