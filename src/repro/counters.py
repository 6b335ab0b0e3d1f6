"""Process-wide engine counters for performance attribution.

The span tree (``repro.service.trace``) answers *where wall-clock time
went*; these counters answer *how much algorithmic work was done*: DP
cells visited, chunk transitions relaxed, lines scanned vs. matched,
index postings probed.  Both views matter for the paper's Figure 10 arc
-- a speedup that halves latency without shrinking cells-per-line is a
constant-factor win, one that shrinks the counters is algorithmic.

Design constraints, in order:

* **Hot-path cost ~ one dict write per evaluation.**  The DP inner loop
  runs millions of times per filescan, so instrumentation accumulates
  into plain local integers inside the loop and flushes through
  :func:`add` exactly once per ``match_probability`` call.
* **No import cycles.**  This module imports nothing from the package,
  so ``query``/``indexing``/``db``/``service`` can all use it.
* **Two sinks.**  ``add`` writes to the innermost active *local
  collector* when one is installed (a contextvar, so concurrent handler
  threads never mix), else directly to the process-global aggregate.
  :func:`collect` installs a local collector, and on exit folds its
  totals into the enclosing collector (or the global aggregate at the
  outermost level) -- so a request-scoped view is exact *and* the
  global totals still see every unit of work.  The global aggregate
  feeds ``/metrics`` (``staccato_engine_*_total``) and ``/stats``; in
  the worker-process topology each worker process keeps its own exact
  aggregate, surfaced through its own endpoints and the router's
  ``/stats`` fan-out.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "COUNTER_NAMES",
    "add",
    "collect",
    "global_snapshot",
    "reset_global",
]

#: Every counter the engine emits, with the ``/metrics`` help text.
#: Adding a counter here is all that is needed for it to appear in the
#: Prometheus exposition and the ``/stats`` engine block.
COUNTER_NAMES: dict[str, str] = {
    "dp_cells": "DP cells visited ((SFA node, DFA state) pairs relaxed).",
    "dp_transitions": "Chunk/character transitions relaxed by the DP.",
    "lines_scanned": "Lines whose representation was evaluated.",
    "lines_matched": "Lines whose match probability cleared the cutoff.",
    "lines_pruned": (
        "Lines or index candidates skipped: they cannot spell the pattern."
    ),
    "postings_probed": "Dictionary-index posting entries materialized.",
    "index_candidates": "Candidate lines produced by index probes.",
    "plan_index": "Planner decisions that chose the index probe.",
    "plan_scan": "Planner decisions that chose the filescan.",
    "memo_hits": "Kernel evaluations served from the cross-request memo.",
    "memo_misses": "Kernel evaluations the memo could not answer.",
}

_global_lock = threading.Lock()
_global: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

#: The innermost active local collector, or ``None`` when counts go
#: straight to the process aggregate.  A contextvar (not a thread-local)
#: so executor hops that propagate context keep attribution.
_LOCAL: ContextVar[dict[str, int] | None] = ContextVar(
    "engine_counters", default=None
)


def add(**deltas: int) -> None:
    """Accumulate counter deltas (unknown names are rejected loudly).

    Called once per engine operation, never per DP cell -- accumulate
    into plain ints inside hot loops and flush the totals here.
    """
    local = _LOCAL.get()
    if local is not None:
        for name, delta in deltas.items():
            if delta:
                local[name] = local.get(name, 0) + delta
        return
    with _global_lock:
        for name, delta in deltas.items():
            if name not in _global:
                raise KeyError(f"unknown engine counter {name!r}")
            if delta:
                _global[name] += delta


@contextmanager
def collect():
    """Install a local collector; yields the dict of counts so far.

    On exit the collected totals are folded into the enclosing collector
    (nested ``collect`` blocks compose) or the process-global aggregate,
    so scoped observation never loses counts.
    """
    counts: dict[str, int] = {}
    token = _LOCAL.set(counts)
    try:
        yield counts
    finally:
        _LOCAL.reset(token)
        if counts:
            add(**counts)


def global_snapshot() -> dict[str, int]:
    """A consistent copy of the process-global totals."""
    with _global_lock:
        return dict(_global)


def reset_global() -> None:
    """Zero the process aggregate (test isolation only)."""
    with _global_lock:
        for name in _global:
            _global[name] = 0
