"""Batched query evaluation over compiled SFA kernels.

Two evaluators for the same program (:class:`repro.sfa.kernel.CompiledKernel`):

* a **pure-python replay** that mirrors the dict evaluator of
  :mod:`repro.query.eval_sfa` step for step -- the always-on correctness
  reference.  It beats the dict DP by caching the DFA transition of each
  ``(state, symbol)`` pair once *per evaluator* (one filescan shares the
  cache across every line) instead of re-walking the symbol's characters
  per line;
* a **numpy lockstep batch** path that advances many lines through the
  DP at once: step ``t`` processes the ``t``-th topological node of every
  line in one set of vectorized operations, and the full
  ``(symbol, state)`` transition table is built up front by composing
  the query DFA's ``state x class`` table along each distinct class
  string of the batch's symbols, so the per-line python work drops to
  almost nothing.

A batch laid out once serves every query and any subset of its lines
(``evaluate_batch(batch, lines=...)`` seeds only those): the engine keeps
one per shard and approach as its *scan image* (:mod:`repro.query.memo`).

The index plan evaluates its candidates with the python replay
restricted to the windows of their postings
(:meth:`KernelEvaluator.evaluate_projected`): the same function as the
full-line replay, with mass injected at the posting entries instead of
the start node.

Both paths are bit-for-bit equal to the dict evaluator: products are the
same IEEE multiplies, and sums into each (node, DFA-state) cell are
applied in the same order -- ``np.add.at`` accumulates repeated indices
sequentially, and per-cell insertion order is reconstructed from first
occurrences (``np.minimum.at``).  ``tests/test_kernel_equivalence.py``
pins this down property-style.

The numpy fast path is auto-detected at import; setting the
``REPRO_NO_NUMPY`` environment variable masks it (the CI matrix uses
this to exercise the pure-python fallback).
"""

from __future__ import annotations

import os
from typing import Iterable, NamedTuple, Sequence

from ..automata import dfa as _dfa
from ..automata.dfa import Dfa
from ..sfa.kernel import CompiledKernel

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - depends on the environment
        _np = None

HAVE_NUMPY = _np is not None

__all__ = ["HAVE_NUMPY", "LineResult", "KernelBatch", "KernelEvaluator"]

_DEAD = _dfa.DEAD
_ACCEPT = _dfa._ACCEPT
#: Sentinel for a not-yet-computed transition in the python row cache;
#: distinct from ``DEAD`` (-1), which is a legitimate transition.
_UNFILLED = -2


class LineResult(NamedTuple):
    """One line's evaluation: probability plus its exact DP counters."""

    probability: float
    dp_cells: int
    dp_transitions: int


def _window_positions(
    kernel: CompiledKernel, entries: set[int], depth: int
) -> set[int]:
    """Positions within ``depth`` edges of any entry position: the union
    of :func:`repro.indexing.projection.projection_nodes` over the
    entries, as one level-synchronous multi-source search."""
    node_runs = kernel.node_runs
    run_dst = kernel.run_dst
    seen = set(entries)
    frontier = list(entries)
    for _ in range(depth):
        reached = []
        for t in frontier:
            for dst in run_dst[node_runs[t] : node_runs[t + 1]]:
                if dst not in seen:
                    seen.add(dst)
                    reached.append(dst)
        if not reached:
            break
        frontier = reached
    return seen


def _distinct_rows(np, rows, radix: int):
    """The distinct rows of a 2-D array of ints in ``[0, radix)``, and the
    index of each row among them: one mixed-radix ``int64`` key per row
    (renumbered densely whenever the next digit could overflow it), then
    a 1-D ``np.unique``."""
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every key is < bound
    for column in rows.T:
        if bound * radix > 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        key = key * radix + column
        bound *= radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return rows[first], inverse


class KernelBatch:
    """Query-independent lockstep layout over a fixed list of kernels.

    Building the layout -- a global symbol table plus the per-step
    concatenation of every line's program segment -- costs one pass over
    the kernels and is reusable for every query evaluated against the
    same batch (the bench harness keeps one per representation point,
    the engine one per shard and approach: its *scan image*).  A laid-out
    batch holds read-only numpy arrays and nothing else: the python
    kernels it was built from are not retained (``kernels`` is ``None``).
    Without numpy (or with ``use_numpy=False``) only the kernel list is
    kept, for the per-line python replay.
    """

    __slots__ = (
        "kernels",
        "num_lines",
        "max_steps",
        "sym_strings",
        "syms_flat",
        "probs_flat",
        "dst_flat",
        "back_flat",
        "step_bounds",
        "e_counts",
        "start_pos",
        "final_pos",
        "start_backward",
        "chars",
        "compose_plan",
        "nbytes",
    )

    def __init__(
        self,
        kernels: Sequence[CompiledKernel],
        use_numpy: bool | None = None,
    ) -> None:
        if use_numpy is None:
            use_numpy = HAVE_NUMPY
        elif use_numpy and not HAVE_NUMPY:
            raise RuntimeError("numpy is not available in this process")
        kernels = list(kernels)
        #: The decoded kernels of a python-replay batch; ``None`` once
        #: the numpy layout has replaced them.
        self.kernels: list[CompiledKernel] | None = kernels
        self.num_lines = len(kernels)
        self.max_steps = max((k.num_nodes for k in kernels), default=0)
        self.sym_strings: list[str] = []
        #: Bytes held by the layout's arrays (0 for a python batch).
        self.nbytes = 0
        if not use_numpy or not kernels:
            return
        np = _np
        gid: dict[str, int] = {}
        per_kernel = []
        for kernel in kernels:
            syms, probs, dst, flat_back = kernel.numpy_arrays(np)
            remap = np.empty(max(len(kernel.symbols), 1), dtype=np.int64)
            for i, sym in enumerate(kernel.symbols):
                g = gid.get(sym)
                if g is None:
                    g = gid[sym] = len(self.sym_strings)
                    self.sym_strings.append(sym)
                remap[i] = g
            gsyms = remap[syms] if len(syms) else syms
            per_kernel.append((gsyms, probs, dst, flat_back, kernel))
        # Step-major, line-minor concatenation of every program segment.
        syms_parts, probs_parts, dst_parts, back_parts = [], [], [], []
        bounds = [0]
        total = 0
        e_counts = np.zeros(
            (self.max_steps, self.num_lines), dtype=np.int64
        )
        for t in range(self.max_steps):
            for ln, (gsyms, probs, dst, flat_back, kernel) in enumerate(
                per_kernel
            ):
                offsets = kernel.node_offsets
                if t + 1 >= len(offsets):
                    continue
                lo, hi = offsets[t], offsets[t + 1]
                if hi == lo:
                    continue
                e_counts[t, ln] = hi - lo
                total += hi - lo
                syms_parts.append(gsyms[lo:hi])
                probs_parts.append(probs[lo:hi])
                dst_parts.append(dst[lo:hi])
                back_parts.append(flat_back[lo:hi])
            bounds.append(total)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        self.syms_flat = (
            np.concatenate(syms_parts) if syms_parts else empty_i
        )
        self.probs_flat = (
            np.concatenate(probs_parts) if probs_parts else empty_f
        )
        self.dst_flat = (
            np.concatenate(dst_parts) if dst_parts else empty_i
        )
        self.back_flat = (
            np.concatenate(back_parts) if back_parts else empty_f
        )
        self.step_bounds = bounds
        self.e_counts = e_counts
        self.start_pos = np.asarray(
            [k.start_pos for k in kernels], dtype=np.int64
        )
        self.final_pos = np.asarray(
            [k.final_pos for k in kernels], dtype=np.int64
        )
        #: Per line, the mass that reaches the final node at all: the
        #: answer when the pattern matches the empty string.
        self.start_backward = [k.backward[k.start_pos] for k in kernels]
        # Symbol -> character-index decomposition, grouped by symbol
        # length: the query-independent half of the transition-table
        # build (the query-dependent half maps characters to the
        # query's classes and composes class columns).
        self.chars = sorted(
            {ch for sym in self.sym_strings for ch in sym}
        )
        char_id = {ch: i for i, ch in enumerate(self.chars)}
        lengths = np.asarray(
            [len(sym) for sym in self.sym_strings], dtype=np.int64
        )
        self.compose_plan = []
        for length in np.unique(lengths).tolist():
            idx = np.flatnonzero(lengths == length)
            char_idx = np.asarray(
                [
                    [char_id[ch] for ch in self.sym_strings[i]]
                    for i in idx.tolist()
                ],
                dtype=np.int64,
            )
            self.compose_plan.append((length, idx, char_idx))
        # The layout is shared by every query (and, as a scan image, by
        # every thread of a shard): immutable from here on.
        arrays = [
            self.syms_flat,
            self.probs_flat,
            self.dst_flat,
            self.back_flat,
            self.e_counts,
            self.start_pos,
            self.final_pos,
        ]
        for _length, idx, char_idx in self.compose_plan:
            arrays += (idx, char_idx)
        for array in arrays:
            array.flags.writeable = False
        self.nbytes = sum(array.nbytes for array in arrays)
        self.kernels = None

    @property
    def laid_out(self) -> bool:
        """True for a numpy layout, False for a python-replay batch."""
        return self.kernels is None


class KernelEvaluator:
    """Evaluates compiled kernels against one query DFA.

    One instance per (query, scan): the transition caches are shared
    across every line the instance evaluates, which is a large part of
    the win over the per-line dict DP.

    Counter accounting is returned per line (:class:`LineResult`), never
    flushed to :mod:`repro.counters` here -- callers flush, so batched
    and per-line scans report identical totals.
    """

    def __init__(self, query: Dfa) -> None:
        self.query = query
        #: symbol string -> per-state transition row (python replay).
        self._rows: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    def evaluate(self, kernel: CompiledKernel) -> LineResult:
        """One line through the pure-python replay."""
        query = self.query
        if not query.match_anywhere:
            return self._python_general(kernel)
        if query.is_accepting(query.start):
            # Pattern matches the empty string: everything matches, and
            # the dict evaluator returns before counting anything.
            return LineResult(kernel.backward[kernel.start_pos], 0, 0)
        return self._python_absorbing(kernel, {kernel.start_pos: 1.0}, None)

    def evaluate_projected(
        self, kernel: CompiledKernel, entry_ids: Iterable[int], window: int
    ) -> LineResult:
        """One line restricted to the windows of its index postings.

        ``entry_ids`` are the original node ids the postings start at
        (their ``u``); the DP runs over the nodes within ``window`` edges
        of any of them.  Bit for bit
        :func:`repro.indexing.projection.projected_match_probability`,
        counters included; an id the kernel does not have is a
        ``KeyError``, as it is there.
        """
        if not self.query.match_anywhere:
            raise ValueError("projection only supports match-anywhere queries")
        position = {
            node_id: t for t, node_id in enumerate(kernel.node_ids)
        }
        entries = {position[node_id] for node_id in entry_ids}
        if not entries:
            return LineResult(0.0, 0, 0)
        forward = kernel.forward
        probability, cells, transitions = self._python_absorbing(
            kernel,
            {t: forward[t] for t in entries if forward[t] > 0.0},
            _window_positions(kernel, entries, window),
        )
        return LineResult(min(probability, 1.0), cells, transitions)

    def evaluate_batch(
        self,
        batch: KernelBatch | Sequence[CompiledKernel],
        use_numpy: bool | None = None,
        lines: Sequence[int] | None = None,
    ) -> list[LineResult]:
        """Many lines at once; numpy lockstep when available.

        ``use_numpy=None`` auto-selects; ``False`` forces the python
        replay (the A/B tests compare both against the dict DP).  A
        :class:`KernelBatch` already decided when it was built.

        ``lines`` restricts the evaluation to those (distinct) line
        positions of the batch, any order; results come back in that
        order.  The other lines are never seeded, so they cost no cell,
        no transition and no float operation, and the requested lines'
        results and counters are bit for bit those of evaluating their
        kernels alone -- per-line accumulation is independent.
        """
        if not isinstance(batch, KernelBatch):
            batch = KernelBatch(batch, use_numpy)
        elif use_numpy is not None and use_numpy != batch.laid_out:
            raise ValueError(
                "this KernelBatch was built "
                + ("with" if batch.laid_out else "without")
                + " the numpy layout"
            )
        if lines is None:
            lines = range(batch.num_lines)
        if not len(lines):
            return []
        if not batch.laid_out:
            kernels = batch.kernels
            return [self.evaluate(kernels[ln]) for ln in lines]
        return self._numpy_batch(batch, lines)

    # ------------------------------------------------------------------
    # Pure-python replay (always available; the correctness reference)
    # ------------------------------------------------------------------
    def _row_for(self, sym: str) -> list[int]:
        row = self._rows.get(sym)
        if row is None:
            row = self._rows[sym] = []
        return row

    def _python_general(self, kernel: CompiledKernel) -> LineResult:
        query = self.query
        step_string = query.step_string
        symbols = kernel.symbols
        syms = kernel.step_syms
        probs = kernel.step_probs
        node_runs = kernel.node_runs
        run_dst = kernel.run_dst
        run_starts = kernel.run_starts
        rows_local: list[list[int] | None] = [None] * len(symbols)
        n = kernel.num_nodes
        masses: list[dict[int, float]] = [{} for _ in range(n)]
        masses[kernel.start_pos][query.start] = 1.0
        cells = 0
        transitions = 0
        for t in range(n):
            dist = masses[t]
            if not dist:
                continue
            cells += len(dist)
            items = dist.items()  # safe: destinations are strictly later nodes
            num_states = len(items)
            for run in range(node_runs[t], node_runs[t + 1]):
                succ_dist = masses[run_dst[run]]
                lo, hi = run_starts[run], run_starts[run + 1]
                transitions += num_states * (hi - lo)
                for j in range(lo, hi):
                    sid = syms[j]
                    row = rows_local[sid]
                    if row is None:
                        row = rows_local[sid] = self._row_for(symbols[sid])
                    prob = probs[j]
                    for state, mass in items:
                        try:
                            nxt = row[state]
                        except IndexError:
                            row.extend(
                                (_UNFILLED,) * (state + 1 - len(row))
                            )
                            nxt = _UNFILLED
                        if nxt == _UNFILLED:
                            nxt = row[state] = step_string(
                                state, symbols[sid]
                            )
                        if nxt == _DEAD:
                            continue
                        weight = mass * prob
                        succ_dist[nxt] = succ_dist.get(nxt, 0.0) + weight
        probability = sum(
            mass
            for state, mass in masses[kernel.final_pos].items()
            if query.is_accepting(state)
        )
        return LineResult(probability, cells, transitions)

    def _python_absorbing(
        self,
        kernel: CompiledKernel,
        injected: dict[int, float],
        window: Iterable[int] | None,
    ) -> LineResult:
        """The match-anywhere DP over the nodes at positions ``window``.

        ``injected`` maps a position to the mass that enters the query's
        start state there.  The full-line evaluation is the special case
        of mass 1 at the start node and no window restriction
        (``None``); the index plan injects each posting entry's forward
        mass and restricts the DP to the entries' neighbourhood.  Steps
        into a node outside the window are skipped and not counted.
        """
        query = self.query
        step_string = query.step_string
        symbols = kernel.symbols
        syms = kernel.step_syms
        probs = kernel.step_probs
        node_runs = kernel.node_runs
        run_dst = kernel.run_dst
        run_starts = kernel.run_starts
        backward = kernel.backward
        rows_local: list[list[int] | None] = [None] * len(symbols)
        n = kernel.num_nodes
        masses: list[dict[int, float] | None]
        if window is None:
            masses = [{} for _ in range(n)]
        else:
            masses = [None] * n
            for t in window:
                masses[t] = {}
        for t, mass in injected.items():
            masses[t][query.start] = mass
        matched = 0.0
        cells = 0
        transitions = 0
        for t in range(n):
            dist = masses[t]
            if not dist:
                continue
            cells += len(dist)
            items = dist.items()  # safe: destinations are strictly later nodes
            num_states = len(items)
            for run in range(node_runs[t], node_runs[t + 1]):
                dst = run_dst[run]
                succ_dist = masses[dst]
                if succ_dist is None:
                    continue
                back = backward[dst]
                lo, hi = run_starts[run], run_starts[run + 1]
                transitions += num_states * (hi - lo)
                for j in range(lo, hi):
                    sid = syms[j]
                    row = rows_local[sid]
                    if row is None:
                        row = rows_local[sid] = self._row_for(symbols[sid])
                    prob = probs[j]
                    for state, mass in items:
                        try:
                            nxt = row[state]
                        except IndexError:
                            row.extend(
                                (_UNFILLED,) * (state + 1 - len(row))
                            )
                            nxt = _UNFILLED
                        if nxt == _UNFILLED:
                            nxt = row[state] = step_string(
                                state, symbols[sid]
                            )
                        weight = mass * prob
                        # In match-anywhere mode the only accepting state
                        # is the absorbing _ACCEPT; DEAD never occurs.
                        if nxt == _ACCEPT:
                            matched += weight * back
                        else:
                            succ_dist[nxt] = succ_dist.get(nxt, 0.0) + weight
        return LineResult(matched, cells, transitions)

    # ------------------------------------------------------------------
    # Numpy lockstep batch
    # ------------------------------------------------------------------
    def _full_table(self, np, batch: KernelBatch):
        """The complete (symbol, state) transition matrix.

        Every character of the batch maps to its query character class;
        each symbol-length group then composes the DFA's class columns
        along its *distinct* class strings only, with vectorized gathers,
        and gathers the rows back to its symbols.  ``DEAD`` is an extra
        absorbing sentinel (index ``num_states``) so compositions stay
        valid array indices; the returned matrix maps
        ``M[symbol_id, state] -> next state`` with ``dead_id`` standing
        in for ``DEAD``.  Transitions are exactly ``step_string``'s:
        integer function composition, no float involved.
        """
        query = self.query
        num_states = query.num_states
        dead_id = num_states
        # moves[cls, state]; the DFA's DEAD row (-1) becomes column dead_id.
        moves = np.asarray(query.table, dtype=np.int64).T.copy()
        moves[moves == _DEAD] = dead_id
        char_class = np.asarray(
            [query.char_class(ch) for ch in batch.chars], dtype=np.int64
        )
        table = np.empty(
            (len(batch.sym_strings), num_states + 1), dtype=np.int64
        )
        for length, idx, char_idx in batch.compose_plan:
            if length == 0:  # step_string(state, "") is the identity
                table[idx] = np.arange(num_states + 1, dtype=np.int64)
                continue
            strings, inverse = _distinct_rows(
                np, char_class[char_idx], query.num_classes
            )
            current = moves[strings[:, 0]]
            for pos in range(1, length):
                current = moves[strings[:, pos, None], current]
            table[idx] = current[inverse]
        return table, dead_id

    def _numpy_batch(
        self, batch: KernelBatch, lines: Sequence[int]
    ) -> list[LineResult]:
        np = _np
        query = self.query
        match_anywhere = query.match_anywhere
        num_lines = batch.num_lines
        if match_anywhere and query.is_accepting(query.start):
            start_backward = batch.start_backward
            return [LineResult(start_backward[ln], 0, 0) for ln in lines]
        table, dead_id = self._full_table(np, batch)
        mod = dead_id + 1  # states are < dead_id in every bucket
        line_ids = np.arange(num_lines, dtype=np.int64)
        max_steps = batch.max_steps
        final_pos = batch.final_pos
        bounds = batch.step_bounds
        e_counts = batch.e_counts

        # Pending contributions per destination topological position:
        # (line, state, weight) arrays appended in program order, which
        # is the dict evaluator's insertion order into each node's dict.
        pending: list[list] = [[] for _ in range(max_steps + 1)]
        # Only the requested lines are seeded; the rest of the batch
        # never holds mass, so every per-step quantity of theirs is 0.
        seeded = np.sort(np.asarray(lines, dtype=np.int64))
        start_pos = batch.start_pos[seeded]
        init_state = np.full(len(seeded), query.start, dtype=np.int64)
        init_mass = np.ones(len(seeded), dtype=np.float64)
        if int(start_pos.min()) == int(start_pos.max()):
            pending[int(start_pos[0])].append(
                (seeded, init_state, init_mass)
            )
        else:  # degenerate kernels (tests): route per start position
            for pos in np.unique(start_pos).tolist():
                sel = start_pos == pos
                pending[pos].append(
                    (seeded[sel], init_state[sel], init_mass[sel])
                )

        matched = [0.0] * num_lines  # absorbing accumulators (in order)
        finals: list[tuple[list[int], list[float]] | None] = (
            [None] * num_lines
        )
        cells_per_line = np.zeros(num_lines, dtype=np.int64)
        trans_per_line = np.zeros(num_lines, dtype=np.int64)
        num_buckets = num_lines * mod

        for t in range(max_steps):
            segments = pending[t]
            pending[t] = []
            if not segments:
                continue
            if len(segments) == 1:
                e_line, e_state, e_mass = segments[0]
            else:
                e_line = np.concatenate([s[0] for s in segments])
                e_state = np.concatenate([s[1] for s in segments])
                e_mass = np.concatenate([s[2] for s in segments])

            # Rebuild each line's mass dict for node t as dense buckets
            # keyed (line, state): per-cell sums accumulate in entry
            # order (np.add.at is unbuffered and sequential) and cell
            # order within a line is first-occurrence order -- both
            # exactly matching the dict evaluator.
            key = e_line * mod + e_state
            acc = np.zeros(num_buckets, dtype=np.float64)
            np.add.at(acc, key, e_mass)
            big = len(key)
            first = np.full(num_buckets, big, dtype=np.int64)
            np.minimum.at(
                first, key, np.arange(big, dtype=np.int64)
            )
            present = np.flatnonzero(first != big)
            order = np.lexsort((first[present], present // mod))
            bkeys = present[order]
            b_line = bkeys // mod
            b_state = bkeys % mod
            b_mass = acc[bkeys]

            cells_per_line += np.bincount(b_line, minlength=num_lines)

            # Lines whose final node is position t: capture their dist
            # (the general path's answer).  The buckets stay in the work
            # set -- a final node normally has no program steps, and if
            # a degenerate kernel gives it some, the dict DP processes
            # them too.
            at_final = final_pos[b_line] == t
            if at_final.any():
                f_line = b_line[at_final]
                f_state = b_state[at_final]
                f_mass = b_mass[at_final]
                # b_line is line-major, so each captured line is one
                # contiguous run (in its dict-insertion order).
                run_bounds = np.flatnonzero(np.diff(f_line)) + 1
                start = 0
                for end in list(run_bounds.tolist()) + [len(f_line)]:
                    if end == start:
                        continue
                    finals[int(f_line[start])] = (
                        f_state[start:end].tolist(),
                        f_mass[start:end].tolist(),
                    )
                    start = end

            # Expand to one entry per (line, emission, state), emission-
            # major / state-minor: the dict evaluator's inner order.
            p_arr = np.bincount(b_line, minlength=num_lines)
            e_arr = e_counts[t]
            counts = e_arr * p_arr
            trans_per_line += counts
            total = int(counts.sum())
            if total == 0:
                continue
            sl = slice(bounds[t], bounds[t + 1])
            syms_cat = batch.syms_flat[sl]
            probs_cat = batch.probs_flat[sl]
            dst_cat = batch.dst_flat[sl]

            rep_p = np.repeat(p_arr, e_arr)
            sym_rep = np.repeat(syms_cat, rep_p)
            prob_rep = np.repeat(probs_cat, rep_p)
            dst_rep = np.repeat(dst_cat, rep_p)
            line_rep = np.repeat(line_ids, counts)
            bucket_base = np.concatenate(([0], np.cumsum(p_arr)[:-1]))
            entry_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
            j_local = np.arange(total, dtype=np.int64) - np.repeat(
                entry_start, counts
            )
            p_rep = np.repeat(p_arr, counts)
            bidx = np.repeat(bucket_base, counts) + (j_local % p_rep)

            nxt = table[sym_rep, b_state[bidx]]
            weights = b_mass[bidx] * prob_rep

            if match_anywhere:
                accepted = nxt == _ACCEPT
                if accepted.any():
                    back_rep = np.repeat(batch.back_flat[sl], rep_p)
                    contrib = weights[accepted] * back_rep[accepted]
                    # Scalar accumulation in entry order: matched is a
                    # running python-float sum in the dict evaluator.
                    for ln, value in zip(
                        line_rep[accepted].tolist(), contrib.tolist()
                    ):
                        matched[ln] += value
                keep = ~accepted
            else:
                keep = nxt != dead_id
            if keep.all():
                k_line, k_nxt, k_w, k_dst = (
                    line_rep,
                    nxt,
                    weights,
                    dst_rep,
                )
            else:
                k_line = line_rep[keep]
                k_nxt = nxt[keep]
                k_w = weights[keep]
                k_dst = dst_rep[keep]
            if len(k_line) == 0:
                continue
            lo_dst = int(k_dst.min())
            if lo_dst == int(k_dst.max()):
                pending[lo_dst].append((k_line, k_nxt, k_w))
                continue
            # One contiguous run per destination, entry order kept within
            # each (a stable sort), destinations ascending.
            order = np.argsort(k_dst, kind="stable")
            k_dst = k_dst[order]
            k_line = k_line[order]
            k_nxt = k_nxt[order]
            k_w = k_w[order]
            cuts = (np.flatnonzero(k_dst[1:] != k_dst[:-1]) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(k_dst)]):
                pending[int(k_dst[lo])].append(
                    (k_line[lo:hi], k_nxt[lo:hi], k_w[lo:hi])
                )

        results = []
        if match_anywhere:
            for ln in lines:
                results.append(
                    LineResult(
                        matched[ln],
                        int(cells_per_line[ln]),
                        int(trans_per_line[ln]),
                    )
                )
        else:
            is_accepting = query.is_accepting
            for ln in lines:
                captured = finals[ln]
                if captured is None:
                    probability = sum(())  # dict DP's empty sum: int 0
                else:
                    states, ms = captured
                    probability = sum(
                        mass
                        for state, mass in zip(states, ms)
                        if is_accepting(state)
                    )
                results.append(
                    LineResult(
                        probability,
                        int(cells_per_line[ln]),
                        int(trans_per_line[ln]),
                    )
                )
        return results
