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
  seeded line in one set of vectorized operations, and the
  ``(symbol, state)`` transition table of the symbols those lines emit
  is built up front by composing the query DFA's ``state x class``
  table along each distinct class string, so the per-line python work
  drops to almost nothing.

A batch laid out once serves every query and any subset of its lines
(``evaluate_batch(batch, lines=...)`` seeds only those): the engine keeps
one per shard and approach as its *scan image* (:mod:`repro.query.memo`).
The lockstep walks the seeded lines' program only -- one index of their
emissions in the layout, derived per query -- so a scan costs what its
seeded lines cost, not what the image holds.
The layout also records the character pairs each line can spell, so
:meth:`KernelBatch.spells` leaves out of that subset, before any DP, the
lines that cannot spell a pattern's required pairs.

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

__all__ = [
    "HAVE_NUMPY",
    "LineResult",
    "KernelBatch",
    "KernelEvaluator",
    "spelled_pairs",
]

_DEAD = _dfa.DEAD
_ACCEPT = _dfa._ACCEPT
#: Sentinel for a not-yet-computed transition in the python row cache;
#: distinct from ``DEAD`` (-1), which is a legitimate transition.
_UNFILLED = -2
#: Lines per block of the pair-bitmap build (:func:`_pair_bitmap`).
PAIR_BLOCK_LINES = 8


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


def spelled_pairs(kernel: CompiledKernel) -> frozenset[str] | None:
    """Every adjacent character pair a path of the kernel can spell.

    A pair is spelled inside one step's symbol, or across a node: a last
    character of a symbol into the node, then a first character of a
    symbol out of it.  A path's string is its symbols concatenated, so
    each of its pairs is in this set.  A kernel with an empty symbol on
    a step (from a damaged blob; no SFA emits one) can carry a pair
    across several nodes and gets ``None``: every pair.
    """
    symbols = kernel.symbols
    used = [symbols[sid] for sid in set(kernel.step_syms)]
    if not all(used):
        return None
    pairs = {sym[i : i + 2] for sym in used for i in range(len(sym) - 1)}
    syms = kernel.step_syms
    run_starts = kernel.run_starts
    firsts: list[set[str]] = [set() for _ in range(kernel.num_nodes)]
    lasts: list[set[str]] = [set() for _ in range(kernel.num_nodes)]
    for t in range(kernel.num_nodes):
        for run in range(kernel.node_runs[t], kernel.node_runs[t + 1]):
            into = lasts[kernel.run_dst[run]]
            for j in range(run_starts[run], run_starts[run + 1]):
                sym = symbols[syms[j]]
                firsts[t].add(sym[0])
                into.add(sym[-1])
    for ends, starts in zip(lasts, firsts):
        pairs.update(a + b for a in ends for b in starts)
    return frozenset(pairs)


def _pair_bitmap(np, batch: "KernelBatch"):
    """:func:`spelled_pairs` of every line of a numpy layout, as bits,
    read off the finished layout: ``bits[line, a, b >> 6] >> (b & 63) &
    1`` says whether the line spells ``chars[a] + chars[b]``, and
    ``any_pair[line]`` whether it has an empty symbol on a step.

    Built per block of :data:`PAIR_BLOCK_LINES` lines, so temporaries
    stay a few hundred KB whatever the batch size, and without BLAS.
    Across a node: the first characters out of the node form a bit row,
    and each character that ends a symbol into the node ORs that row
    into its own.  Inside symbols: the pairs of each step's symbol.
    """
    num_chars, num_syms = len(batch.chars), len(batch.sym_strings)
    words = max(1, -(-num_chars // 64))
    width = 64 * words
    first = np.full(num_syms, -1, dtype=np.int64)
    last = np.full(num_syms, -1, dtype=np.int64)
    inner_count = np.zeros(num_syms, dtype=np.int64)
    for length, idx, char_idx in batch.compose_plan:
        if length:
            first[idx] = char_idx[:, 0]
            last[idx] = char_idx[:, -1]
            inner_count[idx] = length - 1
    # Every symbol's inner pairs, as ``a * width + b``, symbol by symbol.
    inner_start = np.concatenate(([0], np.cumsum(inner_count)))
    inner = np.empty(int(inner_start[-1]), dtype=np.int64)
    for length, idx, char_idx in batch.compose_plan:
        if length > 1:
            inner[inner_start[idx][:, None] + np.arange(length - 1)] = (
                char_idx[:, :-1] * width + char_idx[:, 1:]
            )
    steps = batch.e_counts  # (node, line), step-major like the layout
    num_nodes, num_lines = steps.shape
    # Where each (node, line) segment starts in the layout.
    seg_start = np.asarray(batch.step_bounds[:-1], dtype=np.int64)[:, None]
    seg_start = seg_start + np.cumsum(steps, axis=1) - steps
    bits = np.empty((num_lines, num_chars, words), dtype=np.uint64)
    any_pair = np.zeros(num_lines, dtype=bool)
    for lo in range(0, num_lines, PAIR_BLOCK_LINES):
        size = min(PAIR_BLOCK_LINES, num_lines - lo)
        block = steps[:, lo : lo + size]
        counts = block.ravel()
        # The block's steps: per node, its lines' segments are adjacent.
        at = np.repeat(
            seg_start[:, lo : lo + size].ravel() - (np.cumsum(counts) - counts),
            counts,
        )
        at += np.arange(len(at))
        gsyms = batch.syms_flat[at]
        dst = batch.dst_flat[at]
        line = np.repeat(np.tile(np.arange(size), num_nodes), counts)
        src = np.repeat(np.arange(num_nodes), block.sum(axis=1))
        heads, tails = first[gsyms], last[gsyms]
        if (heads < 0).any():
            # Empty symbols have no first or last character: their lines
            # spell any pair.
            spelt = heads >= 0
            any_pair[lo + np.unique(line[~spelt])] = True
            gsyms, heads, tails = gsyms[spelt], heads[spelt], tails[spelt]
            line, src, dst = line[spelt], src[spelt], dst[spelt]
        # Flat indices into the block's (line, node, character) planes:
        # first characters out of each node, last characters into it.
        out = np.zeros((size, num_nodes, width), dtype=bool)
        out.reshape(-1)[(line * num_nodes + src) * width + heads] = True
        into = np.zeros((size, num_chars, num_nodes), dtype=bool)
        into.reshape(-1)[(line * num_chars + tails) * num_nodes + dst] = True
        out_rows = np.packbits(out, axis=-1, bitorder="little").view("<u8")
        spelled = bits[lo : lo + size]
        for word in range(words):
            spelled[..., word] = np.bitwise_or.reduce(
                np.where(into, out_rows[:, None, :, word], np.uint64(0)),
                axis=2,
            )
        counts = inner_count[gsyms]
        at = np.repeat(inner_start[gsyms] - (np.cumsum(counts) - counts), counts)
        within = np.zeros((size, num_chars, width), dtype=bool)
        within.reshape(-1)[
            np.repeat(line * (num_chars * width), counts)
            + inner[at + np.arange(len(at))]
        ] = True
        spelled |= np.packbits(within, axis=-1, bitorder="little").view("<u8")
    return bits, any_pair


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
    same batch (the engine keeps one per handle and approach: its *scan
    image*).  A laid-out batch holds read-only numpy arrays and nothing
    else: the python kernels it was built from are not retained
    (``kernels`` is ``None``).
    Without numpy (or with ``use_numpy=False``) only the kernel list is
    kept, for the per-line python replay.

    Either way the layout records which character pairs each line can
    spell (:func:`spelled_pairs`; as packed bits over ``chars`` in a
    numpy layout), so :meth:`spells` tells a scan, before any DP, which
    lines a pattern's required pairs rule out.
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
        "char_ids",
        "compose_plan",
        "pair_bits",
        "any_pair",
        "line_pairs",
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
        #: Per line, :func:`spelled_pairs` (a python batch only).
        self.line_pairs: list[frozenset[str] | None] | None = None
        if not use_numpy or not kernels:
            self.line_pairs = [spelled_pairs(kernel) for kernel in kernels]
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
        self.char_ids = {ch: i for i, ch in enumerate(self.chars)}
        lengths = np.asarray(
            [len(sym) for sym in self.sym_strings], dtype=np.int64
        )
        self.compose_plan = []
        for length in np.unique(lengths).tolist():
            idx = np.flatnonzero(lengths == length)
            char_idx = np.asarray(
                [
                    [self.char_ids[ch] for ch in self.sym_strings[i]]
                    for i in idx.tolist()
                ],
                dtype=np.int64,
            )
            self.compose_plan.append((length, idx, char_idx))
        # The per-kernel copies go before the bitmap's temporaries come.
        del per_kernel, syms_parts, probs_parts, dst_parts, back_parts
        #: ``any_pair`` marks lines with an empty symbol on a step.
        self.pair_bits, self.any_pair = _pair_bitmap(np, self)
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
            self.pair_bits,
            self.any_pair,
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

    def spells(self, pairs: frozenset[str], lines: Sequence[int]) -> list[bool]:
        """Per line of ``lines``: whether it can spell every pair of
        ``pairs``.  A line that cannot has probability exactly 0 for a
        pattern that requires them (:func:`~repro.automata.regex.required_pairs`),
        so a scan skips its DP.  Both layouts decide alike."""
        if not pairs:
            return [True] * len(lines)
        if not self.laid_out:
            line_pairs = self.line_pairs
            return [
                line_pairs[ln] is None or pairs <= line_pairs[ln] for ln in lines
            ]
        np = _np
        rows = np.asarray(lines, dtype=np.int64)
        spelled = np.ones(len(rows), dtype=bool)
        for pair in pairs:
            a = self.char_ids.get(pair[0])
            b = self.char_ids.get(pair[1])
            if a is None or b is None:  # no line has the character
                spelled[:] = False
                break
            word = self.pair_bits[rows, a, b >> 6]
            spelled &= (word >> np.uint64(b & 63) & np.uint64(1)).astype(bool)
        return (spelled | self.any_pair[rows]).tolist()


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

        ``lines`` restricts the evaluation to those line positions of
        the batch, any order; results come back in that order, and a
        repeated position is a ``ValueError``.  The other lines are
        never seeded: on the numpy path the lockstep runs over the
        seeded lines' program only -- per-step arrays and buckets sized
        by them, the transition table composed over the symbols they
        emit -- so the rest of the batch costs no cell, no transition
        and no float operation.  The requested lines' results and
        counters are bit for bit those of evaluating their kernels alone:
        per-line accumulation is independent.
        """
        if lines is not None and len(set(lines)) != len(lines):
            raise ValueError("lines repeats a line position")
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
    def _full_table(self, np, batch: KernelBatch, symbols=None):
        """The (symbol, state) transition matrix.

        Every character of the batch maps to its query character class.
        The symbols' class strings, right-padded to the longest with a
        class that leaves every state in place, compose the DFA's class
        columns along their *distinct* strings only, longest first, with
        one vectorized gather per character position (not one per
        position of every symbol length), and the rows are gathered back
        to the symbols.  ``DEAD`` is an extra absorbing sentinel (index
        ``num_states``) so compositions stay valid array indices; the
        returned matrix maps ``M[symbol_id, state] -> next state`` with
        ``dead_id`` standing in for ``DEAD``.  Transitions are exactly
        ``step_string``'s: integer function composition, no float
        involved.

        ``symbols`` (sorted, distinct symbol ids) composes only those
        symbols' rows: row ``i`` is then ``symbols[i]``'s, so every row
        of the compact matrix is written.
        """
        query = self.query
        num_states = query.num_states
        dead_id = num_states
        pad = query.num_classes
        # moves[cls, state]; the DFA's DEAD row (-1) becomes column
        # dead_id, and the padding class (row pad) is the identity.
        moves = np.empty((pad + 1, num_states + 1), dtype=np.int64)
        moves[:pad] = np.asarray(query.table, dtype=np.int64).T
        moves[moves == _DEAD] = dead_id
        moves[pad] = np.arange(num_states + 1, dtype=np.int64)
        char_class = np.asarray(
            [query.char_class(ch) for ch in batch.chars], dtype=np.int64
        )
        if symbols is None:
            num_rows = len(batch.sym_strings)
        else:
            num_rows = len(symbols)
            row_of = np.full(len(batch.sym_strings), -1, dtype=np.int64)
            row_of[symbols] = np.arange(num_rows, dtype=np.int64)
        table = np.empty((num_rows, num_states + 1), dtype=np.int64)
        # The wanted rows of each length group, longest group first.
        groups = []
        for length, idx, char_idx in reversed(batch.compose_plan):
            rows = idx
            if symbols is not None:
                rows = row_of[idx]
                wanted = rows >= 0
                if not wanted.any():
                    continue
                rows, char_idx = rows[wanted], char_idx[wanted]
            if length == 0:  # step_string(state, "") is the identity
                table[rows] = np.arange(num_states + 1, dtype=np.int64)
                continue
            groups.append((rows, char_class[char_idx]))
        if not groups:
            return table, dead_id
        width = groups[0][1].shape[1]
        padded = np.full(
            (sum(len(rows) for rows, _ in groups), width), pad, dtype=np.int64
        )
        at = 0
        for rows, classes in groups:
            padded[at : at + len(rows), : classes.shape[1]] = classes
            at += len(rows)
        strings, inverse = _distinct_rows(np, padded, pad + 1)
        # Longest first, so the strings still running at a position are
        # a prefix: running[pos] of them have a character there.
        lengths = np.count_nonzero(strings != pad, axis=1)
        order = np.argsort(-lengths, kind="stable")
        strings = strings[order]
        running = np.count_nonzero(
            lengths[:, None] > np.arange(width), axis=0
        ).tolist()
        current = moves[strings[:, 0]]
        for pos in range(1, width):
            live = running[pos]
            current[:live] = moves[strings[:live, pos, None], current[:live]]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order), dtype=order.dtype)
        table[np.concatenate([rows for rows, _ in groups])] = current[
            rank[inverse]
        ]
        return table, dead_id

    def _numpy_batch(
        self, batch: KernelBatch, lines: Sequence[int]
    ) -> list[LineResult]:
        np = _np
        query = self.query
        match_anywhere = query.match_anywhere
        if match_anywhere and query.is_accepting(query.start):
            start_backward = batch.start_backward
            return [LineResult(start_backward[ln], 0, 0) for ln in lines]
        # The seeded lines, renumbered 0..L-1 in batch order, and their
        # program: step t's emissions of local line l are e_counts[t, l]
        # entries of the layout, at idx[bounds[t]:bounds[t + 1]] (line-
        # minor, like the layout).  The unseeded lines never hold mass,
        # so they are left out of every per-step array.
        seeded = np.sort(np.asarray(lines, dtype=np.int64))
        num_seeded = len(seeded)
        e_counts = batch.e_counts
        syms_flat = batch.syms_flat
        if num_seeded == batch.num_lines:  # idx is the identity
            idx = None
            bounds = batch.step_bounds
            symbols = row_of = None
        else:
            counts = e_counts[:, seeded]
            seg_start = (
                np.asarray(batch.step_bounds[:-1], dtype=np.int64)[:, None]
                + np.cumsum(e_counts, axis=1)
                - e_counts
            )[:, seeded].ravel()
            e_counts = counts
            counts = counts.ravel()
            ends = np.cumsum(counts)
            idx = np.repeat(seg_start - (ends - counts), counts)
            idx += np.arange(len(idx), dtype=np.int64)
            bounds = [0, *ends[num_seeded - 1 :: num_seeded].tolist()]
            # The table covers the symbols these emissions use; row_of
            # maps a symbol id to its row.
            used = np.zeros(len(batch.sym_strings), dtype=bool)
            used[syms_flat[idx]] = True
            symbols = np.flatnonzero(used)
            row_of = np.cumsum(used) - 1
        table, dead_id = self._full_table(np, batch, symbols)
        mod = dead_id + 1  # states are < dead_id in every bucket
        table = table.ravel()
        line_ids = np.arange(num_seeded, dtype=np.int64)
        max_steps = batch.max_steps
        final_pos = batch.final_pos[seeded]

        # Pending contributions per destination topological position:
        # (line, state, weight) arrays appended in program order, which
        # is the dict evaluator's insertion order into each node's dict.
        pending: list[list] = [[] for _ in range(max_steps + 1)]
        start_pos = batch.start_pos[seeded]
        init_state = np.full(num_seeded, query.start, dtype=np.int64)
        init_mass = np.ones(num_seeded, dtype=np.float64)
        if int(start_pos.min()) == int(start_pos.max()):
            pending[int(start_pos[0])].append(
                (line_ids, init_state, init_mass)
            )
        else:  # degenerate kernels (tests): route per start position
            for pos in np.unique(start_pos).tolist():
                sel = start_pos == pos
                pending[pos].append(
                    (line_ids[sel], init_state[sel], init_mass[sel])
                )

        # Each line's answer: absorbed mass (match-anywhere) or accepted
        # mass at the final node (general), accumulated in entry order,
        # which per line is the dict evaluator's order; reached[l] says
        # whether a general line accepted anything (else its answer is
        # the dict DP's empty sum, int 0).
        answer = np.zeros(num_seeded, dtype=np.float64)
        reached = np.zeros(num_seeded, dtype=bool)
        accepting = np.asarray(
            [query.is_accepting(state) for state in range(mod)], dtype=bool
        )
        cells_per_line = np.zeros(num_seeded, dtype=np.int64)
        trans_per_line = np.zeros(num_seeded, dtype=np.int64)
        num_buckets = num_seeded * mod

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

            p_arr = np.bincount(b_line, minlength=num_seeded)
            cells_per_line += p_arr

            if not match_anywhere:
                # Lines whose final node is position t: their accepting
                # cells, in dict-insertion order, are the answer.  The
                # buckets stay in the work set -- a final node normally
                # has no program steps, and if a degenerate kernel gives
                # it some, the dict DP processes them too.
                took = (final_pos[b_line] == t) & accepting[b_state]
                if took.any():
                    np.add.at(answer, b_line[took], b_mass[took])
                    reached[b_line[took]] = True

            # Expand to one entry per (line, emission, state), emission-
            # major / state-minor: the dict evaluator's inner order.
            e_arr = e_counts[t]
            counts = e_arr * p_arr
            trans_per_line += counts
            total = int(counts.sum())
            if total == 0:
                continue
            lo, hi = bounds[t], bounds[t + 1]
            steps = np.arange(lo, hi) if idx is None else idx[lo:hi]
            g = np.repeat(steps, np.repeat(p_arr, e_arr))
            sym_rep = syms_flat[g]
            if row_of is not None:
                sym_rep = row_of[sym_rep]
            line_rep = np.repeat(line_ids, counts)
            entry_start = np.cumsum(counts) - counts
            j_local = np.arange(total, dtype=np.int64) - np.repeat(
                entry_start, counts
            )
            p_rep = np.repeat(p_arr, counts)
            bidx = np.repeat(np.cumsum(p_arr) - p_arr, counts) + (
                j_local % p_rep
            )

            nxt = table[sym_rep * mod + b_state[bidx]]
            weights = b_mass[bidx] * batch.probs_flat[g]

            if match_anywhere:
                accepted = nxt == _ACCEPT
                if accepted.any():
                    np.add.at(
                        answer,
                        line_rep[accepted],
                        weights[accepted] * batch.back_flat[g[accepted]],
                    )
                keep = ~accepted
            else:
                keep = nxt != dead_id
            if keep.all():
                k_line, k_nxt, k_w, k_g = line_rep, nxt, weights, g
            else:
                k_line = line_rep[keep]
                k_nxt = nxt[keep]
                k_w = weights[keep]
                k_g = g[keep]
            if len(k_line) == 0:
                continue
            k_dst = batch.dst_flat[k_g]
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

        # Python floats and ints, in the order of ``lines``.
        probability = answer.tolist()
        if not match_anywhere:
            probability = [
                mass if hit else 0
                for mass, hit in zip(probability, reached.tolist())
            ]
        cells = cells_per_line.tolist()
        transitions = trans_per_line.tolist()
        return [
            LineResult(probability[ln], cells[ln], transitions[ln])
            for ln in np.searchsorted(seeded, np.asarray(lines)).tolist()
        ]
