"""Compiled SFA kernels: the evaluation DP lowered to flat arrays.

:mod:`repro.query.eval_sfa` evaluates a query DFA against an SFA by
walking the graph's dicts -- successor lists, per-edge emission lists,
per-node mass dicts.  That shape is flexible but slow: every filescan
re-discovers the same topological order, re-hashes the same emission
strings and re-walks the DFA character by character.

A :class:`CompiledKernel` is the same DP *program* precomputed once, at
construction time:

* nodes renumbered by topological position (``0 .. num_nodes-1``), the
  original node id of every position kept beside it -- index postings
  address nodes by id;
* emission strings compacted into a per-line symbol table, so the
  evaluator can cache DFA transitions per ``(state, symbol)`` instead of
  stepping character by character;
* the transition program flattened into parallel ``(symbol, prob)``
  step arrays, grouped into one *run* per ``(node, successor)`` edge and
  recorded in **exactly** the iteration order of the dict evaluator
  (topological order, then ``set(successors)`` order, then emission
  order), so a replay performs bit-for-bit the same float operations;
* the masses of :func:`repro.sfa.ops.backward_mass` and
  :func:`~repro.sfa.ops.forward_mass` precomputed per node: backward for
  the absorbing-accept shortcut, forward for the mass injected at an
  index posting's window entry.

The kernel serializes to a versioned columnar blob (``KRN2``), the
stored record of a line under an automaton approach -- :func:`to_sfa`
rebuilds the graph it was compiled from -- and its content fingerprint
keys the cross-request memo in :mod:`repro.query.memo`.
"""

from __future__ import annotations

import hashlib
import struct

from .model import Sfa, SfaError
from .ops import backward_mass, forward_mass, topological_order

__all__ = [
    "KERNEL_VERSION",
    "CompiledKernel",
    "compile_kernel",
    "to_sfa",
    "kernel_to_bytes",
    "kernel_from_bytes",
    "kernel_fingerprint",
    "blob_fingerprint",
]

#: Bump when the blob layout or the compiled program semantics change;
#: readers ignore rows of another version (a line that still has an
#: ``SFA1`` blob is recompiled from it).
KERNEL_VERSION = 2

_MAGIC = b"KRN2"
# magic, version, nodes, symbols, steps, runs, start, final
_HEADER = struct.Struct("<4sHIIIIII")


class CompiledKernel:
    """One SFA's evaluation program in flat, replayable form.

    The node at topological position ``t`` (original id ``node_ids[t]``)
    owns the runs ``node_runs[t] : node_runs[t+1]``; run ``r`` sends the
    steps ``run_starts[r] : run_starts[r+1]`` into the node at position
    ``run_dst[r]``, and step ``j`` emits ``symbols[step_syms[j]]`` with
    probability ``step_probs[j]``.  ``node_offsets[t] :
    node_offsets[t+1]`` bounds the same node's steps directly.
    """

    __slots__ = (
        "num_nodes",
        "start_pos",
        "final_pos",
        "node_ids",
        "symbols",
        "node_offsets",
        "node_runs",
        "run_dst",
        "run_starts",
        "step_syms",
        "step_probs",
        "backward",
        "forward",
        "_fingerprint",
    )

    def __init__(
        self,
        num_nodes: int,
        start_pos: int,
        final_pos: int,
        node_ids: list[int],
        symbols: list[str],
        node_offsets: list[int],
        node_runs: list[int],
        run_dst: list[int],
        run_starts: list[int],
        step_syms: list[int],
        step_probs: list[float],
        backward: list[float],
        forward: list[float],
    ) -> None:
        self.num_nodes = num_nodes
        self.start_pos = start_pos
        self.final_pos = final_pos
        self.node_ids = node_ids
        self.symbols = symbols
        self.node_offsets = node_offsets
        self.node_runs = node_runs
        self.run_dst = run_dst
        self.run_starts = run_starts
        self.step_syms = step_syms
        self.step_probs = step_probs
        self.backward = backward
        self.forward = forward
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Total program steps (one per stored emission)."""
        return len(self.step_syms)

    @property
    def fingerprint(self) -> str:
        """Content digest of the serialized kernel (memo key half)."""
        if self._fingerprint is None:
            self._fingerprint = kernel_fingerprint(self)
        return self._fingerprint

    def numpy_arrays(self, np):
        """The program as fresh numpy arrays.

        Returns ``(syms, probs, dst, flat_back)`` with ``dst`` the
        per-step destination (runs expanded) and ``flat_back[j] =
        backward[dst[j]]`` pre-gathering the absorbing shortcut's
        per-step backward mass.  Not cached: the one caller copies them
        into a batch layout and drops them.
        """
        syms = np.asarray(self.step_syms, dtype=np.int64)
        probs = np.asarray(self.step_probs, dtype=np.float64)
        dst = np.repeat(
            np.asarray(self.run_dst, dtype=np.int64),
            np.diff(np.asarray(self.run_starts, dtype=np.int64)),
        )
        backward = np.asarray(self.backward, dtype=np.float64)
        flat_back = backward[dst] if len(dst) else backward[:0]
        return syms, probs, dst, flat_back

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(nodes={self.num_nodes}, "
            f"steps={self.num_steps}, symbols={len(self.symbols)})"
        )


def compile_kernel(sfa: Sfa) -> CompiledKernel:
    """Lower ``sfa`` into its compiled kernel.

    The program is recorded in the *exact* iteration order of the dict
    evaluators (:func:`repro.query.eval_sfa.match_probability`,
    :func:`repro.indexing.projection.projected_match_probability`) --
    topological order, ``set(successors)`` order, emission order -- so
    replaying it performs the identical float operation sequence.  The
    masses come from the functions those evaluators call, not from a
    re-derivation: another summation order differs in the last ulp.
    """
    order = topological_order(sfa)
    pos = {node: i for i, node in enumerate(order)}
    symbols: list[str] = []
    sym_ids: dict[str, int] = {}
    node_offsets = [0]
    node_runs = [0]
    run_dst: list[int] = []
    run_starts = [0]
    step_syms: list[int] = []
    step_probs: list[float] = []
    for node in order:
        # set(...) mirrors the dict evaluator's successor iteration; the
        # resulting order is deterministic for identical successor lists
        # (small-int hashing), which the A/B equivalence tests pin down.
        for succ in set(sfa.successors(node)):
            run_dst.append(pos[succ])
            for emission in sfa.emissions(node, succ):
                sid = sym_ids.get(emission.string)
                if sid is None:
                    sid = sym_ids[emission.string] = len(symbols)
                    symbols.append(emission.string)
                step_syms.append(sid)
                step_probs.append(emission.prob)
            run_starts.append(len(step_syms))
        node_offsets.append(len(step_syms))
        node_runs.append(len(run_dst))
    back = backward_mass(sfa)
    fwd = forward_mass(sfa)
    return CompiledKernel(
        num_nodes=len(order),
        start_pos=pos[sfa.start],
        final_pos=pos[sfa.final],
        node_ids=order,
        symbols=symbols,
        node_offsets=node_offsets,
        node_runs=node_runs,
        run_dst=run_dst,
        run_starts=run_starts,
        step_syms=step_syms,
        step_probs=step_probs,
        backward=[back[node] for node in order],
        forward=[fwd[node] for node in order],
    )


def to_sfa(kernel: CompiledKernel) -> Sfa:
    """The SFA ``kernel`` was compiled from, as ``from_bytes`` returns it
    from that SFA's ``SFA1`` blob -- nodes (edgeless ones too) in id
    order, edges added in ``(u, v)`` order, emissions as stored -- so
    ``to_bytes(to_sfa(compile_kernel(s))) == to_bytes(s)``.  A kernel no
    SFA compiles to (from a damaged blob: a repeated edge, an empty
    symbol, a probability outside [0, 1]) raises :class:`SfaError`."""
    ids, starts = kernel.node_ids, kernel.run_starts
    sfa = Sfa(ids[kernel.start_pos], ids[kernel.final_pos])
    for node in sorted(ids):
        sfa.add_node(node)
    runs = sorted(
        (node, ids[kernel.run_dst[run]], run)
        for t, node in enumerate(ids)
        for run in range(kernel.node_runs[t], kernel.node_runs[t + 1])
    )
    symbols, syms, probs = kernel.symbols, kernel.step_syms, kernel.step_probs
    for u, v, run in runs:
        steps = range(starts[run], starts[run + 1])
        sfa.add_edge(u, v, [(symbols[syms[j]], probs[j]) for j in steps])
    return sfa


# ----------------------------------------------------------------------
# Blob codec (versioned; readers skip rows of another version)
#
#   header       magic 'KRN2' | version u16 | nodes n | symbols y |
#                steps s | runs r | start | final           (u32 each)
#   node_ids     i64[n]     original id of each topological position
#   node_offsets u32[n+1]   step bounds per node
#   backward     f64[n]
#   forward      f64[n]
#   run_dst      u32[r]     destination position of each run
#   run_lens     u32[r]     steps in each run (> 0)
#   step_syms    u32[s]
#   step_probs   f64[s]
#   sym_lens     u32[y]     characters (not bytes) per symbol
#   symbols      utf-8, concatenated, to the end of the blob
#
# Every column is fixed-width and decoded by one bulk unpack; per-step
# destinations are run-length encoded (a chunk graph has ~40 runs for
# ~1000 steps).
# ----------------------------------------------------------------------
def _columns(n: int, y: int, s: int, r: int) -> struct.Struct:
    return struct.Struct(f"<{n}q{n + 1}I{n}d{n}d{r}I{r}I{s}I{s}d{y}I")


def kernel_to_bytes(kernel: CompiledKernel) -> bytes:
    """Serialize a kernel to its ``KRN2`` blob."""
    n, y, s, r = (
        kernel.num_nodes,
        len(kernel.symbols),
        kernel.num_steps,
        len(kernel.run_dst),
    )
    starts = kernel.run_starts
    return b"".join(
        (
            _HEADER.pack(
                _MAGIC,
                KERNEL_VERSION,
                n,
                y,
                s,
                r,
                kernel.start_pos,
                kernel.final_pos,
            ),
            _columns(n, y, s, r).pack(
                *kernel.node_ids,
                *kernel.node_offsets,
                *kernel.backward,
                *kernel.forward,
                *kernel.run_dst,
                *(starts[i + 1] - starts[i] for i in range(r)),
                *kernel.step_syms,
                *kernel.step_probs,
                *map(len, kernel.symbols),
            ),
            "".join(kernel.symbols).encode("utf-8"),
        )
    )


def kernel_from_bytes(blob: bytes) -> CompiledKernel:
    """Deserialize a ``KRN2`` blob (raises :class:`SfaError` if not one).

    Everything the evaluators index with is bounds-checked here, so a
    kernel that decodes can be replayed: a damaged blob is an
    :class:`SfaError`, never an ``IndexError`` in the middle of a query.
    """
    if len(blob) < _HEADER.size:
        raise SfaError("truncated kernel blob")
    magic, version, n, y, s, r, start, final = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise SfaError(f"bad kernel blob magic {magic!r}")
    if version != KERNEL_VERSION:
        raise SfaError(
            f"kernel blob version {version} != supported {KERNEL_VERSION}"
        )
    try:
        columns = _columns(n, y, s, r)
    except struct.error as exc:  # counts no blob could hold
        raise SfaError("truncated kernel blob") from exc
    text_at = _HEADER.size + columns.size
    if len(blob) < text_at:
        raise SfaError("truncated kernel blob")
    flat = columns.unpack_from(blob, _HEADER.size)
    fields = []
    at = 0
    for width in (n, n + 1, n, n, r, r, s, s, y):
        fields.append(list(flat[at : at + width]))
        at += width
    (
        node_ids,
        node_offsets,
        backward,
        forward,
        run_dst,
        run_lens,
        step_syms,
        step_probs,
        sym_lens,
    ) = fields
    try:
        text = blob[text_at:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SfaError("kernel blob symbol table is not utf-8") from exc
    symbols = []
    at = 0
    for length in sym_lens:
        symbols.append(text[at : at + length])
        at += length
    if at < len(text):
        raise SfaError("trailing bytes in kernel blob")
    if at > len(text):
        raise SfaError("truncated kernel blob")
    if node_offsets[0] != 0 or node_offsets[-1] != s:
        raise SfaError("kernel blob offsets are inconsistent")
    if not (start < n and final < n):
        raise SfaError("kernel blob start/final outside its nodes")
    if s and max(step_syms) >= y:
        raise SfaError("kernel blob step names a symbol it does not have")
    # Runs partition each node's steps, in order, and lead strictly
    # forward (the replay iterates a node's dict while filling later ones).
    node_runs = [0]
    run_starts = [0]
    run = at = 0
    for t in range(n):
        end = node_offsets[t + 1]
        while at < end and run < r:
            if not t < run_dst[run] < n or not run_lens[run]:
                raise SfaError("kernel blob run is inconsistent")
            at += run_lens[run]
            run_starts.append(at)
            run += 1
        if at != end:
            raise SfaError("kernel blob runs do not sum to its node offsets")
        node_runs.append(run)
    if run != r:
        raise SfaError("kernel blob runs do not sum to its node offsets")
    return CompiledKernel(
        num_nodes=n,
        start_pos=start,
        final_pos=final,
        node_ids=node_ids,
        symbols=symbols,
        node_offsets=node_offsets,
        node_runs=node_runs,
        run_dst=run_dst,
        run_starts=run_starts,
        step_syms=step_syms,
        step_probs=step_probs,
        backward=backward,
        forward=forward,
    )


def blob_fingerprint(blob: bytes) -> str:
    """The fingerprint of an already-serialized kernel (hex, 32 chars)."""
    return hashlib.sha256(blob).hexdigest()[:32]


def kernel_fingerprint(kernel: CompiledKernel) -> str:
    """Stable content digest of the kernel (hex, 32 chars).

    Computed over the serialized blob, so two kernels compiled from
    structurally identical SFAs -- in the same or different processes --
    share a fingerprint, and any change to the program (probabilities,
    symbols, topology, blob version) changes it.
    """
    return blob_fingerprint(kernel_to_bytes(kernel))
