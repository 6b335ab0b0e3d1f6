"""The ``KRN2`` kernel blob codec: round trip, damage, losslessness.

A stored kernel is read on every query, so the decoder is the engine's
exposure to a damaged file.  Its contract: a blob either decodes to a
kernel the evaluators can replay, or raises :class:`SfaError` (on which
the engine recompiles the line from its ``SFA1`` blob, if the file has
one) -- never another exception, at decode time or later in the DP.

The kernel is also the only stored copy of a FullSFA, so it must lose
nothing ``SFA1`` records: ``to_sfa`` gives back the same bytes.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import dfa_for_pattern
from repro.query.eval_kernel import HAVE_NUMPY, KernelEvaluator
from repro.sfa.kernel import (
    KERNEL_VERSION,
    CompiledKernel,
    blob_fingerprint,
    compile_kernel,
    kernel_from_bytes,
    kernel_to_bytes,
    to_sfa,
)
from repro.sfa.model import Sfa, SfaError
from repro.sfa.serialize import from_bytes, to_bytes

from .strategies import chain_sfas, chunk_sfas, dag_sfas, ocr_sfas

any_sfas = st.one_of(
    chain_sfas(max_length=5), chunk_sfas(max_chunks=4), dag_sfas(max_length=6)
)

FIELDS = [
    slot for slot in CompiledKernel.__slots__ if not slot.startswith("_")
]


def fields(kernel: CompiledKernel) -> dict:
    return {name: getattr(kernel, name) for name in FIELDS}


def section_offsets(kernel: CompiledKernel) -> dict[str, int]:
    """Byte offset of the first byte of every section of the blob."""
    n, r, s, y = (
        kernel.num_nodes,
        len(kernel.run_dst),
        kernel.num_steps,
        len(kernel.symbols),
    )
    sizes = [
        ("header", struct.calcsize("<4sHIIIIII")),
        ("node_ids", 8 * n),
        ("node_offsets", 4 * (n + 1)),
        ("backward", 8 * n),
        ("forward", 8 * n),
        ("run_dst", 4 * r),
        ("run_lens", 4 * r),
        ("step_syms", 4 * s),
        ("step_probs", 8 * s),
        ("sym_lens", 4 * y),
        ("symbols", 0),
    ]
    offsets, at = {}, 0
    for name, size in sizes:
        offsets[name] = at
        at += size
    return offsets


def replayable(kernel: CompiledKernel) -> None:
    """Every evaluator runs the kernel to completion."""
    for match_anywhere in (True, False):
        evaluator = KernelEvaluator(dfa_for_pattern("(a|b)c", match_anywhere))
        evaluator.evaluate(kernel)
        if HAVE_NUMPY:
            evaluator.evaluate_batch([kernel], use_numpy=True)
    KernelEvaluator(dfa_for_pattern("a")).evaluate_projected(
        kernel, set(kernel.node_ids[:2]), 2
    )


class TestRoundTrip:
    @given(any_sfas)
    @settings(max_examples=80, deadline=None)
    def test_every_field_survives(self, sfa):
        kernel = compile_kernel(sfa)
        blob = kernel_to_bytes(kernel)
        decoded = kernel_from_bytes(blob)
        assert fields(decoded) == fields(kernel)
        assert kernel_to_bytes(decoded) == blob
        assert decoded.fingerprint == kernel.fingerprint == blob_fingerprint(blob)

    def test_non_ascii_symbols(self, figure2):
        kernel = compile_kernel(figure2)
        kernel.symbols[0] = "naïve—線"
        decoded = kernel_from_bytes(kernel_to_bytes(kernel))
        assert decoded.symbols == kernel.symbols


class TestToSfa:
    """``KRN2`` is lossless: the rebuilt SFA is the one ``SFA1`` stores,
    to the last bit of every probability and in every iteration order."""

    @staticmethod
    def assert_lossless(sfa: Sfa) -> None:
        blob = to_bytes(sfa)
        stored = from_bytes(blob)
        kernel = compile_kernel(sfa)
        for rebuilt in (
            to_sfa(kernel),
            to_sfa(kernel_from_bytes(kernel_to_bytes(kernel))),
        ):
            assert to_bytes(rebuilt) == blob
            assert rebuilt.nodes == stored.nodes
            assert rebuilt.edges == stored.edges
            for node in stored.nodes:
                assert rebuilt.succ(node) == stored.succ(node)
                assert rebuilt.pred(node) == stored.pred(node)

    @given(st.one_of(any_sfas, ocr_sfas()))
    @settings(max_examples=150, deadline=None)
    def test_rebuilds_the_sfa1_bytes(self, sfa):
        self.assert_lossless(sfa)

    def test_edgeless_nodes_and_unordered_ids_survive(self, figure2):
        self.assert_lossless(figure2)
        sfa = Sfa(start=40, final=7)
        sfa.add_edge(40, 99, [("ab", 0.5), ("a", 0.5)])
        sfa.add_edge(40, 7, [("x", 0.125)])
        sfa.add_edge(99, 7, [("é", 1.0)])
        sfa.add_node(3)  # on no path at all
        self.assert_lossless(sfa)
        assert to_sfa(compile_kernel(sfa)).has_node(3)

    @given(any_sfas, st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_damaged_kernel_is_an_sfa_error_or_an_sfa(self, sfa, data):
        blob = bytearray(kernel_to_bytes(compile_kernel(sfa)))
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(
            st.integers(0, 7)
        )
        try:
            rebuilt = to_sfa(kernel_from_bytes(bytes(blob)))
        except SfaError:
            return
        from_bytes(to_bytes(rebuilt))


class TestDamage:
    @given(any_sfas)
    @settings(max_examples=25, deadline=None)
    def test_every_truncation_is_an_sfa_error(self, sfa):
        blob = kernel_to_bytes(compile_kernel(sfa))
        for length in range(len(blob)):
            with pytest.raises(SfaError):
                kernel_from_bytes(blob[:length])

    def test_trailing_bytes(self, figure2):
        blob = kernel_to_bytes(compile_kernel(figure2))
        with pytest.raises(SfaError):
            kernel_from_bytes(blob + b"x")

    @given(any_sfas, st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_flipped_byte_in_any_section(self, sfa, data):
        """SfaError, or a kernel that says what the bytes say and can be
        replayed; in particular no IndexError/struct.error/UnicodeError."""
        kernel = compile_kernel(sfa)
        blob = kernel_to_bytes(kernel)
        offsets = section_offsets(kernel)
        bounds = sorted(set(offsets.values()) | {len(blob)})
        for lo, hi in zip(bounds, bounds[1:]):
            at = data.draw(st.integers(lo, hi - 1))
            bit = data.draw(st.integers(0, 7))
            damaged = bytearray(blob)
            damaged[at] ^= 1 << bit
            try:
                decoded = kernel_from_bytes(bytes(damaged))
            except SfaError:
                continue
            assert kernel_to_bytes(decoded) == bytes(damaged)
            replayable(decoded)

    @pytest.mark.parametrize(
        "section, value",
        [
            ("run_dst", 0),  # a step back to the start node
            ("run_dst", 10**6),  # a node the kernel does not have
            ("run_lens", 0),
            ("step_syms", 10**6),
        ],
    )
    def test_indices_are_bounds_checked(self, figure2, section, value):
        kernel = compile_kernel(figure2)
        blob = bytearray(kernel_to_bytes(kernel))
        struct.pack_into("<I", blob, section_offsets(kernel)[section], value)
        with pytest.raises(SfaError):
            kernel_from_bytes(bytes(blob))

    def test_start_and_final_are_bounds_checked(self, figure2):
        blob = bytearray(kernel_to_bytes(compile_kernel(figure2)))
        struct.pack_into("<I", blob, struct.calcsize("<4sHIIII"), 10**6)
        with pytest.raises(SfaError):
            kernel_from_bytes(bytes(blob))

    def test_other_versions_are_rejected(self, figure2):
        blob = bytearray(kernel_to_bytes(compile_kernel(figure2)))
        struct.pack_into("<H", blob, 4, KERNEL_VERSION - 1)
        with pytest.raises(SfaError, match="version"):
            kernel_from_bytes(bytes(blob))
        with pytest.raises(SfaError, match="magic"):
            kernel_from_bytes(b"KRN1" + bytes(blob[4:]))
