"""Binary (de)serialization of SFAs.

``SFA1`` is the interchange format of an SFA: the BLOB Staccato stores
of each line's chunk graph (paper Appendix G, the ``StaccatoGraph``
table) beside its compiled kernel, an older file's FullSFA copy (read
by its upgrade; paper Section 3), and the bytes SFAs are compared by.  The
format is a compact little-endian struct layout:

    magic 'SFA1' | n_nodes u32 | n_edges u32 | start u32 | final u32
    node ids      : n_nodes * i64
    per edge      : u_index u32 | v_index u32 | n_emissions u32
                    then per emission: byte_len u32 | utf-8 bytes | prob f64

A JSON codec is provided as well for debugging and test fixtures.

Compiled evaluation kernels (:mod:`repro.sfa.kernel`) have their own
versioned ``KRN2`` blob layout -- the stored record of a line, in the
``CompiledKernel`` table; their codec is re-exported here so this
module stays the single serialization surface of the SFA stack.
"""

from __future__ import annotations

import json
import struct

from .kernel import kernel_from_bytes, kernel_to_bytes
from .model import Sfa, SfaError

__all__ = [
    "to_bytes",
    "from_bytes",
    "to_json",
    "from_json",
    "blob_size",
    "kernel_to_bytes",
    "kernel_from_bytes",
]

_MAGIC = b"SFA1"
_HEADER = struct.Struct("<4sIIII")
_NODE = struct.Struct("<q")
_EDGE = struct.Struct("<III")
_EMISSION_HEAD = struct.Struct("<I")
_PROB = struct.Struct("<d")


def to_bytes(sfa: Sfa) -> bytes:
    """Serialize ``sfa`` to its binary BLOB representation."""
    nodes = sorted(sfa.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    parts = [
        _HEADER.pack(
            _MAGIC,
            len(nodes),
            sfa.num_edges,
            index[sfa.start],
            index[sfa.final],
        )
    ]
    parts.extend(_NODE.pack(node) for node in nodes)
    for u, v in sorted(sfa.edges):
        emissions = sfa.emissions(u, v)
        parts.append(_EDGE.pack(index[u], index[v], len(emissions)))
        for emission in emissions:
            raw = emission.string.encode("utf-8")
            parts.append(_EMISSION_HEAD.pack(len(raw)))
            parts.append(raw)
            parts.append(_PROB.pack(emission.prob))
    return b"".join(parts)


def from_bytes(blob: bytes) -> Sfa:
    """Deserialize a BLOB produced by :func:`to_bytes`."""
    if len(blob) < _HEADER.size:
        raise SfaError("truncated SFA blob")
    magic, n_nodes, n_edges, start_idx, final_idx = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise SfaError(f"bad SFA blob magic {magic!r}")
    offset = _HEADER.size
    nodes = []
    for _ in range(n_nodes):
        (node,) = _NODE.unpack_from(blob, offset)
        offset += _NODE.size
        nodes.append(node)
    sfa = Sfa(nodes[start_idx], nodes[final_idx])
    for node in nodes:
        sfa.add_node(node)
    for _ in range(n_edges):
        u_idx, v_idx, n_emissions = _EDGE.unpack_from(blob, offset)
        offset += _EDGE.size
        emissions = []
        for _ in range(n_emissions):
            (byte_len,) = _EMISSION_HEAD.unpack_from(blob, offset)
            offset += _EMISSION_HEAD.size
            string = blob[offset : offset + byte_len].decode("utf-8")
            offset += byte_len
            (prob,) = _PROB.unpack_from(blob, offset)
            offset += _PROB.size
            emissions.append((string, prob))
        sfa.add_edge(nodes[u_idx], nodes[v_idx], emissions)
    if offset != len(blob):
        raise SfaError("trailing bytes in SFA blob")
    return sfa


def blob_size(sfa: Sfa) -> int:
    """Size in bytes of the BLOB without materializing it.

    Used by the Table 2 dataset-statistics bench ("size as SFAs") and the
    tuner's size model.
    """
    size = _HEADER.size + sfa.num_nodes * _NODE.size + sfa.num_edges * _EDGE.size
    for u, v in sfa.edges:
        for emission in sfa.emissions(u, v):
            size += (
                _EMISSION_HEAD.size
                + len(emission.string.encode("utf-8"))
                + _PROB.size
            )
    return size


def to_json(sfa: Sfa) -> str:
    """Human-readable JSON form, for fixtures and debugging."""
    return json.dumps(
        {
            "start": sfa.start,
            "final": sfa.final,
            "nodes": sorted(sfa.nodes),
            "edges": [
                {
                    "u": u,
                    "v": v,
                    "emissions": [
                        [e.string, e.prob] for e in sfa.emissions(u, v)
                    ],
                }
                for u, v in sorted(sfa.edges)
            ],
        }
    )


def from_json(text: str) -> Sfa:
    """Inverse of :func:`to_json`."""
    data = json.loads(text)
    sfa = Sfa(data["start"], data["final"])
    for node in data["nodes"]:
        sfa.add_node(node)
    for edge in data["edges"]:
        sfa.add_edge(
            edge["u"], edge["v"], [(s, p) for s, p in edge["emissions"]]
        )
    return sfa
