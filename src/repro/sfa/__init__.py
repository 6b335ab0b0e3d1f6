"""Stochastic finite automata: the probabilistic OCR data model.

This subpackage is the substrate the whole reproduction stands on: the
generalized SFA of paper Sections 2.2 and 3.1, graph/probability
operations, MAP / k-best string extraction, the compiled kernels the engine
evaluates and the BLOB codec used for RDBMS storage.
"""

from .model import Emission, Sfa, SfaError
from .ops import (
    ancestors,
    backward_mass,
    descendants,
    enumerate_strings,
    forward_mass,
    has_unique_paths,
    is_valid,
    kl_divergence,
    retained_mass,
    string_count,
    string_distribution,
    topological_order,
    total_mass,
    validate,
)
from .paths import k_best_between, k_best_strings, map_string
from .serialize import blob_size, from_bytes, from_json, to_bytes, to_json
from . import builder

__all__ = [
    "Emission",
    "Sfa",
    "SfaError",
    "ancestors",
    "backward_mass",
    "descendants",
    "enumerate_strings",
    "forward_mass",
    "has_unique_paths",
    "is_valid",
    "kl_divergence",
    "retained_mass",
    "string_count",
    "string_distribution",
    "topological_order",
    "total_mass",
    "validate",
    "k_best_between",
    "k_best_strings",
    "map_string",
    "blob_size",
    "from_bytes",
    "from_json",
    "to_bytes",
    "to_json",
    "builder",
]
