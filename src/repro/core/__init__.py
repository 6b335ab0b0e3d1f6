"""The Staccato approximation -- the paper's primary contribution."""

from .approximate import build_staccato, prune_edges_to_k, staccato_approximate
from .chunks import Region, collapse, find_min_sfa, region_mass, region_top_k
from .kmap import KMapDoc, build_kmap, build_map, kmap_sfa
from .staccato_doc import StaccatoDoc
from .theory import (
    exhaustive_best_selection,
    greedy_selection_mass,
    kl_of_selection,
    selection_mass,
)
from .tuning import (
    METADATA_BYTES,
    TuningResult,
    dataset_size_model,
    k_on_size_boundary,
    sample_recall,
    size_model,
    tune_parameters,
)

__all__ = [
    "build_staccato",
    "prune_edges_to_k",
    "staccato_approximate",
    "Region",
    "collapse",
    "find_min_sfa",
    "region_mass",
    "region_top_k",
    "KMapDoc",
    "build_kmap",
    "kmap_sfa",
    "build_map",
    "StaccatoDoc",
    "exhaustive_best_selection",
    "greedy_selection_mass",
    "kl_of_selection",
    "selection_mass",
    "METADATA_BYTES",
    "TuningResult",
    "dataset_size_model",
    "k_on_size_boundary",
    "sample_recall",
    "size_model",
    "tune_parameters",
]
