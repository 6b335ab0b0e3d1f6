"""The Staccato approximation -- the paper's primary contribution."""

from .approximate import prune_edges_to_k, staccato_approximate
from .chunks import Region, collapse, find_min_sfa, region_mass, region_top_k
from .kmap import KMapDoc, build_kmap, kmap_sfa
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
    "METADATA_BYTES",
    "TuningResult",
    "dataset_size_model",
    "k_on_size_boundary",
    "sample_recall",
    "size_model",
    "tune_parameters",
]
