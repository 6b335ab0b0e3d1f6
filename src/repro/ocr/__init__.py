"""Simulated OCR: the OCRopus substitute plus synthetic corpora."""

from .corpus import Dataset, Document, make_ca, make_db, make_lt, make_scale
from .engine import SimulatedOcrEngine, stable_seed
from .noise import CONFUSABLE, MERGES, SPLITS, NoiseModel
from .speech import HOMOPHONES, SimulatedSpeechEngine

__all__ = [
    "Dataset",
    "Document",
    "make_ca",
    "make_db",
    "make_lt",
    "make_scale",
    "SimulatedOcrEngine",
    "stable_seed",
    "CONFUSABLE",
    "MERGES",
    "SPLITS",
    "NoiseModel",
    "HOMOPHONES",
    "SimulatedSpeechEngine",
]
