"""Experiment harness: metrics, workload, runners and reporting.

Also home to the HTTP client helpers and fault-injection load drivers
for a running :mod:`repro.service` instance
(:mod:`repro.bench.service_load`), and to the benchmark history writer
(:mod:`repro.bench.history`).
"""

from .harness import MAX_CHUNKS, CorpusBench, ExperimentResult
from .metrics import QualityMetrics, evaluate_answers
from .report import format_series, format_table, print_series, print_table
from .service_load import LoadResult, run_search_load
from .workload import Query, queries_for, query_by_id, standard_workload

__all__ = [
    "MAX_CHUNKS",
    "CorpusBench",
    "ExperimentResult",
    "LoadResult",
    "run_search_load",
    "QualityMetrics",
    "evaluate_answers",
    "format_series",
    "format_table",
    "print_series",
    "print_table",
    "Query",
    "queries_for",
    "query_by_id",
    "standard_workload",
]
