"""RDBMS integration: schema, storage, engine and the SQL layer."""

from .engine import APPROACHES, ApproachNotStored, StaccatoDB
from .planner import QueryPlan, choose_plan, execute_plan
from .schema import TABLES, create_schema
from .sql import ParsedSelect, SqlError, execute_select, parse_select
from .storage import (
    all_data_keys,
    approach_storage_bytes,
    ingest_dataset,
    line_metadata,
    load_fullsfa,
    load_ground_truth,
    load_kmap,
    load_staccato,
)

__all__ = [
    "APPROACHES",
    "ApproachNotStored",
    "StaccatoDB",
    "QueryPlan",
    "choose_plan",
    "execute_plan",
    "TABLES",
    "create_schema",
    "ParsedSelect",
    "SqlError",
    "execute_select",
    "parse_select",
    "all_data_keys",
    "approach_storage_bytes",
    "ingest_dataset",
    "line_metadata",
    "load_fullsfa",
    "load_ground_truth",
    "load_kmap",
    "load_staccato",
]
