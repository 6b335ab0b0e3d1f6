"""Machine-readable benchmark history (``benchmarks/history/``).

The text reports under ``benchmarks/reports/`` are for humans; nothing
can diff them across commits.  This module gives every bench driver one
call -- :func:`record_run` -- that appends a schema-versioned JSON entry
to ``benchmarks/history/BENCH_<name>.json``, so a checked-in baseline
and ``scripts/bench_check.py`` can detect regressions mechanically.

One history file per bench name holds a bounded JSON array, newest
entry last::

    [
      {
        "schema": 1,
        "name": "service_compare",
        "created_at": "2026-08-08T12:00:00+00:00",
        "git_rev": "70dbdc6",
        "topology": {"shards": 2, "docs": 4, "lines": 3},
        "metrics": {
          "single_throughput_rps": {
            "value": 412.0, "unit": "req/s",
            "direction": "higher_is_better"
          },
          ...
        }
      }
    ]

``direction`` makes the regression check self-describing: the checker
never needs a table mapping metric names to "which way is worse".
Writes are atomic (temp file + ``os.replace``) so a crashed bench run
cannot leave a half-written history behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import tempfile
from datetime import datetime, timezone
from typing import Any, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "DIRECTIONS",
    "DEFAULT_HISTORY_DIR",
    "metric",
    "load_result_metrics",
    "record_run",
    "latest_entry",
]

SCHEMA_VERSION = 1

#: Which way a metric degrades; every metric entry names one of these.
DIRECTIONS = ("higher_is_better", "lower_is_better")

DEFAULT_HISTORY_DIR = "benchmarks/history"

#: Entries kept per history file (oldest dropped first).  Bounded so a
#: long-lived checkout running the bench-smoke CI job on every push
#: cannot grow the file without limit.
MAX_ENTRIES = 200


def metric(
    value: float, unit: str, direction: str = "lower_is_better"
) -> dict[str, Any]:
    """One metric entry: ``{"value": ..., "unit": ..., "direction": ...}``."""
    if direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {list(DIRECTIONS)}, got {direction!r}"
        )
    return {"value": float(value), "unit": unit, "direction": direction}


def load_result_metrics(result, prefix: str = "") -> dict[str, dict[str, Any]]:
    """A :class:`~repro.bench.service_load.LoadResult` as metric entries.

    ``prefix`` namespaces the window or topology the result measured
    (``"single_"``, ``"during_"``, ...) so one bench entry can hold
    several LoadResults side by side.
    """
    return {
        f"{prefix}throughput_rps": metric(
            result.throughput_rps, "req/s", "higher_is_better"
        ),
        f"{prefix}latency_p50_ms": metric(result.latency_p50_ms, "ms"),
        f"{prefix}latency_p95_ms": metric(result.latency_p95_ms, "ms"),
        f"{prefix}latency_p99_ms": metric(result.latency_p99_ms, "ms"),
        f"{prefix}errors": metric(result.errors, "count"),
    }


def _git_rev() -> str:
    """The short commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _atomic_write_json(path: pathlib.Path, payload: Any) -> None:
    """Write JSON via a same-directory temp file + ``os.replace``."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def record_run(
    name: str,
    metrics: Mapping[str, Mapping[str, Any]],
    topology: Mapping[str, Any] | None = None,
    history_dir: str | os.PathLike = DEFAULT_HISTORY_DIR,
    created_at: str | None = None,
    max_entries: int = MAX_ENTRIES,
) -> pathlib.Path:
    """Append one run to ``<history_dir>/BENCH_<name>.json``.

    ``metrics`` maps metric name to a :func:`metric` entry; ``topology``
    records the knobs that shaped the run (shard count, replicas, corpus
    size) so differently-shaped runs are never compared as equals.
    Returns the history file's path.
    """
    if not name or any(ch in name for ch in "/\\"):
        raise ValueError(f"bench name must be a bare label, got {name!r}")
    for key, entry in metrics.items():
        if entry.get("direction") not in DIRECTIONS:
            raise ValueError(
                f"metric {key!r} needs a direction in {list(DIRECTIONS)}"
            )
        if not isinstance(entry.get("value"), (int, float)):
            raise ValueError(f"metric {key!r} needs a numeric value")
    directory = pathlib.Path(history_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    entries: list[dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, list):
                entries = loaded
        except (OSError, json.JSONDecodeError):
            entries = []  # a corrupt history restarts; runs are cheap
    entries.append(
        {
            "schema": SCHEMA_VERSION,
            "name": name,
            "created_at": created_at
            or datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_rev": _git_rev(),
            "topology": dict(topology or {}),
            "metrics": {key: dict(entry) for key, entry in metrics.items()},
        }
    )
    _atomic_write_json(path, entries[-max_entries:])
    return path


def latest_entry(
    name: str, history_dir: str | os.PathLike = DEFAULT_HISTORY_DIR
) -> dict[str, Any] | None:
    """The newest recorded entry for ``name``, or None."""
    path = pathlib.Path(history_dir) / f"BENCH_{name}.json"
    if not path.exists():
        return None
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(entries, list) or not entries:
        return None
    tail = entries[-1]
    return tail if isinstance(tail, dict) else None
