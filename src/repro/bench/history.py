"""Machine-readable benchmark history (``benchmarks/history/``).

The text reports under ``benchmarks/reports/`` are for humans; nothing
can diff them across commits.  :func:`record_run` appends a
schema-versioned JSON entry to ``benchmarks/history/BENCH_<name>.json``;
the committed ``BENCH_e2e.json`` holds the medians of every paired
parent/change run of ``benchmarks/e2e/run.py`` a change was judged on.

One history file per bench name holds a JSON array, newest entry last::

    [
      {
        "schema": 1,
        "name": "e2e",
        "created_at": "2026-08-08T12:00:00+00:00",
        "git_rev": "70dbdc6",
        "topology": {"workload": "scan_cold", "seed": 7, "side": "change",
                     "runs": 6, "statistic": "median (q1, q3 beside it)"},
        "metrics": {
          "query_p50_ms": {
            "value": 8.05, "q1": 7.91, "q3": 8.22,
            "unit": "ms", "direction": "lower_is_better"
          },
          ...
        }
      }
    ]

``direction`` makes every entry self-describing: a reader never needs a
table mapping metric names to "which way is worse".  The file is
evidence, so every entry is kept, and a file that is not a JSON list is
refused rather than replaced.  Writes are atomic (temp file +
``os.replace``) so a crashed run cannot leave a half-written history
behind.
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
    "check_metrics",
    "record_run",
]

SCHEMA_VERSION = 1

#: Which way a metric degrades; every metric entry names one of these.
DIRECTIONS = ("higher_is_better", "lower_is_better")

DEFAULT_HISTORY_DIR = "benchmarks/history"


def metric(
    value: float, unit: str, direction: str = "lower_is_better"
) -> dict[str, Any]:
    """One metric entry: ``{"value": ..., "unit": ..., "direction": ...}``."""
    if direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {list(DIRECTIONS)}, got {direction!r}"
        )
    return {"value": float(value), "unit": unit, "direction": direction}


def check_metrics(metrics: Mapping[str, Mapping[str, Any]]) -> None:
    """Raise ``ValueError`` unless every entry has a direction and a number.

    The one definition of a well-formed metric entry: :func:`record_run`
    applies it on write, and the tier-1 suite applies it to every entry
    of the committed history files.
    """
    for key, entry in metrics.items():
        if entry.get("direction") not in DIRECTIONS:
            raise ValueError(
                f"metric {key!r} needs a direction in {list(DIRECTIONS)}"
            )
        if not isinstance(entry.get("value"), (int, float)):
            raise ValueError(f"metric {key!r} needs a numeric value")


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
) -> pathlib.Path:
    """Append one run to ``<history_dir>/BENCH_<name>.json``.

    ``metrics`` maps metric name to a :func:`metric` entry; ``topology``
    records the knobs that shaped the run (workload, seed, corpus size)
    so differently-shaped runs are never compared as equals.  Every
    earlier entry is kept.  Raises ``ValueError`` -- leaving the file
    untouched -- when the existing file is not a JSON list.  Returns the
    history file's path.
    """
    if not name or any(ch in name for ch in "/\\"):
        raise ValueError(f"bench name must be a bare label, got {name!r}")
    check_metrics(metrics)
    directory = pathlib.Path(history_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    entries: list[dict[str, Any]] = []
    if path.exists():
        try:
            entries = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path} is not a JSON list: {exc}") from exc
        if not isinstance(entries, list):
            raise ValueError(f"{path} is not a JSON list")
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
    _atomic_write_json(path, entries)
    return path
