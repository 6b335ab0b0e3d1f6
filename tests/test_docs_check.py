"""The docs drift check (``scripts/check_docs_links.py``) as a test.

The docs must pass it, its command check must catch a ``--flag``
that the named ``python -m repro`` subcommand does not have, its module
check must catch a deleted module, and it must fail when it finds no
route table to check the API reference against.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs_links.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_pass_the_drift_check():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_a_dead_serve_flag_is_caught(tmp_path, monkeypatch):
    check = _load_check()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    (tmp_path / "README.md").write_text(
        "```bash\n"
        "python -m repro serve --shards 2 --shard-dir /tmp/s \\\n"
        "    --warm-start --port 8080   # --not-a-flag in a comment\n"
        "```\n"
        "Or `python -m repro search --db x --pattern '%a%'` inline, "
        "then --prose-dashes.\n"
        "python -m repro frobnicate --db x\n"
    )
    monkeypatch.setattr(check, "REPO_ROOT", tmp_path)
    assert check.check_commands() == [
        "README.md: dead flag python -m repro serve --warm-start "
        "(not an option of that subcommand)",
        "README.md: dead command python -m repro frobnicate "
        "(no such subcommand)",
    ]


def test_a_deleted_module_is_caught(tmp_path, monkeypatch):
    check = _load_check()
    (tmp_path / "docs").mkdir()
    for root in check.MODULE_ROOTS:
        (tmp_path / root).symlink_to(REPO_ROOT / root)
    (tmp_path / "README.md").write_text(
        "Views live in `db/views.py`; the engine in `db/engine.py`, "
        "tests in `tests/test_*.py`.\n"
    )
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "Call repro.db.views.materialize_view, or "
        "`repro.db.engine.StaccatoDB` through `repro.db.StaccatoDB`.\n"
    )
    (tmp_path / "docs" / "MECHANISMS.md").write_text(
        "`db/views.py` was deleted.\n"
    )
    monkeypatch.setattr(check, "REPO_ROOT", tmp_path)
    assert check.check_modules() == [
        "README.md: unknown module db/views.py (no such file)",
        "docs/GUIDE.md: unknown module repro.db.views.materialize_view "
        "(not under src/)",
    ]


def test_no_route_table_fails_the_check(tmp_path, monkeypatch, capsys):
    check = _load_check()
    moved = tmp_path / "server.py"
    moved.write_text('"""The route tables moved elsewhere."""\n')
    monkeypatch.setattr(check, "ROUTES_MODULE", moved)
    assert check.check_served_documented() == [
        f"no route table (GET_ROUTES = {{...}}) in {moved}"
    ]
    assert check.main() == 1
