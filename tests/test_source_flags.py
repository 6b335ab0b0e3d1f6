"""Every ``--flag`` the source's docstrings and comments name exists.

A deleted option outlives itself in prose: a docstring that still says
``--some-flag`` sends the next reader after a switch no parser accepts.
This test collects every ``--flag`` written in a docstring or comment of
``src/repro/**/*.py`` and requires it to be an option of one of the
argparse parsers under ``src/repro`` (the CLI and the shard worker's) or
of the repository's pytest options (the root ``conftest.py``).
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import pathlib
import re
import tokenize

from repro.cli import build_parser
from repro.service.workers import _build_parser as build_worker_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _prose(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every comment and docstring in ``source``."""
    found = [
        (token.start[0], token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                found.append((node.body[0].lineno, docstring))
    return found


def named_flags() -> dict[str, list[str]]:
    """Flag -> the ``path:line`` places the source's prose names it."""
    flags: dict[str, list[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for line, text in _prose(path.read_text()):
            for flag in FLAG.findall(text):
                flags.setdefault(flag.rstrip("-"), []).append(
                    f"{path.relative_to(ROOT)}:{line}"
                )
    return flags


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    options: set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def _pytest_options() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "root_conftest", ROOT / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    options: set[str] = set()

    class Collector:
        def addoption(self, *names, **_kwargs):
            options.update(names)

    module.pytest_addoption(Collector())
    return options


def known_options() -> set[str]:
    return (
        _parser_options(build_parser())
        | _parser_options(build_worker_parser())
        | _pytest_options()
    )


def test_flags_named_in_source_prose_exist():
    known = known_options()
    stale = {
        flag: places
        for flag, places in named_flags().items()
        if flag not in known
    }
    assert not stale, f"flags no parser defines: {stale}"


def test_the_scan_finds_flags():
    """The check is not vacuous: prose does name real flags."""
    assert {"--db", "--shards", "--worker-procs"} <= set(named_flags())
