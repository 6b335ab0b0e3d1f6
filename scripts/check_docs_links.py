#!/usr/bin/env python3
"""Fail CI when the docs drift from reality.

Four checks:

1. **Relative links** -- every markdown link and image target in
   README.md / docs/*.md must resolve to an existing file or directory
   (external URLs and in-page anchors are skipped).
2. **HTTP endpoints, both directions** -- every ``METHOD /path`` named
   in docs/API.md must have a handler registered in the route tables
   of ``src/repro/service/server.py`` (exact routes like ``POST /jobs``,
   or prefix routes like ``GET /jobs/<id>``), **and** every route
   those tables register must be named in docs/API.md.  Documenting an
   endpoint the server does not serve -- or shipping one the reference
   never mentions -- is exactly the drift this catches.  Finding no
   route table at all is a failure too: it means the tables moved.
3. **Commands** -- every ``python -m repro.<module>`` and
   ``scripts/<name>.py`` named in README.md or docs/*.md must name a
   runnable module under ``src/`` (a package with ``__main__.py`` or a
   module with a ``__main__`` guard) or an existing script, and every
   ``--flag`` on a ``python -m repro <subcommand> ...`` line must be an
   option of that subcommand's parser.  CHANGES.md and ROADMAP.md are
   not checked: they record history, and a command or flag a past
   change deleted stays named there.
4. **Modules** -- every backticked ``*.py`` path and every ``repro.…``
   dotted name in README.md and docs/*.md must name an existing file
   under ``src/``, ``tests/``, ``scripts/``, ``benchmarks/`` or
   ``examples/`` (a path may be written from any directory down, as in
   ``db/engine.py``; a dotted name may go on past its module into the
   module's attributes).  docs/MECHANISMS.md is not checked: it is the
   ledger of deleted mechanisms and names the code they were.

Exits 1 listing every broken link / served-vs-documented mismatch /
dead command / unknown module.

Run:  python scripts/check_docs_links.py
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Inline markdown links/images: [text](target) / ![alt](target).
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def doc_files() -> list[pathlib.Path]:
    files = sorted(REPO_ROOT.glob("*.md"))
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def strip_code(text: str) -> str:
    """Drop fenced and inline code spans (their parens are not links)."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`]*`", "", text)


def check_file(path: pathlib.Path) -> list[str]:
    broken = []
    for target in LINK.findall(strip_code(path.read_text())):
        if SCHEME.match(target) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(
                f"{path.relative_to(REPO_ROOT)}: broken link -> {target}"
            )
    return broken


#: ``METHOD /path`` mentions in the API reference (tables, headings,
#: prose).  ``<id>``-style placeholders mark prefix-routed endpoints.
ENDPOINT = re.compile(r"\b(GET|POST|PUT|PATCH|DELETE)\s+(/[A-Za-z0-9_/<>-]+)")

#: The module whose route tables define the served endpoints.
ROUTES_MODULE = REPO_ROOT / "src" / "repro" / "service" / "server.py"

#: Route tables in server.py: ``GET_ROUTES = {...}`` holds exact paths,
#: ``GET_ARG_ROUTES = {...}`` holds prefixes whose trailing segment is
#: passed to the handler (documented as ``/jobs/<id>``).
ROUTE_TABLE = re.compile(
    r"^(GET|POST|PUT|PATCH|DELETE)_(ARG_)?ROUTES(?:\s*:[^=]+)?\s*=\s*\{(.*?)\}",
    re.MULTILINE | re.DOTALL,
)
ROUTE_PATH = re.compile(r"\"(/[^\"]*)\"\s*:")


def server_routes() -> dict[str, tuple[set[str], set[str]]]:
    """Per method: the exact paths and argument prefixes the API serves."""
    source = ROUTES_MODULE.read_text()
    routes: dict[str, tuple[set[str], set[str]]] = {}
    for method, is_prefix, body in ROUTE_TABLE.findall(source):
        exact, prefixes = routes.setdefault(method, (set(), set()))
        for path in ROUTE_PATH.findall(body):
            (prefixes if is_prefix else exact).add(path)
    return routes


def check_endpoints() -> list[str]:
    """Every endpoint docs/API.md names must be registered in the core."""
    api = REPO_ROOT / "docs" / "API.md"
    if not api.is_file():
        return []
    routes = server_routes()
    problems = []
    for method, path in sorted(set(ENDPOINT.findall(api.read_text()))):
        exact, prefixes = routes.get(method, (set(), set()))
        if "<" in path:
            prefix = path.split("<", 1)[0]
            served = prefix in prefixes
        else:
            served = path in exact or any(
                path.startswith(prefix) for prefix in prefixes
            )
        if not served:
            problems.append(
                f"docs/API.md: endpoint {method} {path} has no handler "
                "registered in src/repro/service/server.py"
            )
    return problems


def check_served_documented() -> list[str]:
    """Every route the core registers must be named in docs/API.md."""
    api = REPO_ROOT / "docs" / "API.md"
    if not api.is_file():
        return []
    routes = server_routes()
    if not any(exact or prefixes for exact, prefixes in routes.values()):
        return [f"no route table (GET_ROUTES = {{...}}) in {ROUTES_MODULE}"]
    documented = set(ENDPOINT.findall(api.read_text()))
    problems = []
    for method, (exact, prefixes) in sorted(routes.items()):
        for path in sorted(exact):
            if (method, path) not in documented:
                problems.append(
                    f"docs/API.md: served endpoint {method} {path} "
                    "is not documented"
                )
        for prefix in sorted(prefixes):
            # A prefix route is documented as e.g. ``GET /jobs/<id>``.
            if not any(
                m == method and p.startswith(prefix) and "<" in p
                for m, p in documented
            ):
                problems.append(
                    f"docs/API.md: served endpoint {method} {prefix}<arg> "
                    "is not documented"
                )
    return problems


#: ``python -m repro[.sub.module]`` and ``scripts/<name>.py`` mentions.
MODULE_COMMAND = re.compile(r"\bpython3? -m (repro(?:\.\w+)*)")
SCRIPT = re.compile(r"\bscripts/[\w.-]+\.py\b")

#: A CLI invocation: the subcommand, then its arguments up to the end of
#: the command (a comment, an inline-code close, a pipe or a new line;
#: a trailing backslash continues onto the next line).
CLI_COMMAND = re.compile(
    r"\bpython3? -m repro ([a-z][\w-]*)((?:[^`#|;&\n\\]|\\\n)*)"
)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def runnable_module(module: str) -> bool:
    """Whether ``python -m <module>`` would run something under src/."""
    path = REPO_ROOT / "src" / pathlib.Path(*module.split("."))
    if (path / "__main__.py").is_file():
        return True
    source = path.with_suffix(".py")
    return source.is_file() and '__name__ == "__main__"' in source.read_text()


def cli_options() -> dict[str, set[str]]:
    """Per ``python -m repro`` subcommand: its ``--`` option strings."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: set(parser._option_string_actions)
        for name, parser in subparsers.choices.items()
    }


def check_commands() -> list[str]:
    """Every command README.md and docs/*.md name must still exist."""
    files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    options = cli_options()
    problems = []
    for path in files:
        text = path.read_text()
        where = path.relative_to(REPO_ROOT)
        for command, arguments in CLI_COMMAND.findall(text):
            if command not in options:
                problems.append(
                    f"{where}: dead command python -m repro {command} "
                    "(no such subcommand)"
                )
                continue
            for flag in sorted(set(FLAG.findall(arguments)) - options[command]):
                problems.append(
                    f"{where}: dead flag python -m repro {command} {flag} "
                    "(not an option of that subcommand)"
                )
        for module in sorted(set(MODULE_COMMAND.findall(text))):
            if not runnable_module(module):
                problems.append(
                    f"{where}: dead command python -m {module} "
                    "(no runnable module under src/)"
                )
        for script in sorted(set(SCRIPT.findall(text))):
            if not (REPO_ROOT / script).is_file():
                problems.append(f"{where}: dead command {script} (no such file)")
    return problems


#: Where a named module may live.
MODULE_ROOTS = ("src", "tests", "scripts", "benchmarks", "examples")

#: Code spans, fenced or inline.
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)

#: A ``*.py`` path (not a glob such as ``test_*.py``).
PY_PATH = re.compile(r"(?<![\w*<>{}/.-])(\w[\w/.-]*\.py)\b")

#: A dotted name in the package.
DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def _known_files() -> list[str]:
    return [
        path.relative_to(REPO_ROOT).as_posix()
        for root in MODULE_ROOTS
        for path in (REPO_ROOT / root).rglob("*.py")
    ]


def dotted_name_exists(name: str) -> bool:
    """Whether ``repro.a.b...`` names a module under ``src/``, or an
    attribute of one: after a package, the next part must be a
    submodule or a name its ``__init__.py`` mentions; after a plain
    module the rest are its attributes."""
    path = REPO_ROOT / "src"
    for part in name.split("."):
        if (path / part).is_dir() and (path / part / "__init__.py").is_file():
            path = path / part
        elif (path / f"{part}.py").is_file():
            return True
        else:
            init = path / "__init__.py"
            return init.is_file() and re.search(
                rf"\b{part}\b", init.read_text()
            ) is not None
    return True


def check_modules() -> list[str]:
    """Every module README.md and docs/*.md name must still exist."""
    files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    known = _known_files()
    problems = []
    for path in files:
        if path.name == "MECHANISMS.md":
            continue
        text = path.read_text()
        where = path.relative_to(REPO_ROOT)
        named = {
            found for span in CODE.findall(text) for found in PY_PATH.findall(span)
        }
        for name in sorted(named):
            if not any(file == name or file.endswith("/" + name) for file in known):
                problems.append(f"{where}: unknown module {name} (no such file)")
        for name in sorted(set(DOTTED.findall(text))):
            if not dotted_name_exists(name):
                problems.append(f"{where}: unknown module {name} (not under src/)")
    return problems


def main() -> int:
    files = doc_files()
    broken = [problem for path in files for problem in check_file(path)]
    broken += check_endpoints()
    broken += check_served_documented()
    broken += check_commands()
    broken += check_modules()
    for problem in broken:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(files)} markdown files + docs/API.md endpoints "
        f"(both directions) + named commands and modules: "
        f"{'OK' if not broken else f'{len(broken)} problems'}"
    )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
