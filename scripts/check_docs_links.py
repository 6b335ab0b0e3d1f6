#!/usr/bin/env python3
"""Fail CI when the docs drift from reality.

Three checks:

1. **Relative links** -- every markdown link and image target in
   README.md / docs/*.md must resolve to an existing file or directory
   (external URLs and in-page anchors are skipped).
2. **HTTP endpoints, both directions** -- every ``METHOD /path`` named
   in docs/API.md must have a handler registered in the route tables
   of ``src/repro/service/http_common.py``, the transport-independent
   HTTP core (exact routes like ``POST /jobs``, or prefix routes like
   ``GET /jobs/<id>``), **and** every route
   those tables register must be named in docs/API.md.  Documenting an
   endpoint the server does not serve -- or shipping one the reference
   never mentions -- is exactly the drift this catches.
3. **Commands** -- every ``python -m repro.<module>`` and
   ``scripts/<name>.py`` named in README.md or docs/*.md must name a
   runnable module under ``src/`` (a package with ``__main__.py`` or a
   module with a ``__main__`` guard) or an existing script.  CHANGES.md
   and ROADMAP.md are not checked: they record history, and a command
   a past change deleted stays named there.

Exits 1 listing every broken link / served-vs-documented mismatch /
dead command.

Run:  python scripts/check_docs_links.py
"""

from __future__ import annotations

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

#: Route tables in http_common.py: ``GET_ROUTES = {...}`` holds exact paths,
#: ``GET_ARG_ROUTES = {...}`` holds prefixes whose trailing segment is
#: passed to the handler (documented as ``/jobs/<id>``).
ROUTE_TABLE = re.compile(
    r"^(GET|POST|PUT|PATCH|DELETE)_(ARG_)?ROUTES(?:\s*:[^=]+)?\s*=\s*\{(.*?)\}",
    re.MULTILINE | re.DOTALL,
)
ROUTE_PATH = re.compile(r"\"(/[^\"]*)\"\s*:")


def server_routes() -> dict[str, tuple[set[str], set[str]]]:
    """Per method: the exact paths and argument prefixes the API serves."""
    source = (
        REPO_ROOT / "src" / "repro" / "service" / "http_common.py"
    ).read_text()
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
                "registered in src/repro/service/http_common.py"
            )
    return problems


def check_served_documented() -> list[str]:
    """Every route the core registers must be named in docs/API.md."""
    api = REPO_ROOT / "docs" / "API.md"
    if not api.is_file():
        return []
    documented = set(ENDPOINT.findall(api.read_text()))
    problems = []
    for method, (exact, prefixes) in sorted(server_routes().items()):
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


def runnable_module(module: str) -> bool:
    """Whether ``python -m <module>`` would run something under src/."""
    path = REPO_ROOT / "src" / pathlib.Path(*module.split("."))
    if (path / "__main__.py").is_file():
        return True
    source = path.with_suffix(".py")
    return source.is_file() and '__name__ == "__main__"' in source.read_text()


def check_commands() -> list[str]:
    """Every command README.md and docs/*.md name must still exist."""
    files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    problems = []
    for path in files:
        text = path.read_text()
        where = path.relative_to(REPO_ROOT)
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


def main() -> int:
    files = doc_files()
    broken = [problem for path in files for problem in check_file(path)]
    broken += check_endpoints()
    broken += check_served_documented()
    broken += check_commands()
    for problem in broken:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(files)} markdown files + docs/API.md endpoints "
        f"(both directions) + named commands: "
        f"{'OK' if not broken else f'{len(broken)} problems'}"
    )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
