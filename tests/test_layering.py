"""The layers below the service never import it, and ``src/`` holds
what production runs.

``repro.service`` builds on the engine; an import pointing the other way
-- even one deferred into a function to dodge the cycle -- makes the
engine unusable without the service.  The span context every layer
needs lives in the leaf module :mod:`repro.tracing`, which, like
:mod:`repro.counters`, imports nothing from the package.

Every module under ``src/repro/`` is reached by following imports from
the entry points -- the CLI, a shard worker process and the two
examples the suite runs -- or is on :data:`NOT_REACHED` with its
reason.  Reference code that only tests use lives in ``tests/oracles/``.
"""

from __future__ import annotations

import ast
import pathlib
from collections import deque

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: Subpackages below the service.
LOWER_PACKAGES = ("db", "query", "sfa", "core", "indexing", "automata", "ocr")

#: Leaf modules: they import nothing from the package at all.
LEAF_MODULES = ("counters.py", "tracing.py")


def _lower_modules() -> list[pathlib.Path]:
    paths = [PACKAGE_ROOT / name for name in LEAF_MODULES]
    for package in LOWER_PACKAGES:
        paths.extend(sorted((PACKAGE_ROOT / package).rglob("*.py")))
    return paths


def _package_of(path: pathlib.Path) -> str:
    """The dotted package a module file sits in (``repro.db`` ...)."""
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1])


def imported_modules(source: str, package: str) -> list[tuple[int, str]]:
    """Every ``(line, dotted name)`` a module imports, at any depth.

    Relative imports are resolved against ``package``; ``from X import
    y`` names both ``X`` and ``X.y`` (``y`` may be a submodule).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.append((node.lineno, base))
            found.extend(
                (node.lineno, f"{base}.{alias.name}") for alias in node.names
            )
    return found


def _is_service(name: str) -> bool:
    return name == "repro.service" or name.startswith("repro.service.")


def test_the_scan_sees_an_import_deferred_into_a_function():
    source = "def f():\n    from ..service.trace import span\n"
    assert any(
        _is_service(name) for _, name in imported_modules(source, "repro.db")
    )
    source = "from .. import service\n"
    assert any(
        _is_service(name) for _, name in imported_modules(source, "repro.db")
    )
    assert not any(
        _is_service(name)
        for _, name in imported_modules("from .. import tracing\n", "repro.db")
    )


@pytest.mark.parametrize(
    "path",
    _lower_modules(),
    ids=lambda path: str(path.relative_to(PACKAGE_ROOT)),
)
def test_no_layer_below_the_service_imports_it(path):
    package = _package_of(path)
    offending = [
        f"{path.relative_to(PACKAGE_ROOT)}:{line} imports {name}"
        for line, name in imported_modules(path.read_text(), package)
        if _is_service(name)
    ]
    assert not offending, offending


@pytest.mark.parametrize("name", LEAF_MODULES)
def test_leaf_modules_import_nothing_from_the_package(name):
    path = PACKAGE_ROOT / name
    inside = [
        (line, module)
        for line, module in imported_modules(path.read_text(), "repro")
        if module == "repro" or module.startswith("repro.")
    ]
    assert not inside, inside


# ----------------------------------------------------------------------
#: Where production starts: ``python -m repro``, a shard worker process
#: (``python -m repro.service``) and the examples ``tests/test_examples.py``
#: runs.
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.service.__main__")
EXAMPLES = PACKAGE_ROOT.parent.parent / "examples"
ENTRY_EXAMPLES = ("quickstart.py", "speech_lattices.py")

#: Modules no entry point reaches, each with the reason it stays.
NOT_REACHED = {
    "repro.indexing.projection": "benchmarks/e2e/check.py imports it",
    "repro.bench.metrics": "benchmarks/e2e/check.py imports it",
    "repro.query.eval_sfa": "benchmarks/e2e/check.py imports it",
    "repro.bench.harness": "the paper-figure harness; leaves with bench/",
    "repro.bench.workload": "the paper-figure harness; leaves with bench/",
    "repro.bench.history": "the benchmark ledger writer; leaves with bench/",
    "repro.bench.service_load": "the tests' HTTP client; leaves with bench/",
}


def _module_files() -> dict[str, pathlib.Path]:
    """``{dotted name: file}`` of every module under ``src/repro/``; a
    package is named by its ``__init__.py``."""
    modules = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _reexports(path: pathlib.Path, package: str) -> dict[str, str]:
    """``{name: the module it is taken from}`` of a package ``__init__``."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            (_, base), *_ = imported_modules(ast.unparse(node), package)
            for alias in node.names:
                found[alias.asname or alias.name] = f"{base}.{alias.name}"
    return found


def reached_modules(
    modules: dict[str, pathlib.Path], roots: list[tuple[str, str]]
) -> set[str]:
    """Every module the ``(source, package)`` roots reach through imports.

    Importing ``a.b.c`` runs the packages ``a`` and ``a.b``, so they
    are reached, but a package's own imports are not followed: a name
    imported from a package reaches the submodule its ``__init__``
    takes it from, and only that one.
    """
    reached: set[str] = set()
    pending = deque(roots)

    def is_package(name: str) -> bool:
        return modules[name].name == "__init__.py"

    def reach(name: str) -> None:
        while name not in modules and "." in name:
            package, attribute = name.rsplit(".", 1)
            if package in modules and is_package(package):
                taken_from = _reexports(modules[package], package).get(attribute)
                if taken_from is not None and taken_from != name:
                    reach(taken_from)
            name = package
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            module = ".".join(parts[:depth])
            if module in modules and module not in reached:
                reached.add(module)
                if not is_package(module):
                    pending.append(
                        (modules[module].read_text(), module.rsplit(".", 1)[0])
                    )

    while pending:
        source, package = pending.popleft()
        for _, name in imported_modules(source, package):
            if name == "repro" or name.startswith("repro."):
                reach(name)
    return reached


def _production_reach() -> set[str]:
    modules = _module_files()
    roots = [
        (modules[name].read_text(), name.rsplit(".", 1)[0])
        for name in ENTRY_MODULES
    ]
    roots += [((EXAMPLES / name).read_text(), "") for name in ENTRY_EXAMPLES]
    reached = reached_modules(modules, roots)
    # The entry modules themselves run, whatever imports them.
    return reached | set(ENTRY_MODULES)


def test_a_name_from_a_package_reaches_only_the_module_it_is_taken_from(
    tmp_path,
):
    package = tmp_path / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .used import thing\nfrom .unused import other\n"
    )
    (package / "used.py").write_text("from . import deep\n")
    (package / "deep.py").write_text("")
    (package / "unused.py").write_text("")
    modules = {
        "repro.pkg": package / "__init__.py",
        "repro.pkg.used": package / "used.py",
        "repro.pkg.deep": package / "deep.py",
        "repro.pkg.unused": package / "unused.py",
    }
    reached = reached_modules(modules, [("from repro.pkg import thing\n", "")])
    assert reached == {"repro.pkg", "repro.pkg.used", "repro.pkg.deep"}


def test_src_holds_what_production_runs():
    modules = _module_files()
    reached = _production_reach()
    orphans = sorted(set(modules) - reached - set(NOT_REACHED))
    assert not orphans, (
        f"{orphans}: no entry point reaches them; delete them, move "
        "test-only code to tests/oracles/, or add a reason to NOT_REACHED"
    )


def test_every_allowlisted_module_exists_and_is_not_reached():
    modules = _module_files()
    reached = _production_reach()
    assert set(NOT_REACHED) <= set(modules), set(NOT_REACHED) - set(modules)
    assert not set(NOT_REACHED) & reached, set(NOT_REACHED) & reached
