"""The layers below the service never import it.

``repro.service`` builds on the engine; an import pointing the other way
-- even one deferred into a function to dodge the cycle -- makes the
engine unusable without the service.  The span context every layer
needs lives in the leaf module :mod:`repro.tracing`, which, like
:mod:`repro.counters`, imports nothing from the package.
"""

from __future__ import annotations

import ast
import pathlib

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
