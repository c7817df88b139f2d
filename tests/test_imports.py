"""Every import in src/ and tests/ is used, and every name the autodiff and
datagen packages export is read by the model outside the package (no linter
or CI runs in this repository, so this suite is the gate).

``__init__.py`` files are skipped, since their imports are the package's
re-exports, and so are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from sparkpde import autodiff, datagen

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other name in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d\nd()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_reads(source: str, package: str) -> set[str]:
    """Names ``source`` reads from ``package`` itself: those it imports from
    it, and attributes of the name ``from . import <package>`` binds
    (``ad.matmul``)."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == package:
                names.update(alias.name for alias in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == package)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def test_scan_finds_autodiff_reads():
    source = (
        "from . import autodiff as ad\n"
        "from .autodiff import Tape\n"
        "from .autodiff.tensor import mul\n"
        "from .datagen import EpisodeDataset\n"
        "ad.gelu(x)\nother.square(x)\n"
    )
    assert package_reads(source, "autodiff") == {"Tape", "gelu"}
    assert package_reads(source, "datagen") == {"EpisodeDataset"}


def unread_exports(package) -> list[str]:
    """Names in ``package.__all__`` that no module under src/sparkpde/
    outside the package reads. An export only tests read is surface to keep
    for nothing; tests import such names from the module that defines them."""
    model = ROOT / "src" / "sparkpde"
    name = package.__name__.split(".")[-1]
    readers = [
        path for path in FILES
        if path.is_relative_to(model) and not path.is_relative_to(model / name)
    ]
    read = set().union(*(package_reads(p.read_text(encoding="utf-8"), name) for p in readers))
    return sorted(set(package.__all__) - read)


def test_every_autodiff_export_is_read_by_the_model():
    assert unread_exports(autodiff) == []


def test_every_datagen_export_is_read_by_the_model():
    assert unread_exports(datagen) == []
