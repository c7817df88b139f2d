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


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Scope:
    """Names one module, class, function or comprehension scope binds, and the
    names read in it."""

    def __init__(self, parent: "_Scope | None" = None, is_class: bool = False):
        self.parent, self.is_class = parent, is_class
        self.bound: set[str] = set()
        self.declared: set[str] = set()  # global or nonlocal: bound elsewhere
        self.loads: list[str] = []

    def resolve(self, name: str) -> "_Scope | None":
        """The scope a read of ``name`` here refers to (class bodies are not
        visible from the scopes nested in them)."""
        scope, first = self, True
        while scope is not None:
            if name in scope.bound and name not in scope.declared:
                if first or not scope.is_class:
                    return scope
            scope, first = scope.parent, False
        return None


def _split(node) -> tuple[list, list]:
    """(inner, outer) parts of a scope-opening ``node``: those evaluated in the
    scope it opens, and those evaluated in the scope around it."""
    if isinstance(node, ast.ClassDef):
        return node.body, [*node.decorator_list, *node.bases, *node.keywords]
    if isinstance(node, _FUNCTIONS):
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        outer = [*a.defaults, *(d for d in a.kw_defaults if d is not None)]
        outer += [p.annotation for p in params if p.annotation is not None]
        if not isinstance(node, ast.Lambda):
            outer += [*node.decorator_list, *([node.returns] if node.returns else [])]
        body = node.body if isinstance(node.body, list) else [node.body]
        return params + body, outer
    first, *rest = node.generators  # a comprehension: its first iterable is outer
    parts = [getattr(node, key) for key in ("elt", "key", "value") if hasattr(node, key)]
    return [first.target, *first.ifs, *rest, *parts], [first.iter]


def _collect(nodes, scope: _Scope, scopes: list, imports: list) -> None:
    for node in nodes:
        if isinstance(node, (ast.ClassDef, *_FUNCTIONS, *_COMPREHENSIONS)):
            inner, outer = _split(node)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.bound.add(node.name)
            _collect(outer, scope, scopes, imports)
            child = _Scope(scope, is_class=isinstance(node, ast.ClassDef))
            scopes.append(child)
            _collect(inner, child, scopes, imports)
            continue
        if isinstance(node, ast.arg):
            scope.bound.add(node.arg)
            continue
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                scope.loads.append(node.id)
            else:
                scope.bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            scope.declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    scope.bound.add(name)
                    imports.append((scope, name, node.lineno))
        _collect(ast.iter_child_nodes(node), scope, scopes, imports)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no read refers to. A read refers
    to the binding Python would look it up in, so a parameter, local or
    comprehension variable of the same name hides an import."""
    module = _Scope()
    scopes, imports = [module], []
    _collect(ast.parse(source).body, module, scopes, imports)
    used = {(id(scope.resolve(name)), name) for scope in scopes for name in scope.loads}
    return [
        f"line {line}: {name}"
        for scope, name, line in imports
        if (id(scope), name) not in used
    ]


def test_scan_finds_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d\nd()\n") == []


@pytest.mark.parametrize(
    "source, unused",
    [
        # A parameter, local, lambda or comprehension variable of the same
        # name is what the read refers to.
        (
            "from dataclasses import dataclass, field\n"
            "@dataclass\nclass A:\n    x: int\n"
            "def energy_spectrum(field):\n    return field\n",
            ["line 1: field"],
        ),
        ("import os\ndef f():\n    os = 1\n    return os\n", ["line 1: os"]),
        ("import x\ny = lambda x: x\n", ["line 1: x"]),
        ("import i\nprint([i for i in range(3)])\n", ["line 1: i"]),
        ("import os\nos = 1\n", ["line 1: os"]),
        # A class body is not visible from its methods.
        ("class C:\n    import os\n    def f(self):\n        return os\n", ["line 2: os"]),
        # Reads that do refer to the import.
        ("import os\ndef f():\n    def g():\n        return os\n    return g\n", []),
        ("def f():\n    from m import g\n    return g()\n", []),
        ("import os\ndef f(os=os):\n    return os\n", []),
        ("from t import T\ndef f(T: T) -> T:\n    return T\n", []),
        ("import i\nprint([j for j in i])\n", []),
        ("import os\ndef f():\n    global os\n    os = 1\nprint(os)\n", []),
    ],
)
def test_scan_resolves_reads_by_scope(source, unused):
    assert unused_imports(source) == unused


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
