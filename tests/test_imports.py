"""No module under ``src/repro`` imports a name it never uses.

A dead import makes an unreached module look reached.  Exempt: the
re-exports of ``__init__.py`` files, names listed in ``__all__``,
``from __future__`` and imports under ``if TYPE_CHECKING:``.

The exempt re-exports are held to ``__all__`` instead: every name it lists
is bound (a stale entry breaks ``from repro.x import *``), none is listed
twice, and a package lists every public name it imports.

The library has no runtime dependency: every module imports with numpy
blocked and pulls in nothing outside the standard library.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")
PACKAGES = sorted(SRC.rglob("__init__.py"))


def unused_imports(tree: ast.Module):
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
        for inner in ast.walk(node)
    }
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in guarded
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        constant.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for constant in ast.walk(node.value)
        if isinstance(constant, ast.Constant)
    }
    return sorted(imported - used - exported)


def declared_all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


EXPORTERS = [
    path for path in sorted(SRC.rglob("*.py"))
    if declared_all(ast.parse(path.read_text(encoding="utf-8"))) is not None
]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", EXPORTERS, ids=lambda path: str(path.relative_to(SRC)))
def test_every_name_in_all_is_bound_once(path):
    names = declared_all(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module(module_name(path))
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(names) == len(set(names))


@pytest.mark.parametrize("path", PACKAGES, ids=lambda path: str(path.relative_to(SRC)))
def test_every_public_reexport_is_in_all(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reexported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert sorted(reexported - set(declared_all(tree) or ())) == []


# Maps each module to the non-standard top-level modules its import loaded
# first, or to the error that stopped it.
IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys
sys.modules["numpy"] = None
# multiprocessing registers __main__ again as __mp_main__
allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
report = {}
def load(name):
    before = set(sys.modules)
    try:
        importlib.import_module(name)
    except Exception as error:
        report[name] = [repr(error)]
        return False
    report[name] = sorted({n.split(".")[0] for n in set(sys.modules) - before} - allowed)
    return True
if load("repro"):
    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        load(module.name)
print(json.dumps(report))
"""


@functools.lru_cache(maxsize=None)
def blocked_numpy_report():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda path: str(path.relative_to(SRC)))
def test_every_module_imports_with_only_the_standard_library(path):
    assert blocked_numpy_report().get(module_name(path)) == []


def test_the_shard_transport_and_the_cli_load_no_event_loop():
    """The shard server is threads: neither the transport nor the CLI that
    serves it imports ``asyncio``, so no second server grows back beside it."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, repro.core.socket_backend, repro.cli; print('asyncio' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
