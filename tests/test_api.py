"""Every public name resolves, no module imports a name it never uses,
every import sits at module level, no module builds a numpy Generator
through ``RandomStream.generator``, and the benchmark finds every library
name it imports or wraps."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "probboost").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    module = importlib.import_module("probboost" if path.stem == "__init__" else f"probboost.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"probboost.{path.stem}"), "__all__", []))
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_generator_calls(path):
    # every draw is a Philox array from RandomStream.uniforms
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "generator"
    ]
    assert calls == []


def test_benchmark_finds_the_names_it_uses():
    # a fresh interpreter, because installing the tracer rewraps the library
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import checks, selfcheck, sweep, tracing, workloads\n"
        "tracing.install(tracing.Tracer())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
