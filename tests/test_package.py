from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import treewave

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_imports_and_every_export_resolves():
    names = [
        info.name
        for info in pkgutil.walk_packages(treewave.__path__, treewave.__name__ + ".")
    ]
    assert "treewave.cli" in names
    for name in names:
        importlib.import_module(name)
    for name in treewave.__all__:
        assert hasattr(treewave, name), name


def test_benchmark_span_names_resolve():
    """The benchmark times functions by (module, name); a rename must fail here."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, fn in spans.OP_SPANS + spans.SETUP_SPANS:
        target = importlib.import_module(f"treewave.{module}")
        assert callable(getattr(target, fn, None)), f"treewave.{module}.{fn}"


def test_benchmark_selftest_passes():
    """The benchmark's self-test reads result fields (`trace`,
    `scheme_choices`, `padding_count`, `Matching.size`, `kernel_backend`)
    and pins the sweep CSV digest; a trim or an output change must fail here."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_package_functions_do_not_recurse():
    """Every search runs as a loop, so no input depth reaches the
    interpreter's recursion limit: no function may call its own name."""
    recursive = []
    for path in sorted((ROOT / "src" / "treewave").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(
                    callee, "attr", None
                )
                if name == fn.name:
                    recursive.append(f"{path.name}:{fn.name}")
    assert recursive == []


def test_sources_parse_at_the_declared_python_floor():
    """pyproject.toml declares Python 3.10, so no module may use newer
    syntax such as ``except*``."""
    floor = re.search(
        r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    )
    assert floor is not None
    for path in sorted((ROOT / "src" / "treewave").glob("*.py")):
        ast.parse(
            path.read_text(), filename=str(path), feature_version=(3, int(floor[1]))
        )


def test_readme_lists_every_export():
    """README's export paragraph names every entry of `treewave.__all__`,
    backticked, so an added or renamed export cannot drift from it."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("`treewave` exports, by module:")
    paragraph = readme[start : readme.index("\n\n", start)]
    listed = set(re.findall(r"`(\w+)`", paragraph))
    assert sorted(set(treewave.__all__) - listed) == []


def test_no_unused_imports():
    """Every name a module imports is used in it (``__init__`` re-exports
    by import, so it is exempt)."""
    unused = []
    for path in sorted((ROOT / "src" / "treewave").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []
