from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import treewave


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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, fn in spans.OP_SPANS + spans.SETUP_SPANS:
        target = importlib.import_module(f"treewave.{module}")
        assert callable(getattr(target, fn, None)), f"treewave.{module}.{fn}"
