from __future__ import annotations

import importlib
import pkgutil

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
