"""Canonical file formats: instance JSON, coloring JSON, bench CSV.

Serialization is bit-exact by construction: fixed key order, compact
separators, a single trailing newline, no whitespace variation.  Golden
file tests depend on this.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

from .harness import BenchRecord
from .instances import Arc, HostTree, InputError, Instance, RootedSubtree


def dumps_instance(inst: Instance) -> str:
    doc = {
        "tree": {
            "vertices": inst.tree.vertices,
            "edges": [[u, v] for u, v in inst.tree.edges],
        },
        "subtrees": [
            {"root": s.root, "arcs": [[t, h] for t, h in s.arcs]}
            for s in inst.subtrees
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _int(value) -> int:
    """A JSON integer as is; floats, strings and booleans are never coerced."""
    if type(value) is not int:
        raise InputError(f"expected an integer, got {json.dumps(value)}")
    return value


def _parse_json(text: str, what: str):
    """The JSON value of a `what` document; one message per way it fails."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{what} document is not valid JSON: {e}") from e
    except RecursionError as e:
        raise InputError(f"{what} document is nested too deeply") from e
    except ValueError as e:  # an integer past the digit limit (4,300 by default)
        raise InputError(f"{what} document holds an integer too long to read") from e


def loads_instance(text: str) -> Instance:
    doc = _parse_json(text, "instance")
    try:
        tree_doc = doc["tree"]
        edges = tuple([(_int(u), _int(v)) for u, v in tree_doc["edges"]])
        tree = HostTree(_int(tree_doc["vertices"]), edges)
        subtrees = tuple(
            RootedSubtree(
                _int(s["root"]), tuple([Arc(_int(t), _int(h)) for t, h in s["arcs"]])
            )
            for s in doc["subtrees"]
        )
    except (KeyError, TypeError, ValueError) as e:
        missing = "missing key " if isinstance(e, KeyError) else ""
        raise InputError(f"malformed instance document: {missing}{e}") from e
    return Instance(tree, subtrees)


def dumps_coloring(
    colors: Sequence[int], original_count: int | None = None
) -> str:
    """Coloring document; a padded run also reports the original slice."""
    doc: dict = {
        "colors": list(colors),
        "num_colors": len(set(colors)),
    }
    if original_count is not None:
        original = list(colors[:original_count])
        doc["original_colors"] = original
        doc["original_num_colors"] = len(set(original))
    return json.dumps(doc, separators=(",", ":")) + "\n"


def loads_coloring(text: str) -> tuple[list[int], list[int] | None]:
    """Returns (colors, original_colors or None)."""
    doc = _parse_json(text, "coloring")
    try:
        colors = [_int(c) for c in doc["colors"]]
        original = doc.get("original_colors")
        if original is not None:
            original = [_int(c) for c in original]
    except (KeyError, TypeError, ValueError) as e:
        missing = "missing key " if isinstance(e, KeyError) else ""
        raise InputError(f"malformed coloring document: {missing}{e}") from e
    if any(c < 1 for c in colors) or (original and any(c < 1 for c in original)):
        raise InputError("colors must be positive integers")
    return colors, original


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(BenchRecord))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def records_to_csv(records) -> str:
    """Bench records as CSV; records carry no timings, so the bytes
    depend only on seeds and the solver set."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                _cell(getattr(r, col)) for col in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"
