"""Canonical formats of the CLI's JSON and CSV documents and bench summary.

Serialization is bit-exact by construction: fixed key order, compact
separators, a single trailing newline, no whitespace variation.  Golden
file tests depend on this.

Loading an instance reads the parsed document in one accepting walk: it
checks each value once, only under the documented keys, and builds the
host tree (the one place its `arc_position` is seeded), the arcs, the
subtrees and both arc tables as it goes, with the lean walks that read
only documents (`instances._walk_tree`, `_walk_subtree`).  Only a
document the walk gives up on is read again, by the naming pass: the
nesting rule, then each value's shape in document order, then
`Instance(...)`, which names the first defect.  The naming pass alone
decides what is rejected and with which message; a document the walk
accepts is one the naming pass accepts, as the same instance.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from typing import Mapping, Sequence

from . import instances
from .bounds import BoundsReport
from .harness import BenchRecord
from .instances import Arc, HostTree, InputError, Instance, RootedSubtree

# Arrays and objects may nest at most this deep in a document; a valid
# instance nests 5 levels, a valid coloring 2.
MAX_DEPTH = 32
# all but the brackets outside strings (a string cut short runs to the end)
_NOT_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"?|[^\[\]{}"]+', re.DOTALL)


def _dumps(doc) -> str:
    """Canonical JSON text: compact separators, one trailing newline."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


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
    return _dumps(doc)


def _brief(value) -> str:
    """`value` as JSON if that takes at most 40 characters, else its JSON
    type; at most 41 chunks are encoded, so nothing long is written out."""
    text = "".join(itertools.islice(json.JSONEncoder().iterencode(value), 41))
    kind = {dict: "object", list: "array", str: "string"}.get(type(value), "number")
    return text if len(text) <= 40 else f"a long JSON {kind}"


def _checked(value, cls: type):
    """`value` if its type is exactly `cls`, so a boolean is no integer."""
    if type(value) is not cls:
        shape = {dict: "an object", list: "an array", int: "an integer"}[cls]
        raise InputError(f"expected {shape}, got {_brief(value)}")
    return value


def _field(doc: dict, key: str, cls: type):
    """`doc[key]` checked to be a `cls`; the caller has checked that `doc`
    is an object, once for all its keys."""
    if key not in doc:
        raise InputError(f"missing key {key!r}")
    return _checked(doc[key], cls)


def _pair(value, cls: type[tuple]) -> tuple[int, int]:
    """An edge or an arc: an array of two integers, both tested at once,
    built as a `cls` (a plain tuple or an `Arc`) in the same call."""
    if type(value) is not list or len(value) != 2:
        raise InputError(f"expected a pair of integers, got {_brief(value)}")
    u, v = value
    if type(u) is not int or type(v) is not int:
        _checked(u, int)
        _checked(v, int)
    return tuple.__new__(cls, value)


def _parse_json(text: str, what: str):
    """The JSON value of a `what` document; one message per way it fails."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        if _nests_too_deeply(text[: e.pos]):
            raise InputError(f"{what} document is nested too deeply") from e
        raise InputError(f"{what} document is not valid JSON: {e}") from e
    except RecursionError as e:
        raise InputError(f"{what} document is nested too deeply") from e
    except ValueError as e:  # an integer past the digit limit (4,300 by default)
        raise InputError(f"{what} document holds an integer too long to read") from e


def _nests_too_deeply(text: str) -> bool:
    """Whether JSON text read up to a parse error opens arrays and objects
    deeper than `MAX_DEPTH` (brackets in strings not counted); the error
    path alone runs it, so the caller's stack never decides the message."""
    depth = 0
    for c in _NOT_BRACKETS.sub("", text):
        depth += 1 if c in "[{" else -1
        if depth > MAX_DEPTH:
            return True
    return False


def _check_depth(doc, what: str) -> None:
    """Refuse a `what` document whose arrays and objects nest deeper than
    `MAX_DEPTH`, level by level in a loop, so the rule depends on the
    document alone and not on the caller's stack."""
    level = [doc]
    for _ in range(MAX_DEPTH + 1):
        level = [v for v in level if type(v) is list or type(v) is dict]
        if not level:
            return
        level = [c for v in level for c in (v.values() if type(v) is dict else v)]
    raise InputError(f"{what} document is nested too deeply")


def _subtree(doc) -> RootedSubtree:
    _checked(doc, dict)
    root = _field(doc, "root", int)
    arcs = tuple([_pair(a, Arc) for a in _field(doc, "arcs", list)])
    return RootedSubtree(root, arcs)


def _walked_instance(doc) -> Instance | None:
    """The instance of a valid document that holds only the documented
    keys, built in one walk, or None at the first irregularity."""
    if type(doc) is not dict or len(doc) != 2:
        return None
    tree_doc, subtree_docs = doc.get("tree"), doc.get("subtrees")
    if type(tree_doc) is not dict or len(tree_doc) != 2 or type(subtree_docs) is not list:
        return None
    vertices, edge_docs = tree_doc.get("vertices"), tree_doc.get("edges")
    position = instances._walk_tree(vertices, edge_docs)
    if position is None:
        return None
    tree = HostTree(vertices, tuple(map(tuple, edge_docs)))
    tree.__dict__["arc_position"] = position
    walk = instances._walk_subtree
    subtrees = []
    positions = []
    for s in subtree_docs:
        if type(s) is not dict or len(s) != 2:
            return None
        root = s.get("root")
        walked = walk(position, root, s.get("arcs"))
        if walked is None:
            return None
        positions.append(walked[0])
        subtrees.append(RootedSubtree(root, walked[1]))
    return Instance._trusted(tree, tuple(subtrees), arc_positions=tuple(positions))


def loads_instance(text: str) -> Instance:
    """The instance of an instance document, from one accepting walk.
    Where the walk gives up, the naming pass checks the nesting depth and
    then values in document order, edges before `vertices` and each root
    before its arcs, so the first defect is the one named."""
    doc = _parse_json(text, "instance")
    inst = _walked_instance(doc)
    if inst is not None:
        return inst
    _check_depth(doc, "instance")
    try:
        _checked(doc, dict)
        tree_doc = _field(doc, "tree", dict)
        edges = tuple([_pair(e, tuple) for e in _field(tree_doc, "edges", list)])
        tree = HostTree(_field(tree_doc, "vertices", int), edges)
        subtrees = tuple([_subtree(s) for s in _field(doc, "subtrees", list)])
    except InputError as e:
        raise InputError(f"malformed instance document: {e}") from e
    return Instance(tree, subtrees)


def dumps_coloring(colors: Sequence[int], original_count: int | None = None) -> str:
    """Coloring document; a padded run also reports the original slice."""
    doc: dict = {"colors": list(colors), "num_colors": len(set(colors))}
    if original_count is not None:
        original = list(colors[:original_count])
        doc["original_colors"] = original
        doc["original_num_colors"] = len(set(original))
    return _dumps(doc)


def loads_coloring(text: str) -> tuple[list[int], list[int] | None]:
    """Returns (colors, original_colors or None)."""
    doc = _parse_json(text, "coloring")
    _check_depth(doc, "coloring")
    try:
        _checked(doc, dict)
        colors = [_checked(c, int) for c in _field(doc, "colors", list)]
        original = doc.get("original_colors")
        if original is not None:
            original = [_checked(c, int) for c in _checked(original, list)]
    except InputError as e:
        raise InputError(f"malformed coloring document: {e}") from e
    if any(c < 1 for c in colors) or (original and any(c < 1 for c in original)):
        raise InputError("colors must be positive integers")
    return colors, original


def dumps_bounds(report: BoundsReport) -> str:
    """Bounds document: the report's fields in order, edges keyed `u-v`,
    without the exact witness."""
    doc = dataclasses.asdict(report)
    del doc["exact_witness"]
    edges = sorted(doc["per_edge_bound"].items())
    doc["per_edge_bound"] = {f"{u}-{v}": b for (u, v), b in edges}
    return _dumps(doc)


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
        lines.append(",".join(_cell(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def dumps_summary(summary: Mapping[str, object]) -> str:
    """The bench summary line: `key=value` cells as in the CSV, `-` if empty."""
    cells = " ".join(f"{key}={_cell(value) or '-'}" for key, value in summary.items())
    return f"summary: {cells}\n"
