"""Output checks written independently of `treewave.harness.verify_coloring`.

They work on plain data (edge lists, arc lists, color lists), recompute the
padding that normalization must add, and return a list of error messages:
empty means the output passed.
"""

from __future__ import annotations

from typing import Sequence

MAX_RATIO = 2.5


def arc_table(edges, subtree_arcs, pad: bool):
    """Subtree indices on each directed arc, the subtree count and the load.

    With `pad`, the single-arc padding subtrees normalization appends are
    added too: per host edge in input order, the (min,max) arc before the
    (max,min) arc, `load - population` of them, numbered after the
    originals.
    """
    members: dict[tuple[int, int], list[int]] = {}
    for i, arcs in enumerate(subtree_arcs):
        for t, h in arcs:
            members.setdefault((t, h), []).append(i)
    load = max((len(v) for v in members.values()), default=0)
    count = len(subtree_arcs)
    if pad:
        for u, v in edges:
            a, b = min(u, v), max(u, v)
            for arc in ((a, b), (b, a)):
                on_arc = members.setdefault(arc, [])
                deficit = load - len(on_arc)
                on_arc.extend(range(count, count + deficit))
                count += deficit
    return members, count, load


def coloring_errors(members, count: int, colors: Sequence[int]) -> list[str]:
    """No two subtrees on one directed arc share a color; colors are positive."""
    errors = []
    if len(colors) != count:
        errors.append(f"{len(colors)} colors for {count} subtrees")
        return errors
    if any(type(c) is not int or c < 1 for c in colors):
        errors.append("a color is not a positive integer")
    for arc, on_arc in members.items():
        seen: dict[int, int] = {}
        for i in on_arc:
            c = colors[i]
            if c in seen:
                errors.append(f"subtrees {seen[c]} and {i} share color {c} on arc {arc}")
                break
            seen[c] = i
    return errors


def round_bound_errors(trace, load: int) -> list[str]:
    """Each kind-1/2/3 round ends with at most max(2*load, previous) colors."""
    errors = []
    previous = 0
    for rs in trace:
        if rs.kind in (1, 2, 3) and rs.colors_used_after > max(2 * load, previous):
            errors.append(
                f"round {rs.round} (kind {rs.kind}) ends with {rs.colors_used_after} "
                f"colors, above max(2*{load}, {previous})"
            )
        previous = rs.colors_used_after
    return errors


def ratio_errors(colors_used: int, lower_bound: int) -> list[str]:
    """lower_bound <= colors_used <= 2.5 * lower_bound (sound since LB <= OPT)."""
    if lower_bound > colors_used:
        return [f"lower bound {lower_bound} above the {colors_used} colors used"]
    if colors_used > MAX_RATIO * lower_bound:
        return [f"{colors_used} colors exceed {MAX_RATIO} x lower bound {lower_bound}"]
    return []


def coloring_doc_errors(doc: dict, original_count: int) -> list[str]:
    """The `treewave color` document agrees with itself."""
    colors = doc.get("colors")
    original = doc.get("original_colors")
    if not isinstance(colors, list) or not isinstance(original, list):
        return ["coloring document lacks colors or original_colors"]
    errors = []
    if doc.get("num_colors") != len(set(colors)):
        errors.append("num_colors does not count the distinct colors")
    if original != colors[:original_count]:
        errors.append("original_colors is not the original slice of colors")
    if doc.get("original_num_colors") != len(set(original)):
        errors.append("original_num_colors does not count the distinct original colors")
    return errors
