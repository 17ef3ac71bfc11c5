"""Conflict graphs and per-edge complement bipartite graphs.

Coloring the subtrees of an instance is exactly vertex-coloring the
conflict graph (vertices = subtree indices, edges = colliding pairs).
Restricted to the subtrees present on a single host edge, each direction
is a clique, so the complement of that restriction is bipartite with the
two directions as sides; that complement is what the matching-based
coloring steps and the per-edge lower bound work on.  Both graphs are
stored as bitmask rows: `ConflictGraph.masks` over subtree indices,
`BipartiteGraph.rows` from left positions over right positions.

`edge_complement_bipartite` checks its edge and subset and then calls
the unchecked builder `_complement_bipartite`, which the greedy colorer
and the per-edge lower bound call directly on populations they read off
the instance's own index; neither path builds a graph twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .instances import Arc, Instance, InputError, edge_key, subtrees_on_edge


@dataclass(frozen=True)
class ConflictGraph:
    """Collision graph over subtree indices, stored as bitmask rows.

    Bit j of ``masks[i]`` is set iff subtrees i and j share an arc; rows
    are symmetric and no row has its own bit.
    """

    masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.masks)


def build_conflict_graph(inst: Instance) -> ConflictGraph:
    """Exact collision rows, built per directed edge.

    All subtrees on one arc are pairwise adjacent, so ORing each arc's
    clique mask into the rows of its members, less their own bit,
    reproduces the all-pairs collide relation in time near-linear in
    total arc occupancy.
    """
    masks = [0] * inst.size
    for indices in inst.per_arc_index.values():
        clique = 0
        for i in indices:
            clique |= 1 << i
        for i in indices:
            masks[i] |= clique ^ (1 << i)
    return ConflictGraph(tuple(masks))


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph over two lists of original subtree indices.

    Bit rp of ``rows[lp]`` is set iff left position lp is joined to right
    position rp.  The sides are disjoint and no row has a bit at or above
    ``len(right)``; `edge_complement_bipartite` ensures this by checking
    its subset, so the graph re-checks nothing.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    rows: tuple[int, ...]


def _complement_bipartite(
    inst: Instance,
    edge: Sequence[int],
    members: Sequence[int],
    keep: Callable[[int, int], bool] | None = None,
) -> BipartiteGraph:
    """Unchecked core of `edge_complement_bipartite`.

    `members` must be ascending, distinct and present on the host edge
    `edge`.  A non-colliding pair (i, j), i on the (min,max) direction,
    is joined unless `keep(i, j)` is false.
    """
    fwd = Arc(*edge_key(*edge))
    subtrees = inst.subtrees
    left: list[int] = []
    right: list[int] = []
    for i in members:
        (left if fwd in subtrees[i].arc_set else right).append(i)
    right_arcs = [subtrees[j].arc_set for j in right]
    rows = []
    for i in left:
        arcs_i = subtrees[i].arc_set
        row = 0
        for rp, j in enumerate(right):
            if arcs_i.isdisjoint(right_arcs[rp]) and (keep is None or keep(i, j)):
                row |= 1 << rp
        rows.append(row)
    return BipartiteGraph(tuple(left), tuple(right), tuple(rows))


def edge_complement_bipartite(
    inst: Instance, edge: Sequence[int], subset: Sequence[int]
) -> BipartiteGraph:
    """Complement of the conflict graph induced on `subset` of one host edge.

    Left side is the subset on the (min,max) direction, right side the
    (max,min) direction; a pair is joined iff the two subtrees do NOT
    collide.  Each side is a clique in the conflict graph, so the result
    is bipartite by construction.  Rejects an edge not in the host tree
    and a subset with duplicates or with subtrees not on the edge.
    """
    on_edge = set(subtrees_on_edge(inst, edge))
    if len(set(subset)) != len(subset):
        raise InputError("subset contains duplicate indices")
    for i in subset:
        if i not in on_edge:
            a, b = edge_key(*edge)
            raise InputError(f"subtree {i} is not present on edge {{{a},{b}}}")
    return _complement_bipartite(inst, edge, sorted(subset))
