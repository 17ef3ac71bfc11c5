"""Conflict graphs and per-edge complement bipartite graphs.

Coloring the subtrees of an instance is exactly vertex-coloring the
conflict graph (vertices = subtree indices, edges = colliding pairs).
Restricted to the subtrees present on a single host edge, each direction
is a clique, so the complement of that restriction is bipartite with the
two directions as sides; that complement is what the matching-based
coloring steps and the per-edge lower bound work on.  Both graphs are
stored as bitmask rows: `ConflictGraph.masks` over subtree indices,
`BipartiteGraph.rows` from left positions over right positions.  Both
are built from per-arc masks, never by testing pairs: a conflict row ORs
the cliques of its subtree's arcs, a complement row clears the right
positions on its left's arcs, read by arc position.

`edge_complement_bipartite` splits its subset along the ascending sides
from `edge_sides`, sorting nothing; the greedy's reuse graph and the
per-edge lower bound take rows from the unchecked `_complement_rows`,
except `bounds.compute_bounds` under its size guard, which reads them
from the conflict graph it builds anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .instances import Instance, InputError, edge_key, edge_sides


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
    for indices in inst.arc_members:
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


def _complement_rows(
    inst: Instance, left: Sequence[int], right: Sequence[int]
) -> list[int]:
    """Unchecked rows of the complement of one host edge's conflict graph.

    `left` and `right` must be ascending and hold subtrees on the
    (min,max) and on the (max,min) arc of one host edge.  Each right
    position's bit is ORed once into a mask per arc position it occupies;
    left position lp's row is then every right position less the masks of
    its own arcs, since two subtrees collide exactly when they share an
    arc.
    """
    positions = inst.arc_positions
    on_arc: dict[int, int] = {}
    for rp, j in enumerate(right):
        bit = 1 << rp
        for p in positions[j]:
            on_arc[p] = on_arc.get(p, 0) | bit
    full = (1 << len(right)) - 1
    rows = []
    for i in left:
        taken = 0
        for p in positions[i]:
            taken |= on_arc.get(p, 0)
        rows.append(full & ~taken)
    return rows


def edge_complement_bipartite(
    inst: Instance, edge: Sequence[int], subset: Sequence[int]
) -> BipartiteGraph:
    """Complement of the conflict graph induced on `subset` of one host edge.

    Left side is the subset on the (min,max) direction, right side the
    (max,min) direction; a pair is joined iff the two subtrees do NOT
    collide.  Each side is a clique in the conflict graph, so the result
    is bipartite by construction.  The edge's two sides are read once, by
    `edge_sides`, which rejects an edge not in the host tree; a subset
    with duplicates or with subtrees not on the edge is rejected here.
    """
    u, v = edge
    fwd, bwd = edge_sides(inst, u, v)
    members = set(subset)
    if len(members) != len(subset):
        raise InputError("subset contains duplicate indices")
    left = tuple(i for i in fwd if i in members)
    right = tuple(i for i in bwd if i in members)
    if len(left) + len(right) != len(members):
        on_edge = set(fwd + bwd)
        stray = next(i for i in subset if i not in on_edge)
        a, b = edge_key(u, v)
        raise InputError(f"subtree {stray} is not present on edge {{{a},{b}}}")
    return BipartiteGraph(left, right, tuple(_complement_rows(inst, left, right)))
