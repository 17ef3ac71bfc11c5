"""Conflict graphs and per-edge complement bipartite graphs.

Coloring the subtrees of an instance is exactly vertex-coloring the
conflict graph (vertices = subtree indices, edges = colliding pairs).
Restricted to the subtrees present on a single host edge, each direction
is a clique, so the complement of that restriction is bipartite with the
two directions as sides; that complement is what the matching-based
coloring steps and the per-edge lower bound work on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .instances import Arc, Instance, InputError, collide, edge_key


@dataclass(frozen=True)
class ConflictGraph:
    """Collision adjacency over subtree indices; symmetric, no self-loops."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Adjacency rows as bitmasks, for the exact-oracle kernels."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for j in nbrs:
                m |= 1 << j
            masks.append(m)
        return tuple(masks)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def induced(self, subset: Sequence[int]) -> "ConflictGraph":
        """Subgraph on `subset` (positions renumbered in the given order)."""
        pos = {v: k for k, v in enumerate(subset)}
        adj = tuple(
            tuple(sorted(pos[w] for w in self.adjacency[v] if w in pos))
            for v in subset
        )
        return ConflictGraph(len(subset), adj)


def build_conflict_graph(inst: Instance) -> ConflictGraph:
    """Exact collision adjacency, built per directed edge.

    All subtrees on one arc are pairwise adjacent, so unioning the per-arc
    cliques and deduplicating reproduces the all-pairs collide relation in
    time near-linear in total arc occupancy.
    """
    n = inst.size
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for indices in inst.per_arc_index.values():
        for a in range(len(indices)):
            ia = indices[a]
            for b in range(a + 1, len(indices)):
                ib = indices[b]
                nbrs[ia].add(ib)
                nbrs[ib].add(ia)
    return ConflictGraph(n, tuple(tuple(sorted(s)) for s in nbrs))


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph over two lists of original subtree indices.

    Edges are (left position, right position) pairs into those lists.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if set(self.left) & set(self.right):
            raise InputError("bipartite sides overlap")
        for lp, rp in self.edges:
            if not (0 <= lp < len(self.left) and 0 <= rp < len(self.right)):
                raise InputError(f"edge ({lp},{rp}) out of range")
        if len(set(self.edges)) != len(self.edges):
            raise InputError("duplicate bipartite edges")


def edge_complement_bipartite(
    inst: Instance, edge: Sequence[int], subset: Sequence[int]
) -> BipartiteGraph:
    """Complement of the conflict graph induced on `subset` of one host edge.

    Left side is the subset on the (min,max) direction, right side the
    (max,min) direction; a pair is joined iff the two subtrees do NOT
    collide.  Each side is a clique in the conflict graph, so the result
    is bipartite by construction.
    """
    u, v = edge
    if not inst.tree.has_edge(u, v):
        raise InputError(f"{{{u},{v}}} is not an edge of the host tree")
    a, b = edge_key(u, v)
    fwd = set(inst.per_arc_index.get(Arc(a, b), ()))
    bwd = set(inst.per_arc_index.get(Arc(b, a), ()))
    if len(set(subset)) != len(subset):
        raise InputError("subset contains duplicate indices")
    for i in subset:
        if i not in fwd and i not in bwd:
            raise InputError(f"subtree {i} is not present on edge {{{a},{b}}}")
    left = tuple(sorted(i for i in subset if i in fwd))
    right = tuple(sorted(i for i in subset if i in bwd))
    edges = []
    for lp, i in enumerate(left):
        si = inst.subtrees[i]
        for rp, j in enumerate(right):
            if not collide(si, inst.subtrees[j]):
                edges.append((lp, rp))
    return BipartiteGraph(left, right, tuple(edges))
