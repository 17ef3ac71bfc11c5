"""Greedy wavelength assignment for rooted subtrees of a degree-3 host tree.

The colorer processes host tree edges in BFS discovery order, one round
per edge, coloring every still-uncolored subtree present on that edge.
Edges are classified 1-4 by how many edges at the earlier-discovered
endpoint are already processed.  Types 1-3 color first-fit.  Type 4 (a
degree-3 fork with exactly one processed sibling edge) runs two
competing schemes that pair up color-shareable subtrees via a maximum
matching in a complement conflict graph, and commits whichever scheme
ends the round with fewer distinct colors in use.

Two subtrees conflict exactly when they share an arc, so the state is
kept per arc (`ArcColors`) and no conflict graph is built.  A fork round
builds its reuse graph in one unchecked pass over the edge's population,
read off the instance's own index, and undoes the losing scheme subtree
by subtree; the trace keeps per-round deltas.  The instance was
validated when it was built; nothing here checks it again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .conflict import BipartiteGraph, _complement_bipartite
from .instances import (
    Arc,
    Coloring,
    HostTree,
    InputError,
    Instance,
    InternalError,
    edge_key,
    subtrees_on_edge,
)
from .matching import max_bipartite_matching


@dataclass(frozen=True)
class EdgeOrder:
    """Host tree edges in BFS discovery order, earlier endpoint first."""

    tree: HostTree
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def position(self) -> dict[tuple[int, int], int]:
        """Canonical edge -> its 1-based round index."""
        return {edge_key(u, v): i for i, (u, v) in enumerate(self.edges, 1)}


def bfs_edge_order(tree: HostTree, root: int) -> EdgeOrder:
    """BFS from `root`, neighbors in ascending vertex id; an edge is emitted
    the moment its far endpoint is discovered."""
    if not (0 <= root < tree.vertices):
        raise InputError(f"root {root} out of range for {tree.vertices} vertices")
    seen = {root}
    queue = deque([root])
    edges: list[tuple[int, int]] = []
    while queue:
        u = queue.popleft()
        for w in tree.adjacency[u]:
            if w not in seen:
                seen.add(w)
                edges.append((u, w))
                queue.append(w)
    if len(edges) != len(tree.edges):
        raise InternalError("BFS did not reach every edge of a valid tree")
    return EdgeOrder(tree=tree, edges=tuple(edges))


@dataclass(frozen=True)
class EdgeType:
    """Classification of one round's edge; w/x only apply to kind 4."""

    kind: int
    w: int | None = None
    x: int | None = None


def classify_edge(order: EdgeOrder, i: int) -> EdgeType:
    """Type of the i-th (1-based) edge in the order.

    With u the earlier-discovered endpoint: kind 1 if no edge at u is
    processed yet (only round 1), kind 2 if deg(u)=2 and the sibling edge
    is processed, kind 3 if deg(u)=3 and both siblings are processed,
    kind 4 if deg(u)=3 and exactly one sibling is processed -- then w is
    the processed sibling's far endpoint and x the unprocessed one's.
    """
    if not (1 <= i <= len(order.edges)):
        raise InputError(f"round index {i} out of range")
    u, v = order.edges[i - 1]
    siblings = [n for n in order.tree.adjacency[u] if n != v]
    done = [n for n in siblings if order.position[edge_key(u, n)] < i]
    pending = [n for n in siblings if order.position[edge_key(u, n)] >= i]
    if not done:
        if i != 1:
            raise InternalError(f"round {i}: no processed edge at vertex {u}")
        return EdgeType(1)
    degree_u = len(siblings) + 1
    if degree_u == 2 and len(done) == 1:
        return EdgeType(2)
    if degree_u == 3 and len(done) == 2:
        return EdgeType(3)
    if degree_u == 3 and len(done) == 1:
        return EdgeType(4, w=done[0], x=pending[0])
    raise InternalError(f"round {i}: cannot classify edge ({u},{v}), degree {degree_u}")


class ArcColors:
    """Partial coloring kept per arc, the greedy's whole state.

    `psi` maps colored subtrees to colors, `arc_colors` each arc to the
    colors on it, and `color_count` each color in use to its number of
    subtrees.  The coloring stays valid, so a color sits on an arc for at
    most one subtree and `unassign` may simply drop it from that set.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.psi: dict[int, int] = {}
        self.arc_colors: dict[Arc, set[int]] = {a: set() for a in inst.per_arc_index}
        self.color_count: dict[int, int] = {}

    def colors_on(self, *subtrees: int) -> set[int]:
        """Colors on any arc of the given subtrees."""
        colors: set[int] = set()
        for i in subtrees:
            for a in self.inst.subtrees[i].arcs:
                colors |= self.arc_colors[a]
        return colors

    def first_fit(self, *subtrees: int) -> int:
        """Smallest positive color on no arc of any of the given subtrees."""
        forbidden = self.colors_on(*subtrees)
        c = 1
        while c in forbidden:
            c += 1
        return c

    def assign(self, i: int, c: int) -> None:
        self.psi[i] = c
        for a in self.inst.subtrees[i].arcs:
            self.arc_colors[a].add(c)
        self.color_count[c] = self.color_count.get(c, 0) + 1

    def unassign(self, i: int) -> None:
        c = self.psi.pop(i)
        for a in self.inst.subtrees[i].arcs:
            self.arc_colors[a].discard(c)
        self.color_count[c] -= 1
        if not self.color_count[c]:
            del self.color_count[c]

    def colors_used(self) -> int:
        return len(self.color_count)


def process_edge_simple(state: ArcColors, queue: Sequence[int]) -> None:
    """Color every subtree in `queue` first-fit, in ascending index order."""
    for q in queue:
        state.assign(q, state.first_fit(q))


def _reuse_graph(
    state: ArcColors, edge: tuple[int, int], members: Sequence[int]
) -> BipartiteGraph:
    """Pairs of `members` (ascending, on one host edge) that may share a color.

    The complement of the conflict graph restricted to the edge
    (bipartite by direction), without the pairs that must not be merged:
    two colored subtrees with different colors, and uncolored/colored
    pairs where the colored one's color already sits on an arc of the
    uncolored one.
    """
    psi = state.psi
    near = {q: state.colors_on(q) for q in members if q not in psi}

    def may_share(i: int, j: int) -> bool:
        ci, cj = psi.get(i), psi.get(j)
        if ci is None:
            return cj is None or cj not in near[i]
        if cj is None:
            return ci not in near[j]
        return ci == cj

    return _complement_bipartite(state.inst, edge, members, may_share)


def _color_matched(
    state: ArcColors, queue: Sequence[int], bip: BipartiteGraph
) -> None:
    """Color `queue` from a maximum matching of the reuse graph `bip`.

    A queued subtree matched to a colored one inherits its color; two
    matched queued subtrees take one shared minimal feasible color;
    unmatched ones go first-fit.  Ascending index order throughout.
    """
    partner: dict[int, int] = {}
    for lp, rp in max_bipartite_matching(bip).pairs:
        i, j = bip.left[lp], bip.right[rp]
        partner[i] = j
        partner[j] = i
    qset = set(queue)
    psi = state.psi
    for q in queue:
        s = partner.get(q)
        if s is not None and s not in qset:
            state.assign(q, psi[s])
    for q in queue:
        if q in psi:
            continue
        s = partner.get(q)
        if s is None:
            state.assign(q, state.first_fit(q))
        else:
            c = state.first_fit(q, s)
            state.assign(q, c)
            state.assign(s, c)


def process_edge_1(
    state: ArcColors, queue: Sequence[int], edge: tuple[int, int]
) -> None:
    """First type-4 scheme: reuse colors already present on the edge itself.

    Matches the edge's population (colored plus queued) in the reuse
    graph and colors the queue from that matching.
    """
    qset = set(queue)
    members = [
        i for i in subtrees_on_edge(state.inst, edge) if i in state.psi or i in qset
    ]
    _color_matched(state, queue, _reuse_graph(state, edge, members))


def process_edge_2(
    state: ArcColors, queue: Sequence[int], u: int, v: int, x: int
) -> None:
    """Second type-4 scheme: reuse colors from the unprocessed fork edge.

    Builds the reuse graph on the {u,x} population, restricted to queued
    subtrees present there plus subtrees colored on {u,x} but not on
    {u,v}.  Queued subtrees on {u,x} are colored from that matching
    first; every other queued subtree then goes first-fit.
    """
    psi = state.psi
    qset = set(queue)
    on_uv = set(subtrees_on_edge(state.inst, (u, v)))
    members = [
        i
        for i in subtrees_on_edge(state.inst, (u, x))
        if (i in psi and i not in on_uv) or i in qset
    ]
    bip = _reuse_graph(state, (u, x), members)
    _color_matched(state, [i for i in members if i in qset], bip)
    for q in queue:
        if q not in psi:
            state.assign(q, state.first_fit(q))


@dataclass(frozen=True)
class RoundState:
    """One round's delta: the edge, who was colored, and the colors in use after."""

    round: int
    edge: tuple[int, int]
    newly_colored: tuple[int, ...]
    colors_used_after: int
    kind: int


@dataclass(frozen=True)
class SchemeChoice:
    """Outcome of one type-4 round's scheme competition."""

    round: int
    edge: tuple[int, int]
    chosen: int
    colors_scheme1: int
    colors_scheme2: int


@dataclass(frozen=True)
class GreedyResult:
    coloring: Coloring
    trace: tuple[RoundState, ...]
    scheme_choices: tuple[SchemeChoice, ...]


def greedy_color(inst: Instance, root: int = 0) -> GreedyResult:
    """Run the full round-based colorer from the given BFS root.

    Requires host tree degree <= 3.  Deterministic: identical instance
    and root always produce an identical result.
    """
    if not inst.tree.degree_ok:
        raise InputError("greedy coloring requires host tree degree <= 3")
    order = bfs_edge_order(inst.tree, root)
    state = ArcColors(inst)
    trace: list[RoundState] = []
    choices: list[SchemeChoice] = []
    for i, (u, v) in enumerate(order.edges, 1):
        et = classify_edge(order, i)
        queue = tuple(j for j in subtrees_on_edge(inst, (u, v)) if j not in state.psi)
        if et.kind == 4:
            process_edge_1(state, queue, (u, v))
            c1 = state.colors_used()
            scheme1 = [state.psi[q] for q in queue]
            for q in queue:
                state.unassign(q)
            process_edge_2(state, queue, u, v, et.x)
            c2 = state.colors_used()
            if c1 <= c2:
                for q in queue:
                    state.unassign(q)
                for q, c in zip(queue, scheme1):
                    state.assign(q, c)
            choices.append(SchemeChoice(i, (u, v), 1 if c1 <= c2 else 2, c1, c2))
        else:
            process_edge_simple(state, queue)
        trace.append(RoundState(i, (u, v), queue, state.colors_used(), et.kind))
    return GreedyResult(
        coloring=Coloring(state.psi),
        trace=tuple(trace),
        scheme_choices=tuple(choices),
    )
