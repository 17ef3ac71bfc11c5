"""Greedy wavelength assignment for rooted subtrees of a degree-3 host tree.

The colorer processes host tree edges in BFS discovery order, one round
per edge, coloring every still-uncolored subtree present on that edge.
Edges are classified 1-4 by how many edges at the earlier-discovered
endpoint are already processed; the BFS pass that orders the edges
records each one's kind as an int, and refuses a host tree of degree
above 3, for which there is no kind.  Types 1-3 color first-fit.  Type 4
(a degree-3 fork {u,v} with one processed sibling edge) runs two
competing schemes that pair up color-shareable subtrees via a maximum
matching in a complement conflict graph, and commits whichever ends the
round with fewer distinct colors in use.  The round loop and the
`scheme_choices` replay both read x of the pending sibling {u,x} as the
next round's far end.

Two subtrees conflict exactly when they share an arc, so the state is
one color bitmask per arc position (`ArcColors`) and no conflict graph
is built.  Scheme 2 ends at no fewer than the colors already in use and
loses ties, so a fork round runs it only when scheme 1 opens a color; its
counts for the other fork rounds are replayed from the trace, on the
instance every `GreedyResult` carries, when `GreedyResult.scheme_choices`
is first read.  The instance was validated when it was built; nothing
here checks it again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .conflict import BipartiteGraph, _complement_rows
from .instances import (
    Coloring,
    HostTree,
    InputError,
    Instance,
    InternalError,
    edge_sides,
)
from .matching import max_bipartite_matching


@dataclass(frozen=True)
class EdgeOrder:
    """Host tree edges in BFS discovery order, earlier endpoint first, and
    each edge's kind (1-4).  A fork's x is the next round's far end and
    the paper's w is read by no scheme, so neither is stored."""

    edges: tuple[tuple[int, int], ...]
    kinds: tuple[int, ...]


def bfs_edge_order(tree: HostTree, root: int) -> EdgeOrder:
    """BFS from `root`, neighbors in ascending vertex id; an edge is emitted,
    and given its kind, the moment its far endpoint is discovered: at u's
    k-th child (from 0), u's parent (none at the root) and its k earlier
    children are processed, and that count with u's degree gives the kind.
    The one check of the degree <= 3 rule, made before the root's."""
    if not tree.degree_ok:
        raise InputError("greedy coloring requires host tree degree <= 3")
    if not (0 <= root < tree.vertices):
        raise InputError(f"root {root} out of range for {tree.vertices} vertices")
    parent: dict[int, int | None] = {root: None}
    queue = deque([root])
    edges: list[tuple[int, int]] = []
    kinds: list[int] = []
    while queue:
        u = queue.popleft()
        p = parent[u]
        degree = len(tree.adjacency[u])
        children = [n for n in tree.adjacency[u] if n not in parent]
        for k, v in enumerate(children):
            parent[v] = u
            edges.append((u, v))
            queue.append(v)
            done = k if p is None else k + 1
            # a sibling processed and one pending is a fork; else done + 1
            kinds.append(4 if 0 < done < degree - 1 else done + 1)
    if len(edges) != len(tree.edges):
        raise InternalError("BFS did not reach every edge of a valid tree")
    return EdgeOrder(edges=tuple(edges), kinds=tuple(kinds))


def classify_edge(order: EdgeOrder, i: int) -> int:
    """Kind of the i-th (1-based) edge in the order, recorded by the BFS pass.

    With u the earlier-discovered endpoint: kind 1 if no edge at u is
    processed yet (only round 1), kind 2 if deg(u)=2 and the sibling edge
    is processed, kind 3 if deg(u)=3 and both siblings are processed,
    kind 4 if deg(u)=3 and exactly one sibling is processed.  BFS emits
    u's edges in a row, so a fork's pending sibling {u,x} is the next
    round's edge and x is `order.edges[i][1]`.  `bfs_edge_order` refused
    higher degrees, so every round has a kind.
    """
    if not (1 <= i <= len(order.edges)):
        raise InputError(f"round index {i} out of range")
    return order.kinds[i - 1]


class ArcColors:
    """Partial coloring kept per arc, the greedy's whole state.

    `psi` maps colored subtrees to colors and `arc_colors` each arc
    position (`HostTree.arc_position`) to the mask of the colors on that
    arc (bit c set iff color c is on the arc; bit 0 is never used), and
    nothing else: no per-color counts.  The coloring stays valid, so a
    color sits on an arc for at most one subtree and `unassign` may simply
    clear its bit.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.positions = inst.arc_positions
        self.psi: dict[int, int] = {}
        self.arc_colors: list[int] = [0] * len(inst.arc_members)

    def colors_on(self, i: int) -> int:
        """Mask of the colors on any arc of subtree i."""
        arc_colors = self.arc_colors
        colors = 0
        for p in self.positions[i]:
            colors |= arc_colors[p]
        return colors

    def assign(self, i: int, c: int) -> None:
        self.psi[i] = c
        arc_colors = self.arc_colors
        bit = 1 << c
        for p in self.positions[i]:
            arc_colors[p] |= bit

    def unassign(self, subtrees: Iterable[int]) -> None:
        psi = self.psi
        arc_colors = self.arc_colors
        positions = self.positions
        for i in subtrees:
            bit = 1 << psi.pop(i)
            for p in positions[i]:
                arc_colors[p] ^= bit

    def assign_first_fit(self, queue: Iterable[int], partner: dict[int, int]) -> None:
        """Color each still-uncolored subtree of `queue` first-fit, in order.

        A subtree q with an entry s in `partner` takes, together with s,
        the smallest positive color on no arc of either (the two share no
        arc), set as `psi[q]` and then `psi[s]`; any other q takes the
        smallest positive color on no arc of its own.  Subtrees that
        already have a color, such as a partner colored with its pair,
        are skipped.
        """
        psi = self.psi
        arc_colors = self.arc_colors
        positions = self.positions
        for q in queue:
            if q in psi:
                continue
            s = partner.get(q)
            ps = positions[q] if s is None else positions[q] + positions[s]
            taken = 1
            for p in ps:
                taken |= arc_colors[p]
            bit = ~taken & (taken + 1)
            for p in ps:
                arc_colors[p] |= bit
            c = bit.bit_length() - 1
            psi[q] = c
            if s is not None:
                psi[s] = c


def process_edge_simple(state: ArcColors, queue: Sequence[int]) -> None:
    """Color every subtree in `queue` first-fit, in ascending index order."""
    state.assign_first_fit(queue, {})


def _reuse_graph(
    state: ArcColors, left: Sequence[int], right: Sequence[int]
) -> BipartiteGraph:
    """Pairs of two sides of one host edge that may share a color.

    `left` and `right` are ascending subtrees on the (min,max) and on the
    (max,min) arc.  The result is the complement of the conflict graph
    restricted to them, without the pairs that must not be merged:
    two colored subtrees with different colors, and uncolored/colored
    pairs where the colored one's color already sits on an arc of the
    uncolored one.  Each row of the complement is ANDed with the mask of
    the right positions its left may share with: a direction is a clique,
    so at most one colored right carries each color (`colored_at`); the
    uncolored rights form one mask; and `near[c]` holds the uncolored
    rights whose arcs carry color c, for the colors of colored lefts.
    """
    psi = state.psi
    left_colors = 0
    for i in left:
        if i in psi:
            left_colors |= 1 << psi[i]
    colored_at: dict[int, int] = {}
    near: dict[int, int] = {}
    right_colors = uncolored = 0
    for rp, j in enumerate(right):
        bit = 1 << rp
        c = psi.get(j)
        if c is not None:
            colored_at[c] = bit
            right_colors |= 1 << c
            continue
        uncolored |= bit
        m = state.colors_on(j) & left_colors if left_colors else 0
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            near[c] = near.get(c, 0) | bit
    rows = []
    for i, row in zip(left, _complement_rows(state.inst, left, right)):
        c = psi.get(i)
        if c is not None:
            row &= colored_at.get(c, 0) | (uncolored & ~near.get(c, 0))
        else:
            m = state.colors_on(i) & right_colors
            while m:
                row &= ~colored_at[(m & -m).bit_length() - 1]
                m &= m - 1
        rows.append(row)
    return BipartiteGraph(tuple(left), tuple(right), tuple(rows))


def _color_matched(
    state: ArcColors, queue: Sequence[int], bip: BipartiteGraph
) -> None:
    """Color `queue` from a maximum matching of the reuse graph `bip`.

    A queued subtree matched to a colored one inherits its color; two
    matched queued subtrees take one shared minimal feasible color;
    unmatched ones go first-fit.  Ascending index order throughout.
    Each subtree of `bip` is colored or queued, and a queued partner
    stays uncolored through the inherit pass, so `s in psi` there picks
    out the partners colored before the round.
    """
    partner: dict[int, int] = {}
    for lp, rp in max_bipartite_matching(bip).pairs:
        i, j = bip.left[lp], bip.right[rp]
        partner[i] = j
        partner[j] = i
    psi = state.psi
    for q in queue:
        s = partner.get(q)
        if s is not None and s in psi:
            state.assign(q, psi[s])
    state.assign_first_fit(queue, partner)


def process_edge_1(
    state: ArcColors, queue: Sequence[int], edge: tuple[int, int]
) -> None:
    """First type-4 scheme: reuse colors already present on the edge itself.

    `queue` must hold every uncolored subtree on the edge, as the round
    loop's queue does, so the edge's whole population is colored or
    queued.  Matches that population in the reuse graph and colors the
    queue from that matching.
    """
    bip = _reuse_graph(state, *edge_sides(state.inst, *edge))
    _color_matched(state, queue, bip)


def process_edge_2(
    state: ArcColors, queue: Sequence[int], u: int, v: int, x: int
) -> None:
    """Second type-4 scheme: reuse colors from the unprocessed fork edge.

    Builds the reuse graph on the {u,x} population, restricted to queued
    subtrees present there plus subtrees colored on {u,x} but not on
    {u,v}.  Queued subtrees on {u,x} are colored from that matching
    first; every other queued subtree then goes first-fit.  When no queued
    subtree is on {u,x} the matching would color nothing, so neither the
    graph nor the matching is built.  On seed-1 `color-large` that holds
    in 643 of 2,369 fork rounds, 1 of them outside the `scheme_choices`
    replay.
    """
    psi = state.psi
    qset = set(queue)
    uv_fwd, uv_bwd = edge_sides(state.inst, u, v)
    on_uv = set(uv_fwd + uv_bwd)
    fwd, bwd = edge_sides(state.inst, u, x)
    left = [i for i in fwd if (i in psi and i not in on_uv) or i in qset]
    right = [i for i in bwd if (i in psi and i not in on_uv) or i in qset]
    on_ux = sorted(i for i in left + right if i in qset)
    if on_ux:
        _color_matched(state, on_ux, _reuse_graph(state, left, right))
    state.assign_first_fit(queue, {})


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
    """The coloring, one `RoundState` per round and one `SchemeChoice` per
    fork round.

    `contested` holds the choices of the fork rounds where scheme 1
    opened a color, so both schemes ran.  In every other fork round
    scheme 1 ended at the colors already in use, which scheme 2 cannot
    beat, so it was committed without running scheme 2.
    `scheme_choices` fills in those rounds' scheme 2 counts on first
    read, by replaying `trace` on the run's `instance`.
    """

    coloring: Coloring
    trace: tuple[RoundState, ...]
    contested: tuple[SchemeChoice, ...]
    instance: Instance

    @cached_property
    def scheme_choices(self) -> tuple[SchemeChoice, ...]:
        """Every fork round's choice, in round order.

        A color never changes after its round, so before round r the
        state is the subtrees colored in earlier rounds with their final
        colors.  The replay rebuilds it round by round and runs scheme 2
        on each fork round missing from `contested`, whose x is the far
        end of the next round's edge (`bfs_edge_order`).
        """
        contested = {ch.round: ch for ch in self.contested}
        final = self.coloring.assignment
        state = ArcColors(self.instance)
        choices: list[SchemeChoice] = []
        used = 0
        for rs in self.trace:
            queue = rs.newly_colored
            if rs.kind == 4:
                choice = contested.get(rs.round)
                if choice is None:
                    process_edge_2(state, queue, *rs.edge, self.trace[rs.round].edge[1])
                    c2 = max([used, *[state.psi[q] for q in queue]])
                    state.unassign(queue)
                    choice = SchemeChoice(rs.round, rs.edge, 1, used, c2)
                choices.append(choice)
            for q in queue:
                state.assign(q, final[q])
            used = rs.colors_used_after
        return tuple(choices)


def greedy_color(inst: Instance, root: int = 0) -> GreedyResult:
    """Run the full round-based colorer from the given BFS root.

    Requires host tree degree <= 3, which `bfs_edge_order` checks.
    Deterministic: identical instance and root always produce an
    identical result.
    """
    order = bfs_edge_order(inst.tree, root)
    state = ArcColors(inst)
    trace: list[RoundState] = []
    contested: list[SchemeChoice] = []
    psi = state.psi
    # The colors in use are always 1..used: a subtree inherits a color in
    # use or takes a first fit, at most one above the largest color in use.
    used = 0
    for i, (u, v) in enumerate(order.edges, 1):
        kind = classify_edge(order, i)
        fwd, bwd = edge_sides(inst, u, v)
        queue = tuple(j for j in sorted(fwd + bwd) if j not in psi)
        if kind == 4:
            process_edge_1(state, queue, (u, v))
            scheme1 = [psi[q] for q in queue]
            c1 = max([used, *scheme1])
            if c1 > used:  # scheme 2 never ends below used: only now can it win
                state.unassign(queue)
                process_edge_2(state, queue, u, v, order.edges[i][1])
                c2 = max([used, *[psi[q] for q in queue]])
                if c1 <= c2:
                    state.unassign(queue)
                    for q, c in zip(queue, scheme1):
                        state.assign(q, c)
                contested.append(SchemeChoice(i, (u, v), 1 if c1 <= c2 else 2, c1, c2))
        else:
            process_edge_simple(state, queue)
        used = max([used, *[psi[q] for q in queue]])
        trace.append(RoundState(i, (u, v), queue, used, kind))
    return GreedyResult(Coloring(psi), tuple(trace), tuple(contested), inst)
