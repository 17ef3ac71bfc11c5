"""Independent brute-force oracles used only by the tests.

Nothing here shares code with the package: collisions are rescanned from
arc lists, chromatic numbers come from exhaustive backtracking,
cliques from subset enumeration, matchings from take/skip recursion on
the edge list or from memoized exhaustive search, and bipartiteness from
BFS 2-coloring.  Keep it that way; these exist to certify the fast paths.
The exceptions are references for fast paths that must reproduce an
earlier form exactly: `kuhn_recursive`, `dsatur_recursive` and
`clique_recursive`, the recursive forms of the package's matching,
chromatic and clique searches, whose results the package must equal;
`reuse_graph_reference`, the greedy's reuse graph built from the checked
`edge_complement_bipartite`; and `tree_edges_reference`, the generator's
tree drawn by rescanning every earlier vertex.  `collide`,
`subtrees_on_arc` and `induced` are small helpers that only the tests
need; `graph_of`/`neighbors` and `bipartite_of`/`edges_of` convert the
package's bitmask rows to and from adjacency and edge lists.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from treewave import (
    Arc,
    BipartiteGraph,
    ConflictGraph,
    InputError,
    LimitError,
    edge_complement_bipartite,
)
from treewave.bounds import _color_bound, _first_fit, _greedy_clique
from treewave.rng import XorShift64Star

BRUTE_FORCE_GUARD = 24


def collide(a, b) -> bool:
    """True iff the two subtrees share a directed edge.

    Sharing an undirected link in opposite directions is not a collision;
    the fibers are unidirectional.
    """
    return not a.arc_set.isdisjoint(b.arc_set)


def subtrees_on_arc(inst, arc) -> tuple[int, ...]:
    """Ascending indices of subtrees present on one directed edge."""
    t, h = arc
    if not inst.tree.has_edge(t, h):
        raise InputError(f"({t},{h}) is not an edge of the host tree")
    return inst.per_arc_index.get(Arc(t, h), ())


def graph_of(adjacency) -> ConflictGraph:
    """Conflict graph whose row i has the bits of ``adjacency[i]``."""
    return ConflictGraph(tuple(sum(1 << j for j in set(nbrs)) for nbrs in adjacency))


def neighbors(g: ConflictGraph, i: int) -> list[int]:
    """Ascending positions of the bits set in row i."""
    return [j for j in range(g.n) if g.masks[i] >> j & 1]


def bipartite_of(left, right, edges) -> BipartiteGraph:
    """Bipartite graph whose row lp has bit rp for each (lp, rp) in `edges`."""
    rows = [0] * len(left)
    for lp, rp in edges:
        rows[lp] |= 1 << rp
    return BipartiteGraph(tuple(left), tuple(right), tuple(rows))


def edges_of(g: BipartiteGraph) -> tuple[tuple[int, int], ...]:
    """(left position, right position) pairs of the set bits, ascending."""
    return tuple(
        (lp, rp)
        for lp, row in enumerate(g.rows)
        for rp in range(len(g.right))
        if row >> rp & 1
    )


def induced(g: ConflictGraph, subset) -> ConflictGraph:
    """Subgraph on `subset` (positions renumbered in the given order)."""
    return graph_of(
        [k for k, w in enumerate(subset) if g.masks[v] >> w & 1] for v in subset
    )


def collide_naive(a, b) -> bool:
    return any(arc_a == arc_b for arc_a in a.arcs for arc_b in b.arcs)


def conflict_pairs_naive(inst) -> set[tuple[int, int]]:
    pairs = set()
    n = len(inst.subtrees)
    for i in range(n):
        for j in range(i + 1, n):
            if collide_naive(inst.subtrees[i], inst.subtrees[j]):
                pairs.add((i, j))
    return pairs


def load_naive(inst) -> int:
    best = 0
    for u, v in inst.tree.edges:
        for arc in ((u, v), (v, u)):
            count = sum(1 for s in inst.subtrees if tuple(arc) in {tuple(a) for a in s.arcs})
            best = max(best, count)
    return best


def on_arc_naive(inst, arc) -> list[int]:
    t, h = arc
    return [
        i
        for i, s in enumerate(inst.subtrees)
        if any(a.tail == t and a.head == h for a in s.arcs)
    ]


def coloring_valid_naive(inst, colors: dict[int, int]) -> bool:
    for i, j in conflict_pairs_naive(inst):
        if colors[i] == colors[j]:
            return False
    return True


def first_fit_naive(inst, colors: dict[int, int], *subtrees: int) -> int:
    """Smallest positive color used by no colored subtree that collides
    with one of `subtrees`."""
    forbidden = {
        c
        for j, c in colors.items()
        if any(collide_naive(inst.subtrees[i], inst.subtrees[j]) for i in subtrees)
    }
    c = 1
    while c in forbidden:
        c += 1
    return c


def bfs_two_colorable(n: int, edges) -> bool:
    """2-colorability by BFS, ignoring any declared bipartition."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    side = [-1] * n
    for start in range(n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def brute_chromatic(n: int, pairs) -> int:
    """Minimum colors by exhaustive backtracking; fine up to ~12 vertices."""
    if n == 0:
        return 0
    adj = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)

    def colorable(k: int) -> bool:
        colors = [0] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            for c in range(1, k + 1):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = 0
            return False

        return go(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def brute_clique(n: int, pairs) -> int:
    """Maximum clique by subset enumeration; fine up to ~14 vertices."""
    edges = set(pairs)
    best = 1 if n else 0
    for size in range(2, n + 1):
        found = False
        for combo in itertools.combinations(range(n), size):
            if all(
                (a, b) in edges or (b, a) in edges
                for a, b in itertools.combinations(combo, 2)
            ):
                best = size
                found = True
                break
        if not found:
            break
    return best


def brute_matching(n_left: int, n_right: int, edges) -> int:
    """Maximum matching by take/skip recursion over the edge list."""
    edge_list = sorted(edges)

    def go(k: int, used_l: frozenset, used_r: frozenset) -> int:
        if k == len(edge_list):
            return 0
        best = go(k + 1, used_l, used_r)
        l, r = edge_list[k]
        if l not in used_l and r not in used_r:
            best = max(best, 1 + go(k + 1, used_l | {l}, used_r | {r}))
        return best

    return go(0, frozenset(), frozenset())


def brute_force_matching_size(g) -> int:
    """Exact maximum matching size by exhaustive search.

    Memoized on (left position, set of used right positions); guarded to
    at most 24 total vertices.
    """
    n_l, n_r = len(g.left), len(g.right)
    if n_l + n_r > BRUTE_FORCE_GUARD:
        raise LimitError(
            f"brute-force matching limited to {BRUTE_FORCE_GUARD} vertices, got {n_l + n_r}"
        )
    adj: list[list[int]] = [[] for _ in range(n_l)]
    for lp, rp in edges_of(g):
        adj[lp].append(rp)
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == n_l:
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        res = best(i + 1, used)
        for r in adj[i]:
            if not (used >> r) & 1:
                cand = 1 + best(i + 1, used | (1 << r))
                if cand > res:
                    res = cand
        memo[key] = res
        return res

    return best(0, 0)


def kuhn_recursive(g) -> tuple[tuple[int, int], ...]:
    """Kuhn's augmenting-path matching written recursively.

    Left positions in ascending order, neighbors in ascending right
    position; returns the (left, right) pairs in left order.  Recursion
    depth is the augmenting path length, so keep inputs small.
    """
    adj: list[list[int]] = [[] for _ in range(len(g.left))]
    for lp, rp in edges_of(g):
        adj[lp].append(rp)
    match_l = [-1] * len(g.left)
    match_r = [-1] * len(g.right)

    def augment(l: int, visited: list[bool]) -> bool:
        for r in adj[l]:
            if not visited[r]:
                visited[r] = True
                if match_r[r] == -1 or augment(match_r[r], visited):
                    match_r[r] = l
                    match_l[l] = r
                    return True
        return False

    for l in range(len(g.left)):
        augment(l, [False] * len(g.right))
    return tuple((l, r) for l, r in enumerate(match_l) if r != -1)


def reuse_graph_reference(state, edge, members) -> BipartiteGraph:
    """The greedy's reuse graph as first written: the checked complement of
    one edge's population, then a second pass dropping the pairs that may
    not share a color (two colored with different colors; an uncolored one
    whose arcs already carry the colored one's color)."""
    base = edge_complement_bipartite(state.inst, edge, members)
    psi = state.psi
    kept = []
    for lp, rp in edges_of(base):
        i, j = base.left[lp], base.right[rp]
        ci, cj = psi.get(i), psi.get(j)
        if ci is not None and cj is not None:
            if ci != cj:
                continue
        elif ci is not None or cj is not None:
            q, c = (j, ci) if ci is not None else (i, cj)
            if any(c in state.arc_colors[a] for a in state.inst.subtrees[q].arcs):
                continue
        kept.append((lp, rp))
    return bipartite_of(base.left, base.right, kept)


def dsatur_recursive(n: int, masks: Sequence[int]) -> tuple[int, list[int]]:
    """The package's exact chromatic search as first written, recursing once
    per colored vertex; keep inputs small.

    Branch and bound: a greedy clique gives the initial lower bound and is
    pre-colored 1..k to break color symmetry; first-fit gives the initial
    upper bound and witness; vertices are then chosen by maximum
    saturation (distinct neighbor colors), degree and lowest index
    breaking ties, and a branch is cut as soon as it cannot use fewer
    colors than the incumbent.
    """
    if n == 0:
        return 0, []
    clique = _greedy_clique(n, masks)
    lb = len(clique)
    ff = _first_fit(n, masks)
    ub = max(ff)
    if lb == ub:
        return ub, ff
    colors = [0] * n
    for i, v in enumerate(clique):
        colors[v] = i + 1
    degrees = [bin(masks[v]).count("1") for v in range(n)]
    incumbent = [ub, ff]
    _dsatur_branch_recursive(masks, degrees, colors, lb, lb, incumbent)
    return incumbent[0], incumbent[1]


def _dsatur_branch_recursive(
    masks: Sequence[int],
    degrees: Sequence[int],
    colors: list[int],
    colored: int,
    used: int,
    incumbent: list,
) -> None:
    """Search below the partial `colors`, replacing ``incumbent = [best
    count, witness]`` on finding fewer colors."""
    n = len(colors)
    if used >= incumbent[0]:
        return
    if colored == n:
        incumbent[:] = [used, list(colors)]
        return
    # pick the uncolored vertex with max (saturation, degree), min index
    pick = -1
    pick_sat = -1
    pick_deg = -1
    for v in range(n):
        if colors[v]:
            continue
        seen = 0
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if colors[u]:
                seen |= 1 << (colors[u] - 1)
        sat = bin(seen).count("1")
        if sat > pick_sat or (sat == pick_sat and degrees[v] > pick_deg):
            pick_sat = sat
            pick_deg = degrees[v]
            pick = v
    forbidden = 0
    m = masks[pick]
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        if colors[u]:
            forbidden |= 1 << (colors[u] - 1)
    top = used + 1
    if top > incumbent[0] - 1:
        top = incumbent[0] - 1
    for c in range(1, top + 1):
        if forbidden & (1 << (c - 1)):
            continue
        colors[pick] = c
        _dsatur_branch_recursive(
            masks, degrees, colors, colored + 1, used if c <= used else c, incumbent
        )
        colors[pick] = 0


def clique_recursive(n: int, masks: Sequence[int]) -> int:
    """The package's exact clique search as first written, recursing once
    per clique vertex.

    Candidates are consumed in ascending index order so each clique is
    enumerated once; subtrees of the search are cut with the greedy
    coloring bound and the remaining-candidate count.
    """
    if n == 0:
        return 0
    return _clique_expand_recursive(masks, (1 << n) - 1, 0, 0)


def _clique_expand_recursive(
    masks: Sequence[int], cand: int, size: int, best: int
) -> int:
    """Extend a clique of `size` by the vertices of `cand`; returns the
    largest clique size known afterwards (at least `best`)."""
    while cand:
        if size + bin(cand).count("1") <= best:
            return best
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        new_size = size + 1
        if new_size > best:
            best = new_size
        sub = cand & masks[v]
        if sub and new_size + _color_bound(sub, masks) > best:
            best = _clique_expand_recursive(masks, sub, new_size, best)
    return best


def tree_edges_reference(p) -> list[tuple[int, int]]:
    """The generator's tree edges drawn as first written: vertex k joins a
    uniformly random earlier vertex with spare degree, found by rescanning
    all earlier vertices.  Quadratic in the vertex count."""
    rng = XorShift64Star(p.seed)
    edges = []
    degree = [0] * p.num_vertices
    for k in range(1, p.num_vertices):
        candidates = [v for v in range(k) if degree[v] < p.max_degree]
        parent = candidates[rng.below(len(candidates))]
        edges.append((parent, k))
        degree[parent] += 1
        degree[k] += 1
    return edges
