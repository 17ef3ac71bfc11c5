"""Independent brute-force oracles used only by the tests.

Nothing here shares code with the package: collisions are rescanned from
arc lists, chromatic numbers come from exhaustive backtracking,
cliques from subset enumeration, matchings from take/skip recursion on
the edge list or from memoized exhaustive search, and bipartiteness from
BFS 2-coloring.  Keep it that way; these exist to certify the fast paths.
The exceptions are references for fast paths that must reproduce an
earlier form exactly: `kuhn_recursive`, the recursive form of the
package's matching search, whose pairs the package must equal, and
`reuse_graph_reference`, the greedy's reuse graph built from the checked
`edge_complement_bipartite`.
"""

from __future__ import annotations

import itertools

from treewave import BipartiteGraph, LimitError, edge_complement_bipartite

BRUTE_FORCE_GUARD = 24


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
    for lp, rp in sorted(g.edges):
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
    for lp, rp in sorted(g.edges):
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
    for lp, rp in base.edges:
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
    return BipartiteGraph(base.left, base.right, tuple(kept))
