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
`first_fit_reference`, the whole-graph first-fit the χ search once ran,
whose colors the package's first-fit classes must equal;
`reuse_graph_reference`, the greedy's reuse graph built from the checked
`edge_complement_bipartite`; `validate_subtree_reference`, the subtree
validator as first written; `tree_edges_reference`, the generator's
tree drawn by rescanning every earlier vertex; and
`classify_edge_reference`, the round classifier as first written, which
rebuilds each round's sibling lists from the edges' round positions and
records the paper's w and x at each fork (`RoundType`); and
`greedy_reference`, the whole greedy as it was when its digest was
recorded, whose colorings, traces and scheme choices the package must
equal.
`labeled_trees` enumerates every labeled tree on n vertices.  `collide`,
`host_arcs`, `subtrees_on_arc`, `subtrees_on_edge` and `induced` are
small helpers that only the tests need; `graph_of`/`neighbors` and
`bipartite_of`/`edges_of` convert the package's bitmask rows to and from
adjacency and edge lists.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from treewave import (
    BipartiteGraph,
    ConflictGraph,
    HostTree,
    InputError,
    InternalError,
    LimitError,
    edge_complement_bipartite,
)
from treewave.bounds import _first_fit_classes, _greedy_clique
from treewave.instances import ValidationReport, edge_key
from treewave.rng import XorShift64Star

BRUTE_FORCE_GUARD = 24


def collide(a, b) -> bool:
    """True iff the two subtrees share a directed edge.

    Sharing an undirected link in opposite directions is not a collision;
    the fibers are unidirectional.
    """
    return not set(a.arcs).isdisjoint(b.arcs)


def host_arcs(tree) -> set[tuple[int, int]]:
    """Both arcs of every host edge, rebuilt from the edge list."""
    return {arc for u, v in tree.edges for arc in ((u, v), (v, u))}


def subtrees_on_arc(inst, arc) -> tuple[int, ...]:
    """Ascending indices of subtrees present on one directed edge."""
    t, h = arc
    if (t, h) not in host_arcs(inst.tree):
        raise InputError(f"({t},{h}) is not an edge of the host tree")
    return inst.arc_members[inst.tree.arc_position[t, h]]


def subtrees_on_edge(inst, edge) -> tuple[int, ...]:
    """Ascending indices of subtrees present on either direction of an edge."""
    u, v = edge
    return tuple(sorted(subtrees_on_arc(inst, (u, v)) + subtrees_on_arc(inst, (v, u))))


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
            if any(state.arc_colors[p] >> c & 1 for p in state.inst.arc_positions[q]):
                continue
        kept.append((lp, rp))
    return bipartite_of(base.left, base.right, kept)


def first_fit_reference(n: int, masks: Sequence[int]) -> list[int]:
    """First-fit coloring in index order; colors are 1-based."""
    colors = [0] * n
    for v in range(n):
        used = 0
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if colors[u]:
                used |= 1 << (colors[u] - 1)
        c = 1
        while used & (1 << (c - 1)):
            c += 1
        colors[v] = c
    return colors


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
    ff = first_fit_reference(n, masks)
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
        if sub and new_size + len(_first_fit_classes(sub, masks)) > best:
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


def validate_subtree_reference(tree, s) -> ValidationReport:
    """The package's subtree validator as first written: a host-arc lookup
    and `edge_key` per arc, and the vertex set rebuilt from root and arcs."""
    arcs = host_arcs(tree)
    violations: list[str] = []
    if not s.arcs:
        violations.append("subtree has no arcs (requests must occupy a fiber link)")
        return ValidationReport(False, tuple(violations))
    skeleton: set[tuple[int, int]] = set()
    indeg: dict[int, int] = {}
    for t, h in s.arcs:
        if t == h:
            violations.append(f"arc ({t},{h}) is a self-loop")
            continue
        if (t, h) not in arcs:
            violations.append(f"arc ({t},{h}) is not a host tree edge")
        k = edge_key(t, h)
        if k in skeleton:
            violations.append(f"skeleton edge {k} used twice")
        skeleton.add(k)
        indeg[h] = indeg.get(h, 0) + 1
        indeg.setdefault(t, 0)
    if violations:
        return ValidationReport(False, tuple(violations))
    vertex_set = {s.root}
    for a in s.arcs:
        vertex_set.add(a.tail)
        vertex_set.add(a.head)
    touched = set(indeg)
    if s.root not in touched:
        violations.append(f"root {s.root} not touched by any arc")
    if indeg.get(s.root, 0) != 0:
        violations.append(f"root {s.root} has in-degree {indeg.get(s.root, 0)}")
    for v in sorted(touched):
        if v != s.root and indeg.get(v, 0) != 1:
            violations.append(f"vertex {v} has in-degree {indeg.get(v, 0)}, expected 1")
    # connected + acyclic: |arcs| = |vertices| - 1 and every vertex reachable
    # from the root along arc directions.
    if len(s.arcs) != len(vertex_set) - 1:
        violations.append("skeleton is not a tree (arc/vertex count mismatch)")
    else:
        out: dict[int, list[int]] = {}
        for t, h in s.arcs:
            out.setdefault(t, []).append(h)
        reached = {s.root}
        stack = [s.root]
        while stack:
            u = stack.pop()
            for w in out.get(u, ()):
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if reached != vertex_set:
            violations.append("skeleton not connected from root along arc directions")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def labeled_trees(n: int):
    """Every labeled tree on n >= 2 vertices, decoded from its Prüfer sequence."""
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(u for u in range(n) if degree[u] == 1))
        yield HostTree.of(n, edges)


class RoundType(NamedTuple):
    """One round's type by the paper's definition: its kind and, for kind
    4 only, w and x, the far ends of the processed and of the pending
    sibling edge at the fork."""

    kind: int
    w: int | None = None
    x: int | None = None


def classify_edge_reference(tree, edges) -> list[RoundType]:
    """Type of every round of the BFS-ordered `edges`, classified as first
    written: each round's siblings at its earlier endpoint u are split
    into processed (earlier round) and pending by looking up the round
    position of each sibling edge, stored under both of its directions."""
    position = {}
    for k, (u, v) in enumerate(edges, 1):
        position[u, v] = position[v, u] = k
    types = []
    for i, (u, v) in enumerate(edges, 1):
        done, pending = [], []
        for n in tree.adjacency[u]:
            if n != v:
                (done if position[u, n] < i else pending).append(n)
        degree_u = len(tree.adjacency[u])
        if not done:
            if i != 1:
                raise InternalError(f"round {i}: no processed edge at vertex {u}")
            types.append(RoundType(1))
        elif degree_u == 2 and len(done) == 1:
            types.append(RoundType(2))
        elif degree_u == 3 and len(done) == 2:
            types.append(RoundType(3))
        elif degree_u == 3 and len(done) == 1:
            types.append(RoundType(4, w=done[0], x=pending[0]))
        else:
            raise InternalError(
                f"round {i}: cannot classify edge ({u},{v}), degree {degree_u}"
            )
    return types


def greedy_reference(inst, root: int = 0):
    """The whole round-based greedy as it was when its digest was recorded:
    a conflict graph of neighbour lists, first-fit from each subtree's
    colored neighbours, and each fork round's two schemes run on `dict`
    copies of the coloring, scheme 1 winning ties.  Built on the oracles
    here (`collide_naive`, `kuhn_recursive`, `classify_edge_reference`),
    so it shares no code with the package's greedy.

    Returns the final coloring, each round's (kind, edge, newly colored,
    colors used after) and each fork round's (round, edge, chosen scheme,
    scheme 1 colors, scheme 2 colors).
    """
    tree, subtrees = inst.tree, inst.subtrees
    seen, order, edges = {root}, [root], []
    for u in order:
        for w in tree.adjacency[u]:
            if w not in seen:
                seen.add(w)
                edges.append((u, w))
                order.append(w)
    on_arc: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(subtrees):
        for t, h in s.arcs:
            on_arc.setdefault((t, h), []).append(i)
    adjacency = [
        sorted({j for t, h in s.arcs for j in on_arc[t, h]} - {i})
        for i, s in enumerate(subtrees)
    ]

    def on_edge(u, v):
        return sorted(on_arc.get((u, v), []) + on_arc.get((v, u), []))

    def neighbour_colors(psi, *group):
        return {psi[t] for q in group for t in adjacency[q] if t in psi}

    def first_fit(psi, *group):
        forbidden = neighbour_colors(psi, *group)
        c = 1
        while c in forbidden:
            c += 1
        return c

    def partners(psi, colored, edge, members):
        a, b = min(edge), max(edge)
        forward = set(on_arc.get((a, b), []))
        left = [i for i in members if i in forward]
        right = [i for i in members if i not in forward]
        near = {q: neighbour_colors(psi, q) for q in members if q not in colored}
        kept = []
        for lp, i in enumerate(left):
            for rp, j in enumerate(right):
                if collide_naive(subtrees[i], subtrees[j]):
                    continue
                if i in colored and j in colored:
                    if psi[i] != psi[j]:
                        continue
                elif i in colored or j in colored:
                    q, p = (j, i) if i in colored else (i, j)
                    if psi[p] in near[q]:
                        continue
                kept.append((lp, rp))
        partner = {}
        for lp, rp in kuhn_recursive(bipartite_of(left, right, kept)):
            partner[left[lp]] = right[rp]
            partner[right[rp]] = left[lp]
        return partner

    def color_matched(psi, colored, queue, partner):
        for q in queue:
            s = partner.get(q)
            if s is not None and s in colored:
                psi[q] = psi[s]
        for q in queue:
            if q in psi:
                continue
            s = partner.get(q)
            if s is not None and s not in colored:
                psi[q] = psi[s] = first_fit(psi, q, s)
            else:
                psi[q] = first_fit(psi, q)

    def scheme_1(psi, queue, edge):
        colored, qset = frozenset(psi), set(queue)
        members = [i for i in on_edge(*edge) if i in colored or i in qset]
        color_matched(psi, colored, queue, partners(psi, colored, edge, members))

    def scheme_2(psi, queue, u, v, x):
        colored, qset = frozenset(psi), set(queue)
        on_ux = on_edge(u, x)
        colored_uv = {i for i in on_edge(u, v) if i in colored}
        members = [
            i for i in on_ux if (i in colored and i not in colored_uv) or i in qset
        ]
        partner = partners(psi, colored, (u, x), members)
        on_ux_set = set(on_ux)
        color_matched(psi, colored, [q for q in queue if q in on_ux_set], partner)
        for q in queue:
            if q not in psi:
                psi[q] = first_fit(psi, q)

    psi: dict[int, int] = {}
    rounds, choices = [], []
    for i, ((u, v), et) in enumerate(zip(edges, classify_edge_reference(tree, edges)), 1):
        queue = tuple(j for j in on_edge(u, v) if j not in psi)
        if et.kind == 4:
            psi1, psi2 = dict(psi), dict(psi)
            scheme_1(psi1, queue, (u, v))
            scheme_2(psi2, queue, u, v, et.x)
            c1, c2 = len(set(psi1.values())), len(set(psi2.values()))
            psi = psi1 if c1 <= c2 else psi2
            choices.append((i, (u, v), 1 if c1 <= c2 else 2, c1, c2))
        else:
            for q in queue:
                psi[q] = first_fit(psi, q)
        rounds.append((et.kind, (u, v), queue, len(set(psi.values()))))
    return psi, rounds, choices
