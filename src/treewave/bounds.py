"""Lower bounds, load normalization, and exact oracles.

Normalization pads an instance with single-arc subtrees until every
directed edge carries exactly the load, so analysis and certification
can assume uniform arc populations.

The conflict graph restricted to one host edge is the complement of a
bipartite graph, so its chromatic number is exactly (population size)
minus (maximum matching in the complement, counted by
`matching._matching_size`); maximized over edges this gives the
certified lower bound.  `_edge_bound` counts it from either row source:
`compute_bounds` under its size guard reads each edge's complement rows
from the conflict graph it builds for the exact oracles anyway; over the
guard, and in `edge_lower_bound` and `global_lower_bound`, they come
from arc positions (`_complement_rows`) and no graph is built.  The
`bound` command and the bench runner both report `compute_bounds`.  A
complement of a bipartite graph is perfect, so each per-edge bound is
also the size of a clique, and the global bound is a floor for the
clique number.  Exact chromatic number and clique number come from small
branch-and-bound oracles behind explicit size guards.  The χ search
stops at its first coloring with as many colors as a known clique has
members, and searches for the clique number only when its first descent
does not reach one.

Padding to the load L changes neither χ nor the global lower bound, so
both can be computed on the smaller, unpadded instance:

- χ: a padding subtree has L - 1 neighbors (the rest of its arc) and
  χ >= L, so it always finds a free color.
- lower bound: on an edge with sides a + d_a = b + d_b = L after
  padding, the padded complement's maximum matching is min(L, ν + d_a +
  d_b) for the unpadded one's ν, so the padded edge bound is max(L,
  unpadded edge bound); the unpadded global bound is already at least
  L, since each side of an edge is a clique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .conflict import ConflictGraph, _complement_rows, build_conflict_graph
from .greedy import ArcColors
from .instances import (
    Coloring,
    Instance,
    LimitError,
    RootedSubtree,
    edge_key,
    edge_sides,
    load,
)
from .matching import _matching_size

ORACLE_GUARD = 30


@dataclass(frozen=True)
class NormalizedInstance:
    """Instance padded so every directed edge carries exactly the load.

    The first `original_count` subtrees are the originals, in order;
    everything after is padding, one single-arc subtree per unit of
    deficit.
    """

    padded: Instance
    original_count: int

    @property
    def padding_count(self) -> int:
        return self.padded.size - self.original_count


def normalize(inst: Instance) -> NormalizedInstance:
    """Pad with single-arc subtrees (rooted at the arc tail) until uniform.

    Padding is appended in arc position order (`HostTree.arcs`): edges in
    input order, (min,max) before (max,min).  `inst` is already validated
    and a single-arc subtree rooted at its tail is valid, so the padded
    instance is built unchecked, with both arc tables extended from the
    original's: each arc's padding takes the next subtree indices in
    order, and all padding on one arc shares one position tuple.
    """
    target = load(inst)
    padding: list[RootedSubtree] = []
    members = list(inst.arc_members)
    positions = list(inst.arc_positions)
    for p, arc in enumerate(inst.tree.arcs):
        deficit = target - len(members[p])
        if deficit:
            start = inst.size + len(padding)
            members[p] += tuple(range(start, start + deficit))
            padding.extend([RootedSubtree(arc.tail, (arc,))] * deficit)
            positions.extend([(p,)] * deficit)
    padded = Instance._trusted(
        inst.tree, inst.subtrees + tuple(padding), tuple(members), tuple(positions)
    )
    return NormalizedInstance(padded, inst.size)


def edge_lower_bound(inst: Instance, edge: Sequence[int]) -> int:
    """Colors needed for the subtrees on one host edge alone.

    This is exact: each direction is a clique, color classes in the
    restriction have size at most 2, and classes of size 2 are exactly
    matched pairs in the bipartite complement.  The population comes from
    one `edge_sides` read, which rejects a non-edge; `_edge_bound` counts
    the colors from it."""
    return _edge_bound(inst, *edge_sides(inst, *edge), None)


def _edge_bound(
    inst: Instance, fwd: Sequence[int], bwd: Sequence[int], masks: Sequence[int] | None
) -> int:
    """`edge_lower_bound` of the edge with sides `fwd` and `bwd`.

    With one side empty nothing can be matched, so the bound is the
    population (0 on an unused edge).  Otherwise only the size of a
    maximum matching in the complement is counted: its rows come from
    `_complement_rows`, by arc position, or, given the conflict graph's
    `masks`, are ``R & ~masks[i]`` for R the mask of `bwd`'s subtree
    indices, in the same order, so the matching is the same.  Of the
    5,958 host edges of the seed-1 `sweep` items, 3,449 have an empty
    side, 1,962 read the graph and 547 arc positions."""
    if not fwd or not bwd:
        return len(fwd) + len(bwd)
    if masks is None:
        rows = _complement_rows(inst, fwd, bwd)
        right = (1 << len(bwd)) - 1
    else:
        right = 0
        for j in bwd:
            right |= 1 << j
        rows = [right & ~masks[i] for i in fwd]
    return len(fwd) + len(bwd) - _matching_size(rows, right)


def global_lower_bound(inst: Instance) -> int:
    """Best per-edge lower bound over all host edges."""
    return max(
        (edge_lower_bound(inst, (u, v)) for u, v in inst.tree.edges), default=0
    )


# Exact-oracle kernels.  Graphs arrive as bitmask adjacency rows:
# ``masks[v]`` has bit ``u`` set iff ``{u,v}`` is an edge.  One first-fit
# routine serves both searches: on the whole graph it gives the χ search's
# upper bound and witness, on a candidate set the clique search's bound.
# Every tie-break is deliberate: lowest index wins among equals, so
# results, witnesses included, are reproducible everywhere.


def _greedy_clique(n: int, masks: Sequence[int]) -> list[int]:
    """Greedy clique: seed with the max-degree vertex, extend by degree
    inside the shrinking candidate set; lowest index breaks ties."""
    best_v = 0
    best_d = -1
    for v in range(n):
        d = masks[v].bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    clique = [best_v]
    cand = masks[best_v]
    while cand:
        pick = -1
        pick_d = -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (masks[v] & cand).bit_count()
            if d > pick_d:
                pick_d = d
                pick = v
        clique.append(pick)
        cand &= masks[pick]
    return clique


def _first_fit_classes(cand: int, masks: Sequence[int]) -> list[int]:
    """First-fit coloring of the vertices in ``cand`` in ascending index:
    each joins the lowest class that holds none of its neighbors.  Returns
    the class masks, class k being color k+1.  On the whole graph this is
    the χ search's upper bound and witness; on a candidate set the class
    count bounds the largest clique inside ``cand``."""
    classes: list[int] = []
    m = cand
    while m:
        bit = m & -m
        m ^= bit
        nbrs = masks[bit.bit_length() - 1]
        for k, members in enumerate(classes):
            if not nbrs & members:
                classes[k] = members | bit
                break
        else:
            classes.append(bit)
    return classes


def _chromatic_number(
    n: int, masks: Sequence[int], floor: int = 0
) -> tuple[int, list[int], int]:
    """Exact chromatic number, an optimal witness (1-based colors) and ω.

    `floor` is the size of a clique known to exist (0 when none is
    known); it never changes the result, only how much work finds it.
    The classes of `_first_fit_classes` on the whole graph give the
    initial upper bound and witness, with class k as color k+1, returned
    as optimal when a clique reaches their count: `floor` (the count is
    then ω, and no clique is built; the empty graph leaves here), or the
    greedy clique.  Past both exits the greedy clique is pre-colored 1..k
    to break color symmetry.  Vertices are then chosen by maximum
    saturation (distinct neighbor colors), degree and lowest index
    breaking ties, and a branch is cut as soon as it cannot use fewer
    colors than the incumbent.  The incumbent only ever improves strictly,
    and no coloring uses fewer colors than a clique has members, so the
    search returns an incumbent as soon as it reaches a known clique's
    size: then known <= ω <= χ <= incumbent, and it is the full search's
    last witness.  The clique known at first is the larger of the greedy
    clique and `floor`; usually the first descent reaches it and no clique
    is searched.  At the first backtrack, if it has not, ω is searched
    once (`_max_clique_size`) and becomes the known size, and an incumbent
    already at ω (first-fit's, or the first descent's) is returned there.
    ω is searched no earlier because most searches never need it, and no
    later because a search whose incumbent is already ω would otherwise
    go on until it is exhausted.  When to stop never changes which
    incumbents are found, or in what order.

    The search is a loop over an explicit stack, so its depth is bounded
    by memory, not by the interpreter's recursion limit.  A frame is
    ``[vertex, colors in use before it, next color]``; colors are tried in
    ascending order, and a color is entered only if it uses at most one
    new color and fewer colors than the incumbent.  Saturation is kept up
    to date rather than rescanned: ``counts[u * width + c]`` is the number
    of u's neighbors holding color c, ``seen[u]`` has bit c-1 set iff that
    count is nonzero, and ``keys[u]`` is ``saturation * n + degree`` for an
    uncolored u (a degree is below n, so the order of keys is the order of
    (saturation, degree)) and -1 for a colored one.  The first maximal key
    is the pick, and its forbidden colors are ``seen`` of it, which no
    deeper frame still touches once the search is back at it.  Coloring
    or uncoloring a vertex updates only its neighbors' entries, which pays
    on `oracle`'s tail: 252 of its 1,000 seed-1 calls reach this phase.
    """
    classes = _first_fit_classes((1 << n) - 1, masks)
    ub = len(classes)
    best = [0] * n
    for k, members in enumerate(classes, 1):
        while members:
            best[(members & -members).bit_length() - 1] = k
            members &= members - 1
    if floor >= ub:
        return ub, best, ub
    clique = _greedy_clique(n, masks)
    lb = len(clique)
    if lb == ub:
        return ub, best, lb
    known = max(lb, floor)
    searched = False
    # colors stay below the first incumbent, so `ub` entries per vertex
    # cover colors 1..ub-1
    width = ub
    colors = [0] * n
    counts = [0] * (n * width)
    seen = [0] * n
    keys = [masks[v].bit_count() for v in range(n)]
    for c, v in enumerate(clique, 1):
        colors[v] = c
        keys[v] = -1
        _shift_color(masks[v], 0, c, width, counts, seen, keys, n)
    stack: list[list[int]] = []
    used = lb
    while True:
        # descend: pick the uncolored vertex with max (saturation, degree),
        # min index
        stack.append([keys.index(max(keys)), used, 1])
        # advance to the next color worth entering, backtracking as needed
        while stack:
            frame = stack[-1]
            pick, used, c = frame
            forbidden = seen[pick]
            top = used + 1 if used + 1 < ub else ub - 1
            while c <= top and forbidden >> (c - 1) & 1:
                c += 1
            old = colors[pick]
            if c > top or used >= ub:
                if old:
                    _shift_color(masks[pick], old, 0, width, counts, seen, keys, n)
                    colors[pick] = 0
                    keys[pick] = forbidden.bit_count() * n + masks[pick].bit_count()
                stack.pop()
                if not searched:
                    searched = True
                    known = _max_clique_size(n, masks, known)
                    if known == ub:
                        return ub, best, known
                continue
            frame[2] = c + 1
            _shift_color(masks[pick], old, c, width, counts, seen, keys, n)
            colors[pick] = c
            keys[pick] = -1
            if c > used:
                used = c
            if lb + len(stack) < n:
                break
            ub, best = used, list(colors)
            if ub == known:
                return ub, best, known
        else:
            return ub, best, known


def _shift_color(
    nbrs: int,
    old: int,
    new: int,
    width: int,
    counts: list[int],
    seen: list[int],
    keys: list[int],
    n: int,
) -> None:
    """Move one vertex from color `old` to color `new` (0: none) in the
    χ search's saturation tables of its neighbors `nbrs`."""
    old_bit = 1 << (old - 1) if old else 0
    new_bit = 1 << (new - 1) if new else 0
    while nbrs:
        u = (nbrs & -nbrs).bit_length() - 1
        nbrs &= nbrs - 1
        base = u * width
        if old:
            i = base + old
            counts[i] -= 1
            if not counts[i]:
                seen[u] ^= old_bit
                if keys[u] >= 0:
                    keys[u] -= n
        if new:
            i = base + new
            counts[i] += 1
            if counts[i] == 1:
                seen[u] |= new_bit
                if keys[u] >= 0:
                    keys[u] += n


def _max_clique_size(n: int, masks: Sequence[int], best: int) -> int:
    """Exact maximum clique size by branch and bound, given the size `best`
    of a clique already known to exist.

    Candidates are consumed in ascending index order so each clique is
    enumerated once; subtrees of the search are cut with the class count
    of `_first_fit_classes` on the candidates and with the
    remaining-candidate count, which only needs to beat `best`.  The
    search is a loop over a stack of ``[candidates, clique size]`` frames.
    """
    stack = [[(1 << n) - 1, 0]]
    while stack:
        frame = stack[-1]
        cand, size = frame
        if not cand or size + cand.bit_count() <= best:
            stack.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        frame[0] = cand & (cand - 1)
        size += 1
        if size > best:
            best = size
        sub = frame[0] & masks[v]
        if sub and size + len(_first_fit_classes(sub, masks)) > best:
            stack.append([sub, size])
    return best


def exact_chromatic(g: ConflictGraph, limit: int = ORACLE_GUARD) -> tuple[int, Coloring]:
    """Exact chromatic number with an optimal witness coloring.

    Branch and bound over DSATUR-style vertex choices with a first-fit
    upper bound; the search stops as soon as a coloring uses no more
    colors than a known clique has members, the greedy clique's or, when
    the first descent does not reach that, the clique number's.  Guarded:
    graphs larger than `limit` are rejected so runs stay reproducible.
    """
    if g.n > limit:
        raise LimitError(f"exact coloring limited to {limit} vertices, got {g.n}")
    chi, colors, _ = _chromatic_number(g.n, g.masks)
    return chi, Coloring(tuple(colors))


def max_clique(g: ConflictGraph, limit: int = ORACLE_GUARD) -> int:
    """Exact maximum clique size (0 for the empty graph), guarded like
    exact_chromatic.  The search starts from the greedy clique's size and
    only looks for larger cliques."""
    if g.n > limit:
        raise LimitError(f"max clique limited to {limit} vertices, got {g.n}")
    if g.n == 0:
        return 0
    return _max_clique_size(g.n, g.masks, len(_greedy_clique(g.n, g.masks)))


def first_fit_baseline(inst: Instance) -> Coloring:
    """Naive comparison baseline: first-fit in input order."""
    state = ArcColors(inst)
    state.assign_first_fit(range(inst.size), {})
    return Coloring(tuple(state.psi))


@dataclass(frozen=True)
class BoundsReport:
    """Everything cheap we know about the colors an instance needs;
    `exact_witness` is an optimal coloring, present when χ is."""

    load: int
    per_edge_bound: Mapping[tuple[int, int], int]
    global_lower_bound: int
    clique_lower_bound: int | None = None
    exact_chromatic: int | None = None
    exact_witness: Coloring | None = None


def compute_bounds(inst: Instance, limit: int = ORACLE_GUARD) -> BoundsReport:
    """Bounds report; the exact quantities are skipped when over the guard.

    Under the guard the conflict graph is built first, and `_edge_bound`
    reads each edge's complement rows from it; over it they come from arc
    positions, as in `edge_lower_bound`, and no graph is built.  Clique
    number, χ and its witness all come from the exact χ search, which
    starts from the global lower bound as a known clique size: when
    first-fit or the search's first descent uses that many colors, the
    coloring is optimal, χ is ω, and no clique is searched.  A negative
    `limit` skips the exact quantities on every instance."""
    masks = build_conflict_graph(inst).masks if inst.size <= limit else None
    per_edge = {
        edge_key(u, v): _edge_bound(inst, *edge_sides(inst, u, v), masks)
        for u, v in inst.tree.edges
    }
    glb = max(per_edge.values(), default=0)
    clique = chi = witness = None
    if masks is not None:
        chi, colors, clique = _chromatic_number(len(masks), masks, glb)
        witness = Coloring(tuple(colors))
    return BoundsReport(
        load=load(inst),
        per_edge_bound=per_edge,
        global_lower_bound=glb,
        clique_lower_bound=clique,
        exact_chromatic=chi,
        exact_witness=witness,
    )
