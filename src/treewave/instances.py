"""Data model: host trees, rooted subtrees, instances, colorings.

A host tree is the undirected fiber topology.  A rooted subtree is one
multicast light tree: an out-arborescence whose underlying undirected
graph (its skeleton) is a subtree of the host tree.  An instance pairs a
host tree with an ordered multiset of rooted subtrees; identity of a
subtree is its list position, never structural equality, so duplicates
are allowed and kept apart.

Arcs are numbered once, by the host tree (`HostTree.arc_position`): edge
k of its edge list has its (min,max) arc at 2k and its (max,min) arc at
2k+1, and every per-arc table or state in the package uses that numbering.
The host tree has no edge test of its own; `edge_sides` is the one check
that a vertex pair is a host edge.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence


class InputError(ValueError):
    """Rejected input: malformed data, infeasible parameters, bad keys."""


class LimitError(InputError):
    """An exact oracle was asked to exceed its size guard."""


class InternalError(RuntimeError):
    """A structural invariant the code relies on was broken."""


class Arc(NamedTuple):
    """Directed edge (tail -> head) along one fiber link."""

    tail: int
    head: int


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class HostTree:
    """Undirected tree on vertices 0..vertices-1; edge list keeps file order."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def of(vertices: int, edges: Iterable[Sequence[int]]) -> "HostTree":
        return HostTree(vertices, tuple((u, v) for u, v in edges))

    @cached_property
    def arc_position(self) -> dict[tuple[int, int], int]:
        """Arc -> position: edge k of `edges` has its (min,max) arc at 2k
        and its (max,min) arc at 2k+1.  Keys are plain tuples."""
        position = {}
        for k, (u, v) in enumerate(self.edges):
            a, b = edge_key(u, v)
            position[a, b] = 2 * k
            position[b, a] = 2 * k + 1
        return position

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arc at each position of `arc_position`."""
        return tuple(Arc(*a) for a in self.arc_position)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertices)]
        for u, v in self.edges:
            if 0 <= u < self.vertices and 0 <= v < self.vertices:
                nbrs[u].append(v)
                nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def degree_ok(self) -> bool:
        """True iff every vertex has degree <= 3 (what the greedy colorer needs)."""
        return all(len(ns) <= 3 for ns in self.adjacency)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_tree(tree: HostTree) -> ValidationReport:
    """Check the host-tree invariants; violations are data, not failures."""
    violations: list[str] = []
    n = tree.vertices
    if n < 0:
        violations.append("vertex count is negative")
    seen: set[tuple[int, int]] = set()
    for u, v in tree.edges:
        if not (0 <= u < n and 0 <= v < n):
            violations.append(f"edge ({u},{v}) has endpoint out of range")
            continue
        if u == v:
            violations.append(f"self-loop at vertex {u}")
            continue
        k = edge_key(u, v)
        if k in seen:
            violations.append(f"duplicate edge {k}")
        seen.add(k)
    if len(tree.edges) != n - 1:
        violations.append(
            f"edge count {len(tree.edges)} != vertices-1 ({n - 1}): cycle or forest"
        )
    if not violations and n > 0:
        reached = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in tree.adjacency[u]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            violations.append("not connected: some vertex unreachable from 0")
    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class RootedSubtree:
    """One light tree: root plus directed arcs forming an out-arborescence."""

    root: int
    arcs: tuple[Arc, ...]

    @staticmethod
    def of(root: int, arcs: Iterable[Sequence[int]]) -> "RootedSubtree":
        return RootedSubtree(root, tuple(Arc(t, h) for t, h in arcs))


def _walk_subtree(
    position: Mapping[tuple[int, int], int], s: RootedSubtree
) -> tuple[list[str], tuple[int, ...]]:
    """One pass over a subtree's arcs: its violations, in `validate_subtree`'s
    order, and the positions (`HostTree.arc_position`) of its arcs.

    The positions are meaningful only when there are no violations.  A
    host edge's two arcs sit at 2k and 2k+1, so ``p >> 1`` names the
    skeleton edge of an arc in the tree; an arc outside it is keyed by its
    (min,max) pair instead, so it is still checked for a second use.
    """
    arcs = s.arcs
    if not arcs:
        return ["subtree has no arcs (requests must occupy a fiber link)"], ()
    violations: list[str] = []
    skeleton: set[int | tuple[int, int]] = set()
    indeg: dict[int, int] = {}
    row: list[int] = []
    for a in arcs:
        t, h = a
        if t == h:
            violations.append(f"arc ({t},{h}) is a self-loop")
            continue
        p = position.get(a)
        if p is None:
            violations.append(f"arc ({t},{h}) is not a host tree edge")
            k = edge_key(t, h)
        else:
            row.append(p)
            k = p >> 1
        if k in skeleton:
            violations.append(f"skeleton edge {edge_key(t, h)} used twice")
        skeleton.add(k)
        indeg[h] = indeg.get(h, 0) + 1
        indeg.setdefault(t, 0)
    if violations:
        return violations, ()
    # every arc endpoint is a key of indeg, so the vertices are its keys
    # plus the root
    root = s.root
    if root not in indeg:
        violations.append(f"root {root} not touched by any arc")
    if indeg.get(root, 0) != 0:
        violations.append(f"root {root} has in-degree {indeg[root]}")
    bad = [v for v, d in indeg.items() if d != 1 and v != root]
    for v in sorted(bad):
        violations.append(f"vertex {v} has in-degree {indeg[v]}, expected 1")
    # Distinct host edges form a forest, a tree when |arcs| = |vertices| - 1
    # (never with an untouched root), and a tree is connected from the root
    # along arc directions iff the root and in-degree checks above all passed.
    vertices = len(indeg) + (root not in indeg)
    if len(arcs) != vertices - 1:
        violations.append("skeleton is not a tree (arc/vertex count mismatch)")
    elif violations:
        violations.append("skeleton not connected from root along arc directions")
    return violations, tuple(row)


def validate_subtree(tree: HostTree, s: RootedSubtree) -> ValidationReport:
    """Check one rooted subtree against its host tree."""
    violations, _ = _walk_subtree(tree.arc_position, s)
    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Instance:
    """Host tree plus an ordered multiset of rooted subtrees.

    `Instance(tree, subtrees)` validates everything except the degree-3
    restriction, `HostTree.degree_ok`, which only the greedy's
    `bfs_edge_order` enforces (generators, lower bounds and the exact
    oracles are degree-agnostic).  Input is validated once, where it
    enters; the same walk over each subtree's arcs gives `arc_positions`,
    and `arc_members` is built from it at once.  `Instance._trusted` skips
    the checks and is only for producers inside the package whose output
    is valid by construction (`normalize` padding a validated instance,
    handing over both tables; `generate_instance` growing a tree and its
    subtrees, whose tables are built on first use, as most generated inputs
    are only written out as text and eager tables cost 8-17% of generation).
    """

    tree: HostTree
    subtrees: tuple[RootedSubtree, ...]

    def __post_init__(self) -> None:
        rep = validate_tree(self.tree)
        if not rep.ok:
            raise InputError("invalid host tree: " + "; ".join(rep.violations))
        position = self.tree.arc_position
        positions = []
        for i, s in enumerate(self.subtrees):
            violations, row = _walk_subtree(position, s)
            if violations:
                raise InputError(f"invalid subtree {i}: " + "; ".join(violations))
            positions.append(row)
        self.__dict__["arc_positions"] = tuple(positions)
        self.arc_members  # built now from the walked positions: hold both tables

    @classmethod
    def _trusted(
        cls,
        tree: HostTree,
        subtrees: tuple[RootedSubtree, ...],
        arc_members: tuple[tuple[int, ...], ...] | None = None,
        arc_positions: tuple[tuple[int, ...], ...] | None = None,
    ) -> "Instance":
        """An instance built without validation, optionally with its arc tables.

        The caller guarantees what `__post_init__` would check and, when
        it hands over `arc_members` and `arc_positions` (both or neither),
        that they equal the tables this instance would compute.  Never
        call it on data that came from outside the package.
        """
        inst = object.__new__(cls)
        object.__setattr__(inst, "tree", tree)
        object.__setattr__(inst, "subtrees", subtrees)
        if arc_members is not None:
            inst.__dict__["arc_members"] = arc_members
            inst.__dict__["arc_positions"] = arc_positions
        return inst

    @cached_property
    def arc_positions(self) -> tuple[tuple[int, ...], ...]:
        """Per subtree, the positions (`HostTree.arc_position`) of its arcs."""
        get = self.tree.arc_position.__getitem__
        return tuple(tuple(map(get, s.arcs)) for s in self.subtrees)

    @cached_property
    def arc_members(self) -> tuple[tuple[int, ...], ...]:
        """Per arc position, the ascending indices of the subtrees on it:
        `arc_positions` inverted."""
        members: list[list[int]] = [[] for _ in range(len(self.tree.arc_position))]
        for i, row in enumerate(self.arc_positions):
            for p in row:
                members[p].append(i)
        return tuple(map(tuple, members))

    @property
    def size(self) -> int:
        return len(self.subtrees)


def load(inst: Instance) -> int:
    """Maximum number of subtrees on any single directed edge (0 if none)."""
    return max(map(len, inst.arc_members), default=0)


def edge_sides(
    inst: Instance, u: int, v: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending indices of the subtrees on the (min,max) and on the
    (max,min) arc of host edge {u,v}.

    Rejects a pair that is not an edge of the host tree; this is the
    package's one edge check.  The two sides are disjoint, since a valid
    subtree uses an edge in one direction only.
    """
    p = inst.tree.arc_position.get((u, v) if u < v else (v, u))
    if p is None:
        raise InputError(f"{{{u},{v}}} is not an edge of the host tree")
    return inst.arc_members[p : p + 2]


@dataclass(frozen=True)
class Coloring:
    """Map from subtree index to a positive color; partial during a run."""

    assignment: Mapping[int, int]

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def is_total(self, n: int) -> bool:
        return all(map(self.assignment.__contains__, range(n)))

    def color_list(self, n: int) -> list[int]:
        """Colors in subtree order; raises on a partial coloring."""
        if not self.is_total(n):
            raise InputError("coloring is partial; expected a color per subtree")
        return [self.assignment[i] for i in range(n)]
