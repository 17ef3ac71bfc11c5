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

One implementation per job at the input boundary: `_tree_violations` is
the one host-tree check, behind `validate_tree` and the loader alike;
`_violations` checks and numbers every subtree built in the library, and
`_walk_subtree` reads only the arc lists of a parsed instance document,
for `formats.loads_instance`.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections.abc import Collection
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
        p = 0
        for u, v in self.edges:
            if v < u:
                u, v = v, u
            position[u, v] = p
            position[v, u] = p + 1
            p += 2
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
    """Check the host-tree invariants (`_tree_violations`); violations are
    data, not failures."""
    violations = _tree_violations(tree.vertices, tree.edges)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _tree_violations(n, edges) -> list[str]:
    """The violations of a host tree on n vertices with these edges, in
    `validate_tree`'s order; the one tree check, for `Instance(...)` and
    the loader alike.

    The edges must be a sized collection, such as a tuple or a list, an
    edge a pair, and a vertex count or edge endpoint exactly an `int` (not
    a `bool`, nor a float equal to an integer).  Connectivity is tested by
    union-find with path halving, linking the second endpoint's component
    under the first's, which keeps a tree drawn parent first shallow; its
    table is allocated only when there are n - 1 edges.  n - 1 distinct
    in-range edges without self-loops form a tree iff no join closes a
    cycle, so the connectivity message is given only then, when nothing
    else is wrong.
    """
    if type(n) is not int:
        return [f"vertex count {n!r} is not an integer"]
    if not isinstance(edges, Collection):
        return [f"edges of type {type(edges).__name__} are not a collection"]
    violations: list[str] = []
    if n < 0:
        violations.append("vertex count is negative")
    parent = list(range(n)) if len(edges) == n - 1 else None
    cycle = False
    seen: set[tuple[int, int]] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            violations.append(f"edge {e!r} is not a pair")
            continue
        if type(u) is not int or type(v) is not int:
            violations.append(f"edge ({u!r},{v!r}) has a non-integer endpoint")
            continue
        if not (0 <= u < n and 0 <= v < n):
            violations.append(f"edge ({u},{v}) has endpoint out of range")
            continue
        if u == v:
            violations.append(f"self-loop at vertex {u}")
            continue
        k = (u, v) if u < v else (v, u)
        if k in seen:
            violations.append(f"duplicate edge {k}")
        seen.add(k)
        if parent is not None:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                cycle = True
            else:
                parent[v] = u
    if len(edges) != n - 1:
        violations.append(
            f"edge count {len(edges)} != vertices-1 ({n - 1}): cycle or forest"
        )
    if cycle and not violations:
        violations.append("not connected: some vertex unreachable from 0")
    return violations


@dataclass(frozen=True)
class RootedSubtree:
    """One light tree: root plus directed arcs forming an out-arborescence."""

    root: int
    arcs: tuple[Arc, ...]

    @staticmethod
    def of(root: int, arcs: Iterable[Sequence[int]]) -> "RootedSubtree":
        return RootedSubtree(root, tuple(Arc(t, h) for t, h in arcs))


def _walk_subtree(
    position: Mapping[tuple[int, int], int], root, arcs
) -> tuple[tuple[int, ...], tuple[Arc, ...]] | None:
    """The positions (`HostTree.arc_position`) of a valid subtree's arcs
    and its arcs as a tuple of `Arc`s, from a lean accepting pass over the
    arcs as an instance document holds them, a list of two-element lists,
    or None at the first irregularity, when `_violations` names it.

    The pass gets through when the root is an exact `int`, every arc has
    two exact `int`s on a host edge, no skeleton edge is used twice, the
    root is a tail and every tail a head or the root.  Then the k arcs lie
    on k distinct host edges, a forest on at least k + 1 vertices, all of
    them among the root and the k heads; so the heads are distinct and not
    the root, and the forest is one tree, out from the root: the subtree
    is valid.  A valid subtree given so always gets through.
    """
    if type(arcs) is not list or type(root) is not int:
        return None
    heads = {root}
    tails = set()
    skeleton = set()
    row = []
    walked = []
    for a in arcs:
        if type(a) is not list or len(a) != 2:
            return None
        a = tuple.__new__(Arc, a)
        t, h = a
        if type(t) is not int or type(h) is not int:
            return None
        p = position.get(a)
        if p is None or p >> 1 in skeleton:
            return None
        heads.add(h)
        tails.add(t)
        skeleton.add(p >> 1)
        row.append(p)
        walked.append(a)
    if root in tails and tails <= heads:
        return tuple(row), tuple(walked)
    return None


def _violations(
    position: Mapping[tuple[int, int], int], s: RootedSubtree
) -> tuple[list[str], tuple[int, ...]]:
    """One pass over a subtree's arcs: its violations, in
    `validate_subtree`'s order, and the positions of its arcs.

    The entry must be a `RootedSubtree`, its arcs a sized collection, such
    as a tuple or a list, an arc a pair, and a root or arc endpoint
    exactly an `int`: a `bool` or a float equal to a vertex id would find
    its arc's position all the same.
    The position is looked up by the unpacked pair, so an arc given as a
    list is read like an `Arc`.
    The positions are meaningful only when there are no violations.  A
    host edge's two arcs sit at 2k and 2k+1, so ``p >> 1`` names the
    skeleton edge of an arc in the tree; an arc outside it is keyed by its
    (min,max) pair instead, so it is still checked for a second use.
    """
    if not isinstance(s, RootedSubtree):
        return [f"entry of type {type(s).__name__} is not a RootedSubtree"], ()
    arcs = s.arcs
    if not arcs:
        return ["subtree has no arcs (requests must occupy a fiber link)"], ()
    if not isinstance(arcs, Collection):
        return [f"arcs of type {type(arcs).__name__} are not a collection"], ()
    violations: list[str] = []
    skeleton: set[int | tuple[int, int]] = set()
    indeg: dict[int, int] = {}
    row: list[int] = []
    for a in arcs:
        try:
            t, h = a
        except (TypeError, ValueError):
            violations.append(f"arc {a!r} is not a pair")
            continue
        if type(t) is not int or type(h) is not int:
            violations.append(f"arc ({t!r},{h!r}) has a non-integer endpoint")
            continue
        if t == h:
            violations.append(f"arc ({t},{h}) is a self-loop")
            continue
        p = position.get((t, h))
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
    root = s.root
    if type(root) is not int:
        return [f"root {root!r} is not an integer"], ()
    # every arc endpoint is a key of indeg, so the vertices are its keys
    # plus the root
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
    violations = _violations(tree.arc_position, s)[0]
    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Instance:
    """Host tree plus an ordered multiset of rooted subtrees.

    `Instance(tree, subtrees)` validates everything except the degree-3
    restriction, `HostTree.degree_ok`, which only the greedy's
    `bfs_edge_order` enforces (generators, lower bounds and the exact
    oracles are degree-agnostic).  It checks through the naming functions:
    `validate_tree`, then `_violations` per subtree, which raises on the
    first bad one and gives each good one its row of `arc_positions`;
    `arc_members` is built from the rows at once.  The tree must be a
    `HostTree`, and the subtrees a sized collection of `RootedSubtree`s.
    `formats.loads_instance` checks a document's tree with the same
    `_tree_violations`, walks its subtrees with the lean `_walk_subtree`
    and hands both tables to `Instance._trusted`, so only a document the
    walk gives up on comes here, to have its first defect named.
    Otherwise `_trusted` is only for producers inside the package whose
    output is valid by construction (`normalize` padding a validated
    instance, handing over both tables; `generate_instance` growing a tree
    and its subtrees, whose tables are built on first use, as most
    generated inputs are only written out as text and eager tables cost
    8-17% of generation).
    """

    tree: HostTree
    subtrees: tuple[RootedSubtree, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tree, HostTree):
            kind = type(self.tree).__name__
            raise InputError(f"invalid host tree: tree of type {kind} is not a HostTree")
        if not isinstance(self.subtrees, Collection):
            kind = type(self.subtrees).__name__
            raise InputError(f"subtrees of type {kind} are not a collection")
        rep = validate_tree(self.tree)
        if not rep.ok:
            raise InputError("invalid host tree: " + "; ".join(rep.violations))
        position = self.tree.arc_position
        positions = []
        for i, s in enumerate(self.subtrees):
            violations, row = _violations(position, s)
            if violations:
                raise InputError(f"invalid subtree {i}: " + "; ".join(violations))
            positions.append(row)
        self.__dict__["arc_positions"] = tuple(positions)
        self.arc_members  # built now from the checked positions: hold both tables

    @classmethod
    def _trusted(
        cls,
        tree: HostTree,
        subtrees: tuple[RootedSubtree, ...],
        arc_members: tuple[tuple[int, ...], ...] | None = None,
        arc_positions: tuple[tuple[int, ...], ...] | None = None,
    ) -> "Instance":
        """An instance built without validation, optionally with its arc tables.

        The caller guarantees what `__post_init__` would check, having
        built the instance itself or checked it with the loader's walks, and
        that any table it hands over equals the one this instance would
        compute.  `arc_members` comes only with `arc_positions`; given the
        positions alone, it is built from them at once.
        """
        inst = object.__new__(cls)
        object.__setattr__(inst, "tree", tree)
        object.__setattr__(inst, "subtrees", subtrees)
        if arc_positions is not None:
            inst.__dict__["arc_positions"] = arc_positions
            if arc_members is not None:
                inst.__dict__["arc_members"] = arc_members
            inst.arc_members  # built now unless handed over: hold both tables
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
    """A positive color per subtree, in subtree order.

    `assignment` must be a tuple of exactly-`int` entries (not a `bool`),
    checked once, when the coloring is built, so that a mapping is refused
    rather than read as its keys.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        a = self.assignment
        if type(a) is not tuple or not set(map(type, a)) <= {int}:
            raise InputError("coloring assignment must be a tuple of integers")

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))

    def color_list(self, n: int) -> list[int]:
        """Colors in subtree order; raises unless there is one per subtree."""
        if len(self.assignment) != n:
            raise InputError(f"coloring has {len(self.assignment)} entries for {n} subtrees")
        return list(self.assignment)
