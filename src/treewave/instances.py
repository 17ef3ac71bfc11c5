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
    """Check the host-tree invariants; violations are data, not failures.
    The edges must be a sized collection, such as a tuple or a list, an
    edge a pair, and a vertex count or edge endpoint exactly an `int` (not
    a `bool`, nor a float equal to an integer)."""
    n = tree.vertices
    if type(n) is not int:
        violation = f"vertex count {n!r} is not an integer"
        return ValidationReport(ok=False, violations=(violation,))
    if not isinstance(tree.edges, Collection):
        violation = f"edges of type {type(tree.edges).__name__} are not a collection"
        return ValidationReport(ok=False, violations=(violation,))
    violations: list[str] = []
    if n < 0:
        violations.append("vertex count is negative")
    seen: set[tuple[int, int]] = set()
    for e in tree.edges:
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


def _walk_tree(n, edges) -> dict[tuple[int, int], int] | None:
    """`HostTree.arc_position` of a valid host tree, built by a lean
    accepting pass that checks the tree as it goes, or None at the first
    irregularity, when `validate_tree` names it.

    The pass gets through when the vertex count is an exact `int` and the
    edges, a tuple or list of n - 1 of them (so n is at least 1), are each a
    tuple or list of two exact `int`s in range that joins two components
    not yet joined (union-find with path halving, linking the second
    endpoint's component under the first's, which keeps a tree drawn
    parent first shallow).  So there is no self-loop or repeated edge, and
    n - 1 joins leave one component: a tree.  A valid tree given so always
    gets through.
    """
    if type(n) is not int:
        return None
    if type(edges) is not tuple and type(edges) is not list or len(edges) != n - 1:
        return None
    parent = list(range(n))
    position = {}
    p = 0
    for e in edges:
        if type(e) is not tuple and type(e) is not list or len(e) != 2:
            return None
        u, v = e
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            return None
        a, b = u, v
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return None
        parent[b] = a
        if u < v:
            position[u, v] = p
            position[v, u] = p + 1
        else:
            position[v, u] = p
            position[u, v] = p + 1
        p += 2
    return position


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
    and its arcs as a tuple of `Arc`s, from a lean accepting pass, or None
    at the first irregularity, when `_violations` walks the arcs again to
    name them.

    The arcs are taken either as a `RootedSubtree` holds them, a tuple of
    `Arc`s (returned as they are), or as an instance document holds them,
    a list of two-element lists (each built into an `Arc` on the way).
    The pass gets through when the root is an exact `int`, every arc has
    two exact `int`s on a host edge, no skeleton edge is used twice, the
    root is a tail and every tail a head or the root.  Then the k arcs lie
    on k distinct host edges, a forest on at least k + 1 vertices, all of
    them among the root and the k heads; so the heads are distinct and not
    the root, and the forest is one tree, out from the root: the subtree
    is valid.  A valid subtree in either form always gets through.
    """
    if type(arcs) is tuple:
        kind = Arc
    elif type(arcs) is list:
        kind = list
    else:
        return None
    if type(root) is not int:
        return None
    heads = {root}
    tails = set()
    skeleton = set()
    row = []
    walked = []
    for a in arcs:
        if type(a) is not kind or len(a) != 2:
            return None
        if kind is list:
            a = tuple.__new__(Arc, a)
            walked.append(a)
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
    if root in tails and tails <= heads:
        return tuple(row), arcs if kind is Arc else tuple(walked)
    return None


def _violations(
    position: Mapping[tuple[int, int], int], s: RootedSubtree
) -> tuple[list[str], tuple[int, ...]]:
    """One pass over a subtree's arcs: its violations, in
    `validate_subtree`'s order, and the positions of its arcs.

    The arcs must be a sized collection, such as a tuple or a list, an arc
    a pair, and a root or arc endpoint exactly an `int`: a `bool` or a
    float equal to a vertex id would find its arc's position all the same.
    The position is looked up by the unpacked pair, so an arc given as a
    list is read like an `Arc`.
    The positions are meaningful only when there are no violations.  A
    host edge's two arcs sit at 2k and 2k+1, so ``p >> 1`` names the
    skeleton edge of an arc in the tree; an arc outside it is keyed by its
    (min,max) pair instead, so it is still checked for a second use.
    """
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
    position = tree.arc_position
    walked = _walk_subtree(position, s.root, s.arcs)
    violations = () if walked else _violations(position, s)[0]
    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Instance:
    """Host tree plus an ordered multiset of rooted subtrees.

    `Instance(tree, subtrees)` validates everything except the degree-3
    restriction, `HostTree.degree_ok`, which only the greedy's
    `bfs_edge_order` enforces (generators, lower bounds and the exact
    oracles are degree-agnostic).  Input is validated once, where it
    enters, by lean accepting passes that build what they check:
    `_walk_tree` gives the tree's `arc_position` (seeded into the tree
    unless it holds one) and `_walk_subtree` each subtree's row of
    `arc_positions`; `arc_members` is built from them at once.  Where a
    pass gives up, `validate_tree` or `_violations` names the violations,
    or accepts a valid tree or subtree given in another form (arcs as
    plain tuples, say).  `formats.loads_instance` runs the same passes
    over a parsed document and hands the positions to `Instance._trusted`.
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
        tree = self.tree
        position = _walk_tree(tree.vertices, tree.edges)
        if position is None:
            rep = validate_tree(tree)
            if not rep.ok:
                raise InputError("invalid host tree: " + "; ".join(rep.violations))
            position = tree.arc_position
        else:
            position = tree.__dict__.setdefault("arc_position", position)
        positions = []
        for i, s in enumerate(self.subtrees):
            walked = _walk_subtree(position, s.root, s.arcs)
            if walked:
                positions.append(walked[0])
                continue
            violations, row = _violations(position, s)
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

        The caller guarantees what `__post_init__` would check, having
        built the instance itself or checked it with the same passes, and
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
