from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    collide,
    collide_naive,
    host_arcs,
    labeled_trees,
    load_naive,
    on_arc_naive,
    subtrees_on_arc,
    validate_subtree_reference,
)
from treewave import (
    Arc,
    HostTree,
    InputError,
    Instance,
    RootedSubtree,
    load,
    validate_subtree,
    validate_tree,
)
from treewave import instances
from treewave.formats import dumps_instance, loads_instance
from treewave.instances import edge_sides


class TestValidateTree:
    def test_single_vertex(self):
        tree = HostTree.of(1, [])
        assert validate_tree(tree).ok and tree.degree_ok

    def test_zero_vertices_invalid(self):
        assert not validate_tree(HostTree.of(0, [])).ok

    def test_path(self):
        rep = validate_tree(HostTree.of(3, [[0, 1], [1, 2]]))
        assert rep.ok

    def test_cycle_rejected(self):
        rep = validate_tree(HostTree.of(3, [[0, 1], [1, 2], [0, 2]]))
        assert not rep.ok
        assert any("cycle" in v or "count" in v for v in rep.violations)

    def test_self_loop_and_range(self):
        assert not validate_tree(HostTree.of(2, [[0, 0]])).ok
        assert not validate_tree(HostTree.of(2, [[0, 5]])).ok

    def test_duplicate_edge(self):
        assert not validate_tree(HostTree.of(3, [[0, 1], [1, 0]])).ok

    def test_disconnected(self):
        # right edge count, but 3 is isolated and 0-1-2 has an extra edge
        rep = validate_tree(HostTree.of(4, [[0, 1], [1, 2], [0, 2]]))
        assert not rep.ok

    def test_non_integer_vertex_count_and_endpoints(self):
        """A float or bool where an integer belongs is a violation, not a
        `TypeError` from building the adjacency."""
        cases = (
            (HostTree(2.0, ((0, 1),)), "vertex count 2.0 is not an integer"),
            (HostTree(True, ()), "vertex count True is not an integer"),
            (HostTree(2, ((0.0, 1),)), "edge (0.0,1) has a non-integer endpoint"),
            (HostTree(2, ((0, True),)), "edge (0,True) has a non-integer endpoint"),
        )
        for tree, message in cases:
            assert validate_tree(tree).violations == (message,)

    def test_degree_flag_separate(self):
        star5 = HostTree.of(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        assert validate_tree(star5).ok and not star5.degree_ok


class TestValidateSubtree:
    def test_directed_path_ok(self, p3_tree):
        rep = validate_subtree(p3_tree, RootedSubtree.of(0, [[0, 1], [1, 2]]))
        assert rep.ok

    def test_arc_into_root(self, p3_tree):
        rep = validate_subtree(p3_tree, RootedSubtree.of(0, [[1, 0]]))
        assert not rep.ok
        assert any("in-degree" in v for v in rep.violations)

    def test_two_arcs_share_head(self, p3_tree):
        rep = validate_subtree(p3_tree, RootedSubtree.of(0, [[0, 1], [2, 1]]))
        assert not rep.ok
        assert any("in-degree 2" in v for v in rep.violations)

    def test_empty_rejected(self, p3_tree):
        assert not validate_subtree(p3_tree, RootedSubtree(0, ())).ok

    def test_non_tree_arc(self, p3_tree):
        rep = validate_subtree(p3_tree, RootedSubtree.of(0, [[0, 2]]))
        assert not rep.ok

    def test_disconnected_skeleton(self):
        tree = HostTree.of(4, [[0, 1], [1, 2], [2, 3]])
        rep = validate_subtree(tree, RootedSubtree.of(0, [[0, 1], [2, 3]]))
        assert not rep.ok

    def test_both_directions_of_one_edge(self, p3_tree):
        rep = validate_subtree(p3_tree, RootedSubtree.of(0, [[0, 1], [1, 0]]))
        assert not rep.ok

    def test_non_integer_root_and_arc_endpoints(self, p3_tree):
        """A bool or float equal to a vertex id is refused, although its arc
        would hash to the same host arc position."""
        cases = (
            (RootedSubtree(0, (Arc(0, 1.0),)), "arc (0,1.0) has a non-integer endpoint"),
            (RootedSubtree(1, (Arc(True, 0),)), "arc (True,0) has a non-integer endpoint"),
            (RootedSubtree(0.0, (Arc(0, 1),)), "root 0.0 is not an integer"),
            (RootedSubtree(True, (Arc(1, 0),)), "root True is not an integer"),
        )
        for s, message in cases:
            assert validate_subtree(p3_tree, s).violations == (message,)


def test_non_integer_ids_rejected_by_instance():
    """Each of these once built an instance or raised a bare `TypeError`:
    the first was accepted, and `dumps_instance` wrote a document that
    `loads_instance` refuses."""
    path = HostTree(2, ((0, 1),))
    cases = (
        (
            lambda: Instance(path, (RootedSubtree(True, (Arc(True, 0.0),)),)),
            r"^invalid subtree 0: arc \(True,0\.0\) has a non-integer endpoint$",
        ),
        (
            lambda: Instance(HostTree(2.0, ((0, 1),)), ()),
            r"^invalid host tree: vertex count 2\.0 is not an integer$",
        ),
        (
            lambda: Instance(HostTree(2, ((0.0, 1),)), ()),
            r"^invalid host tree: edge \(0\.0,1\) has a non-integer endpoint$",
        ),
    )
    for build, message in cases:
        with pytest.raises(InputError, match=message):
            build()


def test_edges_and_arcs_that_are_not_pairs_rejected_by_instance():
    """A wrong-arity or non-iterable edge or arc, and edges or arcs that
    are not a sized collection, are a violation like any other; each once
    escaped as a bare `ValueError` or `TypeError` from unpacking it, from
    the loop over them or, for an iterator, from taking its length after
    the loop had used it up.  Tuples and lists are read alike."""
    path = HostTree(2, ((0, 1),))
    cases = (
        (
            lambda: Instance(HostTree(2, ((0, 1, 2),)), ()),
            r"^invalid host tree: edge \(0, 1, 2\) is not a pair$",
        ),
        (
            lambda: Instance(HostTree(2, (7,)), ()),
            r"^invalid host tree: edge 7 is not a pair$",
        ),
        (
            lambda: Instance(path, (RootedSubtree(0, ((0, 1, 1),)),)),
            r"^invalid subtree 0: arc \(0, 1, 1\) is not a pair$",
        ),
        (
            lambda: Instance(path, (RootedSubtree(0, (5,)),)),
            r"^invalid subtree 0: arc 5 is not a pair$",
        ),
        (
            lambda: Instance(HostTree(2, 5), ()),
            r"^invalid host tree: edges of type int are not a collection$",
        ),
        (
            lambda: Instance(HostTree(2, None), ()),
            r"^invalid host tree: edges of type NoneType are not a collection$",
        ),
        (
            lambda: Instance(path, (RootedSubtree(0, 5),)),
            r"^invalid subtree 0: arcs of type int are not a collection$",
        ),
        (
            lambda: Instance(path, (RootedSubtree(0, iter([(0, 1)])),)),
            r"^invalid subtree 0: arcs of type list_iterator are not a collection$",
        ),
    )
    for build, message in cases:
        with pytest.raises(InputError, match=message):
            build()
    assert validate_subtree(path, RootedSubtree(0, 5)).violations == (
        "arcs of type int are not a collection",
    )
    inst = Instance(HostTree(2, [[0, 1]]), (RootedSubtree(0, [[0, 1]]),))
    assert inst.arc_positions == ((0,),)


def test_list_arc_read_like_an_arc_by_instance():
    """An arc given as a list finds its position by its unpacked pair, as
    a list edge does in `HostTree`; it once raised a bare `TypeError`
    from hashing the list.  Arcs that are not a tuple skip the walk's
    lean pass, so empty ones of any kind are still reported as such."""
    path = HostTree(2, ((0, 1),))
    inst = Instance(path, (RootedSubtree(0, ([0, 1],)),))
    assert inst.arc_positions == ((0,),)
    assert Instance(path, (RootedSubtree(0, [Arc(0, 1)]),)).arc_positions == ((0,),)
    empty = r"^invalid subtree 0: subtree has no arcs"
    for arcs in (None, 0, []):
        with pytest.raises(InputError, match=empty):
            Instance(path, (RootedSubtree(0, arcs),))


def _instance_agrees(tree: HostTree, s: RootedSubtree) -> None:
    """`Instance(tree, (s,))` with `s`'s arcs as `Arc`s, plain tuples and
    lists, so the walk's lean pass and its naming pass both run: refused
    with the reference's violations iff it reports any, else holding the
    positions of the arcs."""
    reference = validate_subtree_reference(tree, s)
    for arcs in (s.arcs, tuple(map(tuple, s.arcs)), tuple(map(list, s.arcs))):
        try:
            inst = Instance(tree, (RootedSubtree(s.root, arcs),))
        except InputError as e:
            assert not reference.ok
            assert str(e) == "invalid subtree 0: " + "; ".join(reference.violations)
        else:
            assert reference.ok
            assert inst.arc_positions[0] == tuple(tree.arc_position[a] for a in s.arcs)


def test_only_irregular_subtrees_are_walked_twice(monkeypatch):
    """Valid subtrees built from `Arc`s, as the loader builds them, pass
    the walk's lean pass alone; a subtree with a list arc or a violation
    is walked again to name its violations."""
    calls = []
    name = instances._violations

    def counting(position, s):
        calls.append(s)
        return name(position, s)

    monkeypatch.setattr(instances, "_violations", counting)
    inst = make_instance(7, max_vertices=12, max_subtrees=20, max_arcs=6)
    Instance(inst.tree, inst.subtrees)
    loads_instance(dumps_instance(inst))
    assert inst.size > 0 and calls == []
    path = HostTree(2, ((0, 1),))
    Instance(path, (RootedSubtree(0, ([0, 1],)),))
    with pytest.raises(InputError):
        Instance(path, (RootedSubtree(1, (Arc(0, 1),)),))
    assert len(calls) == 2


def test_two_way_edge_apart_from_the_root_refused():
    """Arcs both ways along one host edge away from the root give every
    vertex but the root in-degree 1 and the right arc count: only the
    repeated skeleton edge and the broken connection show."""
    path = HostTree.of(4, [[0, 1], [1, 2], [2, 3]])
    for arcs in ([[0, 1], [2, 3], [3, 2]], [[3, 2], [0, 1], [2, 3]]):
        s = RootedSubtree.of(0, arcs)
        assert not validate_subtree_reference(path, s).ok
        _instance_agrees(path, s)


MUTATIONS = (
    "none",
    "empty",
    "self_loop",
    "non_edge",
    "repeated_edge",
    "untouched_root",
    "root_in_degree",
    "in_degree_2",
    "disconnected",
    "reversed",
    "arbitrary",
)


def _mutate(tree: HostTree, s: RootedSubtree, kind: str, pick) -> RootedSubtree:
    """`s` changed by one mutation `kind`; `pick(seq)` chooses one element."""
    arcs = list(s.arcs)
    vertices = range(tree.vertices + 1)  # one past the end is never a vertex
    at = pick(range(len(arcs) + 1))
    if kind == "empty":
        return RootedSubtree(s.root, ())
    if kind == "self_loop":
        v = pick(vertices)
        arcs.insert(at, Arc(v, v))
    elif kind == "non_edge":
        a, b = pick(vertices), pick(vertices)
        if a == b or (a, b) in host_arcs(tree):
            b = tree.vertices
        arcs.insert(at, Arc(a, b))
    elif kind == "repeated_edge":
        t, h = pick(s.arcs)
        arcs.insert(at, pick((Arc(t, h), Arc(h, t))))
    elif kind == "untouched_root":
        touched = {v for a in arcs for v in a}
        return RootedSubtree(pick([v for v in vertices if v not in touched]), s.arcs)
    elif kind == "root_in_degree":
        return RootedSubtree(pick(s.arcs).head, s.arcs)
    elif kind == "in_degree_2":
        t, h = pick(s.arcs)
        arcs.insert(at, Arc(pick([x for x in vertices if x not in (t, h)]), h))
    elif kind == "disconnected":
        del arcs[pick(range(len(arcs)))]
    elif kind == "reversed":
        k = pick(range(len(arcs)))
        arcs[k] = Arc(arcs[k].head, arcs[k].tail)
    elif kind == "arbitrary":
        arcs = [Arc(pick(vertices), pick(vertices)) for _ in range(pick(range(1, 6)))]
        return RootedSubtree(pick(vertices), tuple(arcs))
    return RootedSubtree(s.root, tuple(arcs))


def _mutated_subtrees(seed: int, pick):
    inst = make_instance(seed, max_vertices=12, max_subtrees=6, max_arcs=6)
    for s in inst.subtrees:
        yield inst.tree, s
        for kind in MUTATIONS[1:]:
            yield inst.tree, _mutate(inst.tree, s, kind, pick)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_validate_subtree_matches_reference(seed, data):
    """Same `ok` and the same violations, in order, as the validator as
    first written, on generated subtrees and on every kind of mutation;
    `Instance` agrees."""
    pick = lambda seq: data.draw(st.sampled_from(seq))  # noqa: E731
    for tree, s in _mutated_subtrees(seed, pick):
        assert validate_subtree(tree, s) == validate_subtree_reference(tree, s)
        _instance_agrees(tree, s)


def test_subtree_mutations_reach_every_violation():
    """The mutations above produce every message the validator has for
    integer ids, so the equality test compares each of them; the
    non-integer messages are pinned in `TestValidateSubtree`."""
    patterns = {
        r"^subtree has no arcs": 0,
        r"^arc .* is a self-loop$": 0,
        r"^arc .* is not a host tree edge$": 0,
        r"^skeleton edge .* used twice$": 0,
        r"^root \d+ not touched by any arc$": 0,
        r"^root \d+ has in-degree \d+$": 0,
        r"^vertex \d+ has in-degree \d+, expected 1$": 0,
        r"arc/vertex count mismatch": 0,
        r"^skeleton not connected from root": 0,
    }
    for seed in range(80):
        rng = random.Random(seed)
        for tree, s in _mutated_subtrees(seed, lambda seq: rng.choice(list(seq))):
            rep = validate_subtree(tree, s)
            assert rep == validate_subtree_reference(tree, s)
            for v in rep.violations:
                for p in patterns:
                    if re.search(p, v):
                        patterns[p] += 1
    assert all(patterns.values()), patterns


def test_validate_subtree_matches_reference_exhaustively():
    """Every labeled tree on 2-5 vertices, every arc set taking each host
    edge absent, forward or backward, and every root in 0..n, where n is a
    root no arc touches: the same report as the validator as first
    written, and `Instance` agrees."""
    cases = 0
    for n in range(2, 6):
        for tree in labeled_trees(n):
            options = [((), (Arc(u, v),), (Arc(v, u),)) for u, v in tree.edges]
            for choice in itertools.product(*options):
                arcs = tuple(itertools.chain.from_iterable(choice))
                for root in range(n + 1):
                    s = RootedSubtree(root, arcs)
                    assert validate_subtree(tree, s) == validate_subtree_reference(tree, s)
                    _instance_agrees(tree, s)
                    cases += 1
    assert cases == 63_027


class TestCollide:
    def test_shared_arc(self, p3_demo):
        assert collide(p3_demo.subtrees[0], p3_demo.subtrees[2])

    def test_opposite_directions_do_not_collide(self, p3_demo):
        assert not collide(p3_demo.subtrees[0], p3_demo.subtrees[1])

    def test_reflexive(self, p3_demo):
        for s in p3_demo.subtrees:
            assert collide(s, s)


class TestLoadAndLookup:
    def test_p3_demo_load(self, p3_demo):
        assert load(p3_demo) == 2
        assert load(p3_demo) == load_naive(p3_demo)

    def test_empty_and_single(self, p3_tree):
        assert load(Instance(p3_tree, ())) == 0
        one = Instance(p3_tree, (RootedSubtree.of(2, [[2, 1]]),))
        assert load(one) == 1

    def test_subtrees_on_arc(self, p3_demo):
        assert subtrees_on_arc(p3_demo, (0, 1)) == (0, 2)
        assert subtrees_on_arc(p3_demo, (2, 1)) == ()
        assert subtrees_on_arc(p3_demo, (0, 1)) == tuple(on_arc_naive(p3_demo, (0, 1)))

    def test_edge_sides(self, p3_demo):
        assert edge_sides(p3_demo, 0, 1) == ((0, 2), (1,))
        assert edge_sides(p3_demo, 1, 0) == ((0, 2), (1,))

    def test_edge_sides_rejects_non_edge(self, p3_demo):
        with pytest.raises(InputError, match=r"^\{0,2\} is not an edge of the host tree$"):
            edge_sides(p3_demo, 0, 2)

    def test_arcs_numbered_by_edge_order(self, p3_reversed):
        """Edge k has its (min,max) arc at 2k and its (max,min) arc at 2k+1."""
        tree = p3_reversed.tree
        assert tree.arcs == (Arc(1, 2), Arc(2, 1), Arc(0, 1), Arc(1, 0))
        assert tree.arc_position == {a: p for p, a in enumerate(tree.arcs)}
        assert p3_reversed.arc_members == ((), (0, 1), (2,), (0, 1))

    def test_non_edge_rejected(self, p3_demo):
        with pytest.raises(InputError):
            subtrees_on_arc(p3_demo, (0, 2))

    def test_invalid_instance_rejected(self, p3_tree):
        with pytest.raises(InputError):
            Instance(p3_tree, (RootedSubtree.of(0, [[1, 0]]),))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_direction_lists_partition_edge_population(seed):
    inst = make_instance(seed)
    for u, v in inst.tree.edges:
        fwd = subtrees_on_arc(inst, (u, v))
        bwd = subtrees_on_arc(inst, (v, u))
        assert edge_sides(inst, u, v) == edge_sides(inst, v, u)
        assert edge_sides(inst, u, v) == ((fwd, bwd) if u < v else (bwd, fwd))
        assert not (set(fwd) & set(bwd))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_collide_matches_naive_and_is_symmetric(seed):
    inst = make_instance(seed, max_vertices=7, max_subtrees=7)
    for a in inst.subtrees:
        for b in inst.subtrees:
            assert collide(a, b) == collide_naive(a, b)
            assert collide(a, b) == collide(b, a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_load_equals_max_direction_count(seed):
    inst = make_instance(seed)
    per_edge_max = [
        max(
            len(subtrees_on_arc(inst, (u, v))),
            len(subtrees_on_arc(inst, (v, u))),
        )
        for u, v in inst.tree.edges
    ]
    assert load(inst) == max(per_edge_max, default=0)
    assert load(inst) == load_naive(inst)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_arc_members_rebuild_exactly(seed):
    inst = make_instance(seed)
    rebuilt: dict[Arc, list[int]] = {}
    for i, s in enumerate(inst.subtrees):
        for a in s.arcs:
            rebuilt.setdefault(a, []).append(i)
    assert inst.arc_members == tuple(
        tuple(rebuilt.get(a, ())) for a in inst.tree.arcs
    )
