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
    first written, on generated subtrees and on every kind of mutation."""
    pick = lambda seq: data.draw(st.sampled_from(seq))  # noqa: E731
    for tree, s in _mutated_subtrees(seed, pick):
        assert validate_subtree(tree, s) == validate_subtree_reference(tree, s)


def test_subtree_mutations_reach_every_violation():
    """The mutations above produce every message the validator has, so
    the equality test compares each of them."""
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
    root no arc touches: the same report as the validator as first written."""
    cases = 0
    for n in range(2, 6):
        for tree in labeled_trees(n):
            options = [((), (Arc(u, v),), (Arc(v, u),)) for u, v in tree.edges]
            for choice in itertools.product(*options):
                arcs = tuple(itertools.chain.from_iterable(choice))
                for root in range(n + 1):
                    s = RootedSubtree(root, arcs)
                    assert validate_subtree(tree, s) == validate_subtree_reference(tree, s)
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
