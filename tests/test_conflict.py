from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    bfs_two_colorable,
    collide,
    conflict_pairs_naive,
    edges_of,
    neighbors,
    subtrees_on_edge,
)
from treewave import (
    HostTree,
    InputError,
    Instance,
    RootedSubtree,
    build_conflict_graph,
    edge_complement_bipartite,
)


class TestBuildConflictGraph:
    def test_p3_demo_edges(self, p3_demo):
        g = build_conflict_graph(p3_demo)
        assert g.masks == (0b100, 0b000, 0b001)

    def test_disjoint_subtrees_empty_graph(self):
        tree = HostTree.of(4, [[0, 1], [1, 2], [2, 3]])
        inst = Instance(
            tree,
            (RootedSubtree.of(0, [[0, 1]]), RootedSubtree.of(2, [[2, 3]])),
        )
        g = build_conflict_graph(inst)
        assert g.masks == (0, 0)

    def test_duplicates_form_complete_graph(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        inst = Instance(p3_tree, (dup,) * 4)
        g = build_conflict_graph(inst)
        assert g.masks == (0b1110, 0b1101, 0b1011, 0b0111)

    def test_symmetric_no_self_loops(self, star_demo):
        g = build_conflict_graph(star_demo)
        for i in range(g.n):
            assert i not in neighbors(g, i)
            for j in neighbors(g, i):
                assert i in neighbors(g, j)


class TestEdgeComplementBipartite:
    def test_p3_demo_edge01(self, p3_demo):
        bip = edge_complement_bipartite(p3_demo, (0, 1), [0, 1, 2])
        assert bip.left == (0, 2)
        assert bip.right == (1,)
        # B collides with neither A nor C
        assert set(edges_of(bip)) == {(0, 0), (1, 0)}

    def test_one_sided_subset(self, p3_demo):
        bip = edge_complement_bipartite(p3_demo, (0, 1), [0, 2])
        assert bip.left == (0, 2)
        assert bip.right == ()
        assert edges_of(bip) == ()

    def test_opposite_directions_colliding_elsewhere(self):
        # both subtrees span the middle edge in opposite directions but
        # share arc (1,2): they collide, so the complement omits the pair
        tree = HostTree.of(4, [[0, 1], [1, 2], [2, 3]])
        inst = Instance(
            tree,
            (
                RootedSubtree.of(0, [[0, 1], [1, 2]]),
                RootedSubtree.of(1, [[1, 0], [1, 2]]),
            ),
        )
        # on edge {0,1}: subtree 0 forward, subtree 1 backward
        bip = edge_complement_bipartite(inst, (0, 1), [0, 1])
        assert bip.left == (0,) and bip.right == (1,)
        assert edges_of(bip) == ()

    def test_subset_outside_edge_rejected(self, p3_demo):
        with pytest.raises(InputError):
            edge_complement_bipartite(p3_demo, (1, 2), [0])

    def test_duplicate_subset_rejected(self, p3_demo):
        with pytest.raises(InputError):
            edge_complement_bipartite(p3_demo, (0, 1), [0, 0])

    def test_non_edge_rejected(self, p3_demo):
        # the edge is checked before the subset's duplicates
        with pytest.raises(InputError, match=r"^\{0,2\} is not an edge of the host tree$"):
            edge_complement_bipartite(p3_demo, (0, 2), [0, 0])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_conflict_graph_matches_all_pairs_oracle(seed):
    inst = make_instance(seed, max_vertices=7, max_subtrees=8)
    g = build_conflict_graph(inst)
    pairs = {
        (i, j) for i in range(g.n) for j in neighbors(g, i) if i < j
    }
    assert pairs == conflict_pairs_naive(inst)


def edge_complements(inst, subset_seed: int):
    """The complement of every host edge's full population and of a
    deterministic pseudo-random subset of it."""
    for u, v in inst.tree.edges:
        population = subtrees_on_edge(inst, (u, v))
        subset = [i for i in population if (i * 2654435761 + subset_seed) % 3 != 0]
        for chosen in (list(population), subset):
            yield edge_complement_bipartite(inst, (u, v), chosen)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), subset_seed=st.integers(0, 2**16))
def test_edge_complements_are_two_colorable(seed, subset_seed):
    for bip in edge_complements(make_instance(seed), subset_seed):
        n = len(bip.left) + len(bip.right)
        shifted = [(lp, len(bip.left) + rp) for lp, rp in edges_of(bip)]
        assert bfs_two_colorable(n, shifted)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), subset_seed=st.integers(0, 2**16))
def test_edge_complement_rows_match_collide(seed, subset_seed):
    # bit rp of row lp is set iff left[lp] and right[rp] do not collide
    inst = make_instance(seed)
    sub = inst.subtrees
    for bip in edge_complements(inst, subset_seed):
        for lp, i in enumerate(bip.left):
            assert bip.rows[lp] == sum(
                1 << rp for rp, j in enumerate(bip.right) if not collide(sub[i], sub[j])
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coloring_validity_equivalence(seed):
    # distinct colors per directed edge <=> proper coloring of the
    # conflict graph; checked by comparing the two formulations
    inst = make_instance(seed, max_vertices=6, max_subtrees=6)
    g = build_conflict_graph(inst)
    # color greedily in index order to get some total coloring
    colors: dict[int, int] = {}
    for i in range(inst.size):
        used = {colors[j] for j in neighbors(g, i) if j in colors}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    by_graph = all(
        colors[i] != colors[j]
        for i in range(g.n)
        for j in neighbors(g, i)
    )
    by_arcs = all(
        len({colors[i] for i in ix}) == len(ix)
        for ix in inst.arc_members
    )
    assert by_graph == by_arcs
