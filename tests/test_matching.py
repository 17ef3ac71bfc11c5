from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_matching_size, brute_matching, kuhn_recursive
from treewave import BipartiteGraph, LimitError, max_bipartite_matching
from treewave.rng import XorShift64Star


def random_bipartite(seed: int, max_side: int = 8, density: int = 40) -> BipartiteGraph:
    rng = XorShift64Star(seed)
    nl = rng.randint(0, max_side)
    nr = rng.randint(0, max_side)
    # left/right carry disjoint original indices
    left = tuple(range(nl))
    right = tuple(range(nl, nl + nr))
    edges = tuple(
        (lp, rp)
        for lp in range(nl)
        for rp in range(nr)
        if rng.below(100) < density
    )
    return BipartiteGraph(left, right, edges)


class TestMaxBipartiteMatching:
    def test_edgeless(self):
        g = BipartiteGraph((0, 1), (2, 3), ())
        assert max_bipartite_matching(g).size == 0

    def test_single_edge(self):
        g = BipartiteGraph((0,), (1,), ((0, 0),))
        m = max_bipartite_matching(g)
        assert m.size == 1 and m.pairs == ((0, 0),)

    def test_augmenting_required(self):
        # a-c, b-c, b-d: greedy without augmenting would stop at 1
        g = BipartiteGraph((0, 1), (2, 3), ((0, 0), (1, 0), (1, 1)))
        assert max_bipartite_matching(g).size == 2
        assert brute_matching(2, 2, g.edges) == 2

    def test_pairs_are_edges_and_disjoint(self):
        g = random_bipartite(99)
        m = max_bipartite_matching(g)
        lefts = [lp for lp, _ in m.pairs]
        rights = [rp for _, rp in m.pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert set(m.pairs) <= set(g.edges)

    def test_deterministic(self):
        g = random_bipartite(777)
        assert max_bipartite_matching(g) == max_bipartite_matching(g)

    def test_chain_deeper_than_recursion_limit(self):
        # left l -> rights l, l+1 and the last left -> right 0: the last
        # left's one augmenting path crosses every vertex
        n = 20_000
        edges = tuple((l, r) for l in range(n - 1) for r in (l, l + 1))
        g = BipartiteGraph(
            tuple(range(n)), tuple(range(n, 2 * n)), edges + ((n - 1, 0),)
        )
        m = max_bipartite_matching(g)
        assert m.size == n
        assert m.pairs[-1] == (n - 1, 0)


class TestBruteForce:
    def test_edgeless(self):
        assert brute_force_matching_size(BipartiteGraph((0,), (1,), ())) == 0

    def test_complete_3x2(self):
        g = BipartiteGraph(
            (0, 1, 2), (3, 4), tuple((l, r) for l in range(3) for r in range(2))
        )
        assert brute_force_matching_size(g) == 2

    def test_guard(self):
        g = BipartiteGraph(tuple(range(13)), tuple(range(13, 26)), ())
        with pytest.raises(LimitError):
            brute_force_matching_size(g)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matching_agrees_with_brute_force(seed):
    g = random_bipartite(seed)
    m = max_bipartite_matching(g)
    assert m.size == brute_force_matching_size(g)
    assert m.pairs == kuhn_recursive(g)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matching_agrees_with_take_skip_oracle(seed):
    g = random_bipartite(seed, max_side=5)
    assert max_bipartite_matching(g).size == brute_matching(
        len(g.left), len(g.right), g.edges
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drop=st.integers(0, 10**6))
def test_deleting_an_edge_never_helps(seed, drop):
    g = random_bipartite(seed)
    if not g.edges:
        return
    removed = g.edges[drop % len(g.edges)]
    smaller = BipartiteGraph(
        g.left, g.right, tuple(e for e in g.edges if e != removed)
    )
    assert max_bipartite_matching(smaller).size <= max_bipartite_matching(g).size


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_size_bounded_by_smaller_side(seed):
    g = random_bipartite(seed)
    assert max_bipartite_matching(g).size <= min(len(g.left), len(g.right))
