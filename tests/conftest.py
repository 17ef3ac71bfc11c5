from __future__ import annotations

import pytest

from treewave import GenParams, HostTree, Instance, RootedSubtree, generate_instance
from treewave.rng import derive_seed


@pytest.fixture
def p3_tree() -> HostTree:
    return HostTree.of(3, [[0, 1], [1, 2]])


@pytest.fixture
def p3_demo(p3_tree) -> Instance:
    """Path 0-1-2 with subtrees A=(0,1), B=(1,0), C=(0,1)+(1,2)."""
    return Instance(
        p3_tree,
        (
            RootedSubtree.of(0, [[0, 1]]),
            RootedSubtree.of(1, [[1, 0]]),
            RootedSubtree.of(0, [[0, 1], [1, 2]]),
        ),
    )


@pytest.fixture
def p3_reversed() -> Instance:
    """Path 2-1-0 with its edges listed out of sorted order: the directed
    path 2->1->0 twice, then (0,1)."""
    return Instance(
        HostTree.of(3, [[2, 1], [1, 0]]),
        (
            RootedSubtree.of(2, [[2, 1], [1, 0]]),
            RootedSubtree.of(2, [[2, 1], [1, 0]]),
            RootedSubtree.of(0, [[0, 1]]),
        ),
    )


@pytest.fixture
def star_tree() -> HostTree:
    return HostTree.of(4, [[0, 1], [0, 2], [0, 3]])


@pytest.fixture
def star_demo(star_tree) -> Instance:
    """Degree-3 star exercising the fork (type 4) coloring round."""
    return Instance(
        star_tree,
        (
            RootedSubtree.of(1, [[1, 0], [0, 2]]),
            RootedSubtree.of(0, [[0, 1], [0, 2], [0, 3]]),
            RootedSubtree.of(2, [[2, 0], [0, 1]]),
            RootedSubtree.of(0, [[0, 3]]),
            RootedSubtree.of(3, [[3, 0], [0, 1]]),
        ),
    )


def make_instance(
    seed: int,
    max_vertices: int = 9,
    max_subtrees: int = 10,
    max_degree: int = 3,
    min_arcs: int = 1,
    max_arcs: int = 3,
) -> Instance:
    """Seeded random instance with sizes drawn from the seed itself."""
    from treewave.rng import XorShift64Star

    rng = XorShift64Star(derive_seed(seed, 0))
    vertices = rng.randint(2, max_vertices)
    count = rng.randint(0, max_subtrees)
    params = GenParams(
        num_vertices=vertices,
        max_degree=max_degree,
        num_subtrees=count,
        subtree_size_range=(min_arcs, max_arcs),
        seed=rng.next_u64(),
    )
    return generate_instance(params)
