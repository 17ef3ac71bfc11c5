from __future__ import annotations

import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    classify_edge_reference,
    collide_naive,
    coloring_valid_naive,
    first_fit_naive,
    greedy_reference,
    labeled_trees,
    reuse_graph_reference,
    subtrees_on_arc,
    subtrees_on_edge,
)
from treewave import (
    GenParams,
    HostTree,
    InputError,
    Instance,
    RootedSubtree,
    SweepSpec,
    bfs_edge_order,
    build_conflict_graph,
    classify_edge,
    exact_chromatic,
    first_fit_baseline,
    generate_instance,
    greedy_color,
    load,
    normalize,
    process_edge_1,
    process_edge_2,
    process_edge_simple,
    sweep_items,
)
from treewave import greedy
from treewave.greedy import ArcColors, _reuse_graph
from treewave.matching import max_bipartite_matching
from treewave.rng import derive_seed


def _assert_kinds_match_reference(tree, order):
    """`order.kinds` are the reference's kinds, and each fork's x by the
    paper's definition is the far end of the next round's edge, where the
    round loop reads it."""
    reference = classify_edge_reference(tree, order.edges)
    assert order.kinds == tuple(rt.kind for rt in reference)
    for i, rt in enumerate(reference):
        if rt.kind == 4:
            assert order.edges[i + 1] == (order.edges[i][0], rt.x)


class TestBfsEdgeOrder:
    def test_p3_from_end(self, p3_tree):
        order = bfs_edge_order(p3_tree, 0)
        assert order.edges == ((0, 1), (1, 2))

    def test_star_ascending_neighbors(self, star_tree):
        order = bfs_edge_order(star_tree, 0)
        assert order.edges == ((0, 1), (0, 2), (0, 3))

    def test_p3_from_middle(self, p3_tree):
        order = bfs_edge_order(p3_tree, 1)
        assert order.edges == ((1, 0), (1, 2))

    def test_root_out_of_range(self, p3_tree):
        with pytest.raises(InputError):
            bfs_edge_order(p3_tree, 7)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parent_side_already_discovered(self, seed):
        """At every root, each edge runs from a discovered vertex to a new
        one, and the kinds and each fork's x agree with the reference."""
        inst = make_instance(seed)
        for root in range(inst.tree.vertices):
            order = bfs_edge_order(inst.tree, root)
            discovered = {root}
            for u, v in order.edges:
                assert u in discovered
                assert v not in discovered
                discovered.add(v)
            _assert_kinds_match_reference(inst.tree, order)


class TestClassifyEdge:
    def test_star_types(self, star_tree):
        order = bfs_edge_order(star_tree, 0)
        assert [classify_edge(order, i) for i in (1, 2, 3)] == [1, 4, 3]
        assert order.edges[2][1] == 3  # the fork's x, read from the next round

    def test_p3_types(self, p3_tree):
        order = bfs_edge_order(p3_tree, 0)
        assert [classify_edge(order, i) for i in (1, 2)] == [1, 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_first_round_always_kind_1(self, seed):
        inst = make_instance(seed)
        order = bfs_edge_order(inst.tree, 0)
        if order.edges:
            assert classify_edge(order, 1) == 1

    def test_bad_round_index(self, p3_tree):
        order = bfs_edge_order(p3_tree, 0)
        with pytest.raises(InputError):
            classify_edge(order, 0)
        with pytest.raises(InputError):
            classify_edge(order, 3)

    @staticmethod
    def _assert_matches_reference(tree, root):
        order = bfs_edge_order(tree, root)
        kinds = [classify_edge(order, i) for i in range(1, len(order.edges) + 1)]
        assert kinds == list(order.kinds)
        _assert_kinds_match_reference(tree, order)

    def test_matches_reference_on_every_small_tree_and_root(self):
        """Every labeled tree of degree <= 3 on 2-7 vertices, under every root."""
        cases = 0
        for n in range(2, 8):
            for tree in labeled_trees(n):
                if tree.degree_ok:
                    for root in range(n):
                        self._assert_matches_reference(tree, root)
                        cases += 1
        assert cases == 106_185

    def test_matches_reference_on_random_trees_under_every_root(self):
        """Seeded random degree-3 trees of 2-40 vertices: vertex k joins a
        random earlier vertex of degree below 3."""
        rng = random.Random(20181)
        for n in range(2, 41):
            degree = [0] * n
            edges = []
            for k in range(1, n):
                parent = rng.choice([v for v in range(k) if degree[v] < 3])
                edges.append((parent, k))
                degree[parent] += 1
                degree[k] += 1
            tree = HostTree.of(n, edges)
            for root in range(n):
                self._assert_matches_reference(tree, root)

    def test_degree_4_star_rejected_before_the_root(self):
        """The BFS pass refuses a vertex of degree 4 before any round is
        typed, and before it checks the root (9 is out of range)."""
        star = HostTree.of(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        message = r"^greedy coloring requires host tree degree <= 3$"
        for root in (0, 9):
            with pytest.raises(InputError, match=message):
                bfs_edge_order(star, root)


def _colored(psi) -> dict[int, int]:
    """The colored subtrees of a color-per-subtree sequence (0: uncolored)."""
    return {i: c for i, c in enumerate(psi) if c}


def _state(inst, psi=()) -> ArcColors:
    state = ArcColors(inst)
    for i, c in dict(psi).items():
        state.assign(i, c)
    return state


def _first_fit(inst, psi, i, partner=None) -> int:
    """The color `assign_first_fit` gives subtree i, alone or with its
    partner, on a fresh state holding `psi`."""
    state = _state(inst, psi)
    state.assign_first_fit([i], {} if partner is None else {i: partner})
    if partner is not None:
        assert state.psi[partner] == state.psi[i]
    return state.psi[i]


class TestFirstFit:
    def test_no_colored_neighbors(self, p3_demo):
        assert _first_fit(p3_demo, {}, 0) == 1

    def test_skips_used(self, star_demo):
        # subtree 1 collides with 0, 2 and 4
        assert _first_fit(star_demo, {0: 1, 2: 2}, 1) == 3
        assert _first_fit(star_demo, {0: 1, 2: 3}, 1) == 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_over_random_partial_colorings(self, seed):
        inst = make_instance(seed)
        rng = random.Random(seed)
        state = ArcColors(inst)
        for i in rng.sample(range(inst.size), inst.size):
            c = rng.randint(1, 5)
            if rng.random() < 0.7 and not any(
                cj == c and collide_naive(inst.subtrees[i], inst.subtrees[j])
                for j, cj in _colored(state.psi).items()
            ):
                state.assign(i, c)
        state.unassign([i for i in _colored(state.psi) if rng.random() < 0.3])
        psi = _colored(state.psi)
        assert _state_consistent(state)
        uncolored = [i for i in range(inst.size) if i not in psi]
        for i in uncolored:
            assert _first_fit(inst, psi, i) == first_fit_naive(inst, psi, i)
        for i, j in itertools.combinations(uncolored, 2):
            if not collide_naive(inst.subtrees[i], inst.subtrees[j]):
                assert _first_fit(inst, psi, i, j) == first_fit_naive(inst, psi, i, j)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_first_fit_matches_sequential(self, seed):
        """`assign_first_fit` colors its queue as `first_fit_naive` does one
        subtree at a time, in queue order, skipping colored subtrees, on
        queues of a normalized instance that hold runs of identical
        single-arc padding subtrees."""
        inst = normalize(make_instance(seed, max_vertices=8, max_subtrees=12)).padded
        rng = random.Random(seed)
        base = ArcColors(inst)
        for i in rng.sample(range(inst.size), inst.size // 2):
            c = rng.randint(1, 6)
            if not base.colors_on(i) >> c & 1:
                base.assign(i, c)
        psi = _colored(base.psi)
        uncolored = [i for i in range(inst.size) if i not in psi]
        start = rng.randint(0, len(uncolored))
        queue = uncolored[start:] if rng.random() < 0.5 else [
            i for i in range(inst.size) if rng.random() < 0.6
        ]
        expected = dict(psi)
        for q in queue:
            if q not in expected:
                expected[q] = first_fit_naive(inst, expected, q)
        batched = _state(inst, psi)
        batched.assign_first_fit(queue, {})
        assert _colored(batched.psi) == expected
        assert _state_consistent(batched)

    def test_batched_first_fit_on_a_run_of_duplicates(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        inst = Instance(p3_tree, (dup,) * 5 + (RootedSubtree.of(1, [[1, 2]]),))
        state = _state(inst, {0: 2, 5: 1})
        state.assign_first_fit([1, 2, 3, 4], {})
        assert state.psi == [2, 1, 3, 4, 5, 1]
        assert _state_consistent(state)


class TestProcessEdgeSimple:
    def test_empty_queue_no_change(self, p3_demo):
        state = _state(p3_demo, {0: 1})
        process_edge_simple(state, ())
        assert state.psi == [1, 0, 0]

    def test_p3_demo_round1(self, p3_demo):
        state = _state(p3_demo)
        process_edge_simple(state, (0, 1, 2))
        assert state.psi == [1, 1, 2]

    def test_two_colliding_uncolored(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        state = _state(Instance(p3_tree, (dup, dup)))
        process_edge_simple(state, (0, 1))
        assert state.psi == [1, 2]


class TestProcessEdge1:
    def test_empty_queue_identity(self, p3_demo):
        state = _state(p3_demo, {0: 1, 1: 1, 2: 2})
        process_edge_1(state, (), (0, 1))
        assert state.psi == [1, 1, 2]

    def test_single_inherit_via_matching(self, p3_tree):
        inst = Instance(
            p3_tree,
            (RootedSubtree.of(0, [[0, 1]]), RootedSubtree.of(1, [[1, 0]])),
        )
        state = _state(inst, {0: 1})
        process_edge_1(state, (1,), (0, 1))
        assert state.psi[1] == 1


class TestProcessEdge2:
    def test_no_queue_on_fork_edge_degenerates_to_first_fit(self, star_tree):
        inst = Instance(
            star_tree,
            (
                RootedSubtree.of(0, [[0, 2]]),
                RootedSubtree.of(0, [[0, 2]]),
            ),
        )
        state_a = _state(inst)
        process_edge_2(state_a, (0, 1), 0, 2, 3)
        state_b = _state(inst)
        process_edge_simple(state_b, (0, 1))
        assert state_a.psi == state_b.psi == [1, 2]

    def test_no_queue_on_fork_edge_beside_colored_ones_goes_first_fit(self, star_tree):
        """Subtrees colored on {u,x} alone make the reuse graph non-empty,
        but with nothing queued there its matching colors nothing: the
        queue still goes first-fit."""
        inst = Instance(
            star_tree,
            (
                RootedSubtree.of(0, [[0, 2]]),
                RootedSubtree.of(0, [[0, 3]]),
                RootedSubtree.of(3, [[3, 0]]),
            ),
        )
        state = _state(inst, {1: 1, 2: 2})
        process_edge_2(state, (0,), 0, 2, 3)
        assert state.psi == [1, 1, 2]

    def test_queue_pairs_on_fork_edge_share_colors(self, star_tree):
        inst = Instance(
            star_tree,
            (
                RootedSubtree.of(2, [[2, 0], [0, 3]]),
                RootedSubtree.of(3, [[3, 0], [0, 2]]),
            ),
        )
        state = _state(inst)
        process_edge_2(state, (0, 1), 0, 2, 3)
        assert state.psi == [1, 1]


def _partial_valid(inst, psi) -> bool:
    colored = sorted(psi)
    for i, j in itertools.combinations(colored, 2):
        if psi[i] == psi[j] and collide_naive(inst.subtrees[i], inst.subtrees[j]):
            return False
    return True


def _contiguous(colors) -> bool:
    used = set(colors)
    return used == set(range(1, len(used) + 1))


def _state_consistent(state) -> bool:
    """Per-arc color masks agree with the assignment."""
    inst, psi = state.inst, state.psi
    for p, on_arc in enumerate(inst.arc_members):
        if state.arc_colors[p] != sum({1 << psi[i] for i in on_arc if psi[i]}):
            return False
    return True


def _sides(inst, edge, members) -> tuple[list[int], list[int]]:
    """`members` (ascending, on `edge`) split into the subtrees on the
    (min,max) and on the (max,min) direction."""
    a, b = min(edge), max(edge)
    on_left = set(subtrees_on_arc(inst, (a, b)))
    return [k for k in members if k in on_left], [
        k for k in members if k not in on_left
    ]


def _replay_with_subroutine_checks(
    inst, check_partial: bool = True
) -> tuple[list[int], int]:
    """Mirror the round loop, checking subroutine invariants at every
    fork round; returns the final colors and the fork-round count.
    `check_partial=False` skips the quadratic pairwise validity scans."""
    order = bfs_edge_order(inst.tree, 0)
    state = ArcColors(inst)
    forks = 0
    for i in range(1, len(order.edges) + 1):
        u, v = order.edges[i - 1]
        kind = classify_edge(order, i)
        queue = tuple(j for j in subtrees_on_edge(inst, (u, v)) if not state.psi[j])
        if kind != 4:
            process_edge_simple(state, queue)
            assert not check_partial or _partial_valid(inst, _colored(state.psi))
            assert _state_consistent(state)
            continue
        forks += 1
        before = _colored(state.psi)
        colored = frozenset(before)
        qset = set(queue)

        # scheme 1 invariants
        members1 = [
            k for k in subtrees_on_edge(inst, (u, v)) if k in colored or k in qset
        ]
        bip1 = _reuse_graph(state, *_sides(inst, (u, v), members1))
        assert bip1 == reuse_graph_reference(state, (u, v), members1)
        m1 = max_bipartite_matching(bip1)
        process_edge_1(state, queue, (u, v))
        psi1 = _colored(state.psi)
        assert not check_partial or _partial_valid(inst, psi1)
        assert set(queue) <= set(psi1)
        v1_colors = {psi1[k] for k in members1}
        assert len(v1_colors) <= len(members1) - m1.size
        for lp, rp in m1.pairs:
            assert psi1[bip1.left[lp]] == psi1[bip1.right[rp]]
        assert _state_consistent(state)
        c1 = len(set(psi1.values()))
        state.unassign(queue)
        assert _colored(state.psi) == before and _state_consistent(state)

        # scheme 2 invariants
        x = order.edges[i][1]
        on_ux = set(subtrees_on_edge(inst, (u, x)))
        colored_uv = {
            k for k in subtrees_on_edge(inst, (u, v)) if k in colored
        }
        members2 = [
            k
            for k in sorted(on_ux)
            if (k in colored and k not in colored_uv) or k in qset
        ]
        bip2 = _reuse_graph(state, *_sides(inst, (u, x), members2))
        assert bip2 == reuse_graph_reference(state, (u, x), members2)
        m2 = max_bipartite_matching(bip2)
        process_edge_2(state, queue, u, v, x)
        psi2 = _colored(state.psi)
        assert not check_partial or _partial_valid(inst, psi2)
        assert set(queue) <= set(psi2)
        if members2:
            v2_colors = {psi2[k] for k in members2}
            assert len(v2_colors) <= len(members2) - m2.size
        for lp, rp in m2.pairs:
            assert psi2[bip2.left[lp]] == psi2[bip2.right[rp]]
        assert _state_consistent(state)
        c2 = len(set(psi2.values()))

        state = _state(inst, psi1 if c1 <= c2 else psi2)
        assert _contiguous(_colored(state.psi).values())
    return state.psi, forks


class TestGreedyColor:
    def test_empty_instance(self, p3_tree):
        res = greedy_color(Instance(p3_tree, ()))
        assert res.coloring.colors_used == 0
        assert len(res.trace) == 2

    def test_p3_demo_optimal(self, p3_demo):
        res = greedy_color(p3_demo)
        chi, _ = exact_chromatic(build_conflict_graph(p3_demo))
        assert res.coloring.colors_used == 2 == chi
        assert res.coloring.assignment[0] != res.coloring.assignment[2]

    def test_degree_4_rejected(self):
        star5 = HostTree.of(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        inst = Instance(star5, (RootedSubtree.of(0, [[0, 1]]),))
        message = r"^greedy coloring requires host tree degree <= 3$"
        with pytest.raises(InputError, match=message):
            greedy_color(inst)

    def test_deterministic(self, star_demo):
        assert greedy_color(star_demo) == greedy_color(star_demo)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_valid_contiguous_and_bounded_below(self, seed):
        inst = make_instance(seed)
        res = greedy_color(inst)
        psi = res.coloring.assignment
        assert len(psi) == inst.size and all(c >= 1 for c in psi)
        assert coloring_valid_naive(inst, psi)
        assert _contiguous(psi)
        assert res.coloring.colors_used >= load(inst)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_recurrences(self, seed):
        """Each round colors exactly the edge's uncolored subtrees, and its
        color count is both the number of distinct colors and the largest
        color on the subtrees colored so far (a color never changes once
        its round ends, so the final coloring gives the round's colors)."""
        inst = make_instance(seed)
        res = greedy_color(inst)
        psi = res.coloring.assignment
        colored: set[int] = set()
        for rs in res.trace:
            expected_queue = tuple(
                j for j in subtrees_on_edge(inst, rs.edge) if j not in colored
            )
            assert rs.newly_colored == expected_queue
            assert colored.isdisjoint(rs.newly_colored)
            colored |= set(rs.newly_colored)
            so_far = {psi[j] for j in colored}
            assert rs.colors_used_after == len(so_far) == max(so_far, default=0)
        assert sorted(colored) == list(range(inst.size))
        assert len(res.trace) == len(inst.tree.edges)
        assert res.trace[-1].colors_used_after == res.coloring.colors_used

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exactly_one_kind_1_round(self, seed):
        inst = make_instance(seed)
        res = greedy_color(inst)
        kinds = [rs.kind for rs in res.trace]
        if kinds:
            assert kinds.count(1) == 1
            assert kinds[0] == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fork_commits_the_better_scheme(self, seed):
        inst = make_instance(seed)
        res = greedy_color(inst, all_choices=True)
        for choice in res.scheme_choices:
            committed = res.trace[choice.round - 1].colors_used_after
            assert committed == min(choice.colors_scheme1, choice.colors_scheme2)
            assert choice.chosen == (
                1 if choice.colors_scheme1 <= choice.colors_scheme2 else 2
            )


def test_subroutine_invariants_on_fork_rounds():
    forks_seen = 0
    for seed in range(160):
        inst = make_instance(seed, max_vertices=9, max_subtrees=9)
        psi, forks = _replay_with_subroutine_checks(inst)
        forks_seen += forks
        res = greedy_color(inst)
        assert list(res.coloring.assignment) == psi
    assert forks_seen >= 60


def test_reuse_graph_matches_reference_on_normalized_forks():
    """The one-pass reuse graph equals the checked complement plus filter,
    sides and edge order included, on every fork round of normalized
    instances (checked inside the replay)."""
    forks_seen = 0
    for seed in range(60):
        padded = normalize(make_instance(seed, max_vertices=14, max_subtrees=16)).padded
        psi, forks = _replay_with_subroutine_checks(padded)
        forks_seen += forks
        assert list(greedy_color(padded).coloring.assignment) == psi
    assert forks_seen >= 60


def _color_large_padded(i):
    """The i-th padded seed-1 `color-large` input (V=100, 200 requests)."""
    params = GenParams(100, 3, 200, (1, 6), seed=derive_seed(1, i))
    return normalize(generate_instance(params)).padded


def test_reuse_graph_matches_reference_at_color_large_size():
    """The same replay on padded V=100, 200-request instances, where one
    side of a fork edge often carries several colored subtrees."""
    forks_seen = 0
    for i in range(8):
        padded = _color_large_padded(i)
        psi, forks = _replay_with_subroutine_checks(padded, check_partial=False)
        forks_seen += forks
        assert list(greedy_color(padded).coloring.assignment) == psi
    assert forks_seen >= 200


def test_normalized_star_demo_matches_replay(star_demo):
    padded = normalize(star_demo).padded
    psi, forks = _replay_with_subroutine_checks(padded)
    assert forks == 1
    assert list(greedy_color(padded).coloring.assignment) == psi


def _choice_records(res):
    return [
        (c.round, c.edge, c.chosen, c.colors_scheme1, c.colors_scheme2)
        for c in res.scheme_choices
    ]


def _outputs(inst, root):
    """Coloring, per-round (kind, edge, newly colored, colors used) and
    per-fork (round, edge, chosen, scheme 1 and 2 colors) of the greedy,
    in the form `greedy_reference` returns them."""
    res = greedy_color(inst, root, all_choices=True)
    rounds = [
        (rs.kind, rs.edge, rs.newly_colored, rs.colors_used_after) for rs in res.trace
    ]
    return dict(enumerate(res.coloring.assignment)), rounds, _choice_records(res)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    root=st.integers(0, 39),
    normalized=st.booleans(),
)
def test_matches_whole_greedy_reference(seed, root, normalized):
    """Raw and normalized instances of 2-40 vertices, at a random root."""
    inst = make_instance(seed, max_vertices=40, max_subtrees=40, max_arcs=5)
    if normalized:
        inst = normalize(inst).padded
    root %= inst.tree.vertices
    assert _outputs(inst, root) == greedy_reference(inst, root)


def test_matches_whole_greedy_reference_on_color_large_inputs():
    """The benchmark's 64 seed-1 `color-large` inputs, padded, at root 0."""
    forks = 0
    for i in range(64):
        params = GenParams(100, 3, 200, (1, 6), seed=derive_seed(1, i))
        padded = normalize(generate_instance(params)).padded
        expected = greedy_reference(padded, 0)
        assert _outputs(padded, 0) == expected
        forks += len(expected[2])
    assert forks == 2369


def _check_scheme_2_runs_only_where_scheme_1_opens_a_color(inst, root):
    """By default scheme 2 runs during `greedy_color` exactly in the fork
    rounds whose scheme 1 ended above the previous round's count, in round
    order, and `scheme_choices` holds the reference's record of those
    rounds; with `all_choices` it runs in every fork round and
    `scheme_choices` equals the reference's whole record.  Both modes give
    the reference's coloring and the same trace.  Returns how many fork
    rounds ran scheme 2 by default and how many skipped it."""
    runs = []
    for all_choices in (False, True):
        with mock.patch.object(greedy, "process_edge_2", wraps=greedy.process_edge_2) as pe2:
            res = greedy_color(inst, root, all_choices=all_choices)
            runs.append((res, [(c.args[2], c.args[3]) for c in pe2.call_args_list]))
    (lazy, ran), (every, ran_every) = runs
    psi, rounds, choices = greedy_reference(inst, root)
    opened = [ch for ch in choices if ch[3] > rounds[ch[0] - 2][3]]
    assert ran == [edge for _, edge, _, _, _ in opened]
    assert ran_every == [edge for _, edge, _, _, _ in choices]
    assert _choice_records(lazy) == opened
    assert _choice_records(every) == choices
    assert (lazy.coloring, lazy.trace) == (every.coloring, every.trace)
    assert dict(enumerate(lazy.coloring.assignment)) == psi
    return len(opened), len(choices) - len(opened)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    root=st.integers(0, 39),
    normalized=st.booleans(),
)
def test_scheme_2_runs_only_where_scheme_1_opens_a_color(seed, root, normalized):
    inst = make_instance(seed, max_vertices=40, max_subtrees=40, max_arcs=5)
    if normalized:
        inst = normalize(inst).padded
    _check_scheme_2_runs_only_where_scheme_1_opens_a_color(inst, root % inst.tree.vertices)


def test_scheme_2_runs_only_where_scheme_1_opens_a_color_at_color_large_size():
    ran = skipped = 0
    for i in range(8):
        r, s = _check_scheme_2_runs_only_where_scheme_1_opens_a_color(_color_large_padded(i), 0)
        ran, skipped = ran + r, skipped + s
    assert ran > 0 and skipped > 10 * ran


# SHA-256 over greedy results (coloring, per-round kind/edge/newly_colored/
# color count, scheme choices) and first-fit baselines on a fixed seeded set;
# recorded from the conflict-graph greedy this implementation must reproduce.
GREEDY_DIGEST = "731da8b3b704c43823c54da5a46387d7fcbbec28132b251cc6d8c6e95b86f689"


def _digest_cases():
    for item in sweep_items(SweepSpec(300, 7)):
        yield item.instance, 0
        yield normalize(item.instance).padded, 0
    for i in range(8):
        params = GenParams(100, 3, 200, (1, 6), seed=derive_seed(1, i))
        inst = normalize(generate_instance(params)).padded
        yield inst, 0
        yield inst, 7


def test_results_match_recorded_digest():
    h = hashlib.sha256()
    for inst, root in _digest_cases():
        res = greedy_color(inst, root, all_choices=True)
        rounds = [
            (rs.kind, rs.edge, rs.newly_colored, rs.colors_used_after)
            for rs in res.trace
        ]
        base = first_fit_baseline(inst).color_list(inst.size)
        choices = _choice_records(res)
        h.update(repr((res.coloring.color_list(inst.size), rounds, choices, base)).encode())
    assert h.hexdigest() == GREEDY_DIGEST
