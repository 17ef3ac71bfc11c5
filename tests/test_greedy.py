from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    collide_naive,
    coloring_valid_naive,
    first_fit_naive,
    reuse_graph_reference,
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
    subtrees_on_edge,
    sweep_items,
)
from treewave.greedy import ArcColors, _reuse_graph
from treewave.matching import max_bipartite_matching
from treewave.rng import derive_seed


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
        inst = make_instance(seed)
        order = bfs_edge_order(inst.tree, 0)
        discovered = {0}
        for u, v in order.edges:
            assert u in discovered
            assert v not in discovered
            discovered.add(v)


class TestClassifyEdge:
    def test_star_types(self, star_tree):
        order = bfs_edge_order(star_tree, 0)
        kinds = [classify_edge(order, i) for i in (1, 2, 3)]
        assert [k.kind for k in kinds] == [1, 4, 3]
        assert (kinds[1].w, kinds[1].x) == (1, 3)

    def test_p3_types(self, p3_tree):
        order = bfs_edge_order(p3_tree, 0)
        assert [classify_edge(order, i).kind for i in (1, 2)] == [1, 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_first_round_always_kind_1(self, seed):
        inst = make_instance(seed)
        order = bfs_edge_order(inst.tree, 0)
        if order.edges:
            assert classify_edge(order, 1).kind == 1

    def test_bad_round_index(self, p3_tree):
        order = bfs_edge_order(p3_tree, 0)
        with pytest.raises(InputError):
            classify_edge(order, 0)
        with pytest.raises(InputError):
            classify_edge(order, 3)


def _state(inst, psi=()) -> ArcColors:
    state = ArcColors(inst)
    for i, c in dict(psi).items():
        state.assign(i, c)
    return state


class TestFirstFit:
    def test_no_colored_neighbors(self, p3_demo):
        assert _state(p3_demo).first_fit(0) == 1

    def test_skips_used(self, star_demo):
        # subtree 1 collides with 0, 2 and 4
        assert _state(star_demo, {0: 1, 2: 2}).first_fit(1) == 3
        assert _state(star_demo, {0: 1, 2: 3}).first_fit(1) == 2

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
                for j, cj in state.psi.items()
            ):
                state.assign(i, c)
        for i in [i for i in state.psi if rng.random() < 0.3]:
            state.unassign(i)
        psi = dict(state.psi)
        assert state.colors_used() == len(set(psi.values()))
        uncolored = [i for i in range(inst.size) if i not in psi]
        for i in uncolored:
            assert state.first_fit(i) == first_fit_naive(inst, psi, i)
        for i, j in itertools.combinations(uncolored, 2):
            assert state.first_fit(i, j) == first_fit_naive(inst, psi, i, j)


class TestProcessEdgeSimple:
    def test_empty_queue_no_change(self, p3_demo):
        state = _state(p3_demo, {0: 1})
        process_edge_simple(state, ())
        assert state.psi == {0: 1}

    def test_p3_demo_round1(self, p3_demo):
        state = _state(p3_demo)
        process_edge_simple(state, (0, 1, 2))
        assert state.psi == {0: 1, 1: 1, 2: 2}

    def test_two_colliding_uncolored(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        state = _state(Instance(p3_tree, (dup, dup)))
        process_edge_simple(state, (0, 1))
        assert state.psi == {0: 1, 1: 2}


class TestProcessEdge1:
    def test_empty_queue_identity(self, p3_demo):
        state = _state(p3_demo, {0: 1, 1: 1, 2: 2})
        process_edge_1(state, (), (0, 1))
        assert state.psi == {0: 1, 1: 1, 2: 2}

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
        assert state_a.psi == state_b.psi == {0: 1, 1: 2}

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
        assert state.psi == {0: 1, 1: 1}


def _partial_valid(inst, psi) -> bool:
    colored = sorted(psi)
    for i, j in itertools.combinations(colored, 2):
        if psi[i] == psi[j] and collide_naive(inst.subtrees[i], inst.subtrees[j]):
            return False
    return True


def _contiguous(psi) -> bool:
    used = set(psi.values())
    return used == set(range(1, len(used) + 1))


def _state_consistent(state) -> bool:
    """Per-arc colors and color counts agree with the assignment."""
    inst, psi = state.inst, state.psi
    for arc, on_arc in inst.per_arc_index.items():
        if state.arc_colors[arc] != {psi[i] for i in on_arc if i in psi}:
            return False
    counts: dict[int, int] = {}
    for c in psi.values():
        counts[c] = counts.get(c, 0) + 1
    return state.color_count == counts


def _replay_with_subroutine_checks(inst) -> tuple[dict[int, int], int]:
    """Mirror the round loop, checking subroutine invariants at every
    fork round; returns the final assignment and the fork-round count."""
    order = bfs_edge_order(inst.tree, 0)
    state = ArcColors(inst)
    forks = 0
    for i in range(1, len(order.edges) + 1):
        u, v = order.edges[i - 1]
        et = classify_edge(order, i)
        queue = tuple(j for j in subtrees_on_edge(inst, (u, v)) if j not in state.psi)
        if et.kind != 4:
            process_edge_simple(state, queue)
            assert _partial_valid(inst, state.psi)
            assert _state_consistent(state)
            continue
        forks += 1
        before = dict(state.psi)
        colored = frozenset(before)
        qset = set(queue)

        # scheme 1 invariants
        members1 = [
            k for k in subtrees_on_edge(inst, (u, v)) if k in colored or k in qset
        ]
        bip1 = _reuse_graph(state, (u, v), members1)
        assert bip1 == reuse_graph_reference(state, (u, v), members1)
        m1 = max_bipartite_matching(bip1)
        process_edge_1(state, queue, (u, v))
        psi1 = dict(state.psi)
        assert _partial_valid(inst, psi1)
        assert set(queue) <= set(psi1)
        v1_colors = {psi1[k] for k in members1}
        assert len(v1_colors) <= len(members1) - m1.size
        for lp, rp in m1.pairs:
            assert psi1[bip1.left[lp]] == psi1[bip1.right[rp]]
        assert _state_consistent(state)
        c1 = state.colors_used()
        for q in queue:
            state.unassign(q)
        assert state.psi == before and _state_consistent(state)

        # scheme 2 invariants
        on_ux = set(subtrees_on_edge(inst, (u, et.x)))
        colored_uv = {
            k for k in subtrees_on_edge(inst, (u, v)) if k in colored
        }
        members2 = [
            k
            for k in sorted(on_ux)
            if (k in colored and k not in colored_uv) or k in qset
        ]
        bip2 = _reuse_graph(state, (u, et.x), members2)
        assert bip2 == reuse_graph_reference(state, (u, et.x), members2)
        m2 = max_bipartite_matching(bip2)
        process_edge_2(state, queue, u, v, et.x)
        psi2 = dict(state.psi)
        assert _partial_valid(inst, psi2)
        assert set(queue) <= set(psi2)
        if members2:
            v2_colors = {psi2[k] for k in members2}
            assert len(v2_colors) <= len(members2) - m2.size
        for lp, rp in m2.pairs:
            assert psi2[bip2.left[lp]] == psi2[bip2.right[rp]]
        assert _state_consistent(state)
        c2 = state.colors_used()

        assert (c1, c2) == (len(set(psi1.values())), len(set(psi2.values())))
        state = _state(inst, psi1 if c1 <= c2 else psi2)
        assert _contiguous(state.psi)
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
        with pytest.raises(InputError):
            greedy_color(inst)

    def test_deterministic(self, star_demo):
        assert greedy_color(star_demo) == greedy_color(star_demo)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_valid_contiguous_and_bounded_below(self, seed):
        inst = make_instance(seed)
        res = greedy_color(inst)
        psi = dict(res.coloring.assignment)
        assert res.coloring.is_total(inst.size)
        assert coloring_valid_naive(inst, psi)
        assert _contiguous(psi)
        assert res.coloring.colors_used >= load(inst)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_recurrences(self, seed):
        inst = make_instance(seed)
        res = greedy_color(inst)
        colored: set[int] = set()
        for rs in res.trace:
            expected_queue = tuple(
                j for j in subtrees_on_edge(inst, rs.edge) if j not in colored
            )
            assert rs.newly_colored == expected_queue
            assert colored.isdisjoint(rs.newly_colored)
            colored |= set(rs.newly_colored)
        assert sorted(colored) == list(range(inst.size))
        assert len(res.trace) == len(inst.tree.edges)

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
        res = greedy_color(inst)
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
        assert dict(res.coloring.assignment) == psi
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
        assert dict(greedy_color(padded).coloring.assignment) == psi
    assert forks_seen >= 60


def test_normalized_star_demo_matches_replay(star_demo):
    padded = normalize(star_demo).padded
    psi, forks = _replay_with_subroutine_checks(padded)
    assert forks == 1
    assert dict(greedy_color(padded).coloring.assignment) == psi


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
        res = greedy_color(inst, root)
        rounds = [
            (rs.kind, rs.edge, rs.newly_colored, rs.colors_used_after)
            for rs in res.trace
        ]
        choices = [
            (c.round, c.edge, c.chosen, c.colors_scheme1, c.colors_scheme2)
            for c in res.scheme_choices
        ]
        base = first_fit_baseline(inst).color_list(inst.size)
        h.update(repr((res.coloring.color_list(inst.size), rounds, choices, base)).encode())
    assert h.hexdigest() == GREEDY_DIGEST
