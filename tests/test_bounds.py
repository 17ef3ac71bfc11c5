from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import signal

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    BRUTE_FORCE_GUARD,
    bipartite_of,
    brute_chromatic,
    brute_clique,
    brute_force_matching_size,
    clique_recursive,
    conflict_pairs_naive,
    dsatur_recursive,
    first_fit_reference,
    graph_of,
    induced,
    subtrees_on_arc,
)
from test_matching import random_bipartite
from treewave import (
    ConflictGraph,
    GenParams,
    HostTree,
    InputError,
    Instance,
    LimitError,
    RootedSubtree,
    SweepSpec,
    build_conflict_graph,
    compute_bounds,
    edge_lower_bound,
    exact_chromatic,
    first_fit_baseline,
    generate_instance,
    global_lower_bound,
    greedy_color,
    load,
    max_clique,
    normalize,
    sweep_items,
    verify_coloring,
)
from treewave import instances
from treewave.bounds import _chromatic_number, _first_fit_classes, _greedy_clique
from treewave.cli import main
from treewave.conflict import edge_complement_bipartite
from treewave.formats import dumps_instance, loads_instance
from treewave.instances import edge_sides
from treewave.matching import _matching_size, max_bipartite_matching
from treewave.rng import XorShift64Star, derive_seed

TRIANGLE_PLUS_ISOLATED = ((1, 2), (0, 2), (0, 1), ())


class TestNormalize:
    def test_p3_demo_padding(self, p3_demo):
        norm = normalize(p3_demo)
        assert norm.padded.size == 7
        assert norm.original_count == 3
        assert norm.padded.subtrees[:3] == p3_demo.subtrees
        # deficits: (0,1) none, (1,0) one, (1,2) one, (2,1) two
        assert norm.padded.subtrees[3:] == (
            RootedSubtree.of(1, [[1, 0]]),
            RootedSubtree.of(1, [[1, 2]]),
            RootedSubtree.of(2, [[2, 1]]),
            RootedSubtree.of(2, [[2, 1]]),
        )

    def test_padding_follows_edge_order(self, p3_reversed):
        """Edges pad in input order, each (min,max) arc before (max,min)."""
        norm = normalize(p3_reversed)
        assert norm.padded.subtrees[3:] == (
            RootedSubtree.of(1, [[1, 2]]),
            RootedSubtree.of(1, [[1, 2]]),
            RootedSubtree.of(0, [[0, 1]]),
        )

    def test_uniform_instance_zero_padding(self, p3_tree):
        inst = Instance(
            p3_tree,
            (
                RootedSubtree.of(0, [[0, 1]]),
                RootedSubtree.of(1, [[1, 0]]),
                RootedSubtree.of(1, [[1, 2]]),
                RootedSubtree.of(2, [[2, 1]]),
            ),
        )
        norm = normalize(inst)
        assert norm.padding_count == 0
        assert norm.padded.subtrees == inst.subtrees

    def test_empty_instance(self, p3_tree):
        norm = normalize(Instance(p3_tree, ()))
        assert norm.padded.size == 0
        assert norm.padding_count == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_arc_filled_to_load(self, seed):
        inst = make_instance(seed)
        target = load(inst)
        padded = normalize(inst).padded
        for u, v in inst.tree.edges:
            assert len(subtrees_on_arc(padded, (u, v))) == target
            assert len(subtrees_on_arc(padded, (v, u))) == target

    def test_padding_subtrees_are_single_arc_rooted_at_tail(self, p3_demo):
        norm = normalize(p3_demo)
        for s in norm.padded.subtrees[norm.original_count :]:
            assert len(s.arcs) == 1
            assert s.root == s.arcs[0].tail

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unchecked_padding_equals_a_validated_rebuild(self, seed):
        """The padded instance is built unchecked with a member table
        extended from the original; a validating rebuild accepts it and
        computes the same table."""
        padded = normalize(make_instance(seed, max_vertices=16, max_subtrees=24)).padded
        checked = Instance(padded.tree, padded.subtrees)
        assert padded.arc_members == checked.arc_members

    def test_handed_over_arc_positions_equal_a_validated_rebuild(self, p3_tree, p3_demo):
        """`normalize` extends both arc tables and hands them over; they
        equal the tables a validating rebuild computes, and each subtree's
        positions name exactly its own arcs."""

        def check(inst):
            checked = Instance(inst.tree, inst.subtrees)
            assert inst.arc_positions == checked.arc_positions
            assert inst.arc_members == checked.arc_members
            arcs = inst.tree.arcs
            for s, ps in zip(inst.subtrees, inst.arc_positions, strict=True):
                assert tuple(arcs[p] for p in ps) == s.arcs

        one_arc = Instance(p3_tree, (RootedSubtree.of(0, [[0, 1]]),) * 2)
        raws = [p3_demo, Instance(p3_tree, ()), one_arc]
        raws += [item.instance for item in sweep_items(SweepSpec(120, 5))]
        for raw in raws:
            check(raw)
            padded = normalize(raw).padded
            assert "arc_positions" in padded.__dict__
            assert "arc_members" in padded.__dict__
            check(padded)
        # arcs no original subtree uses, (1,0), (1,2) and (2,1), are padded
        assert normalize(one_arc).padded.arc_members == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_subtrees_validated_once_at_load(self, monkeypatch):
        calls = []
        walk = instances._walk_subtree

        def counting(position, s):
            calls.append(s)
            return walk(position, s)

        monkeypatch.setattr(instances, "_walk_subtree", counting)
        inst = generate_instance(GenParams(12, 3, 15, (1, 4), seed=3))
        assert calls == []
        inst = loads_instance(dumps_instance(inst))
        assert len(calls) == inst.size == 15
        calls.clear()
        assert normalize(inst).padding_count > 0
        assert calls == []


class TestEdgeLowerBound:
    def test_p3_demo(self, p3_demo):
        assert edge_lower_bound(p3_demo, (0, 1)) == 2
        # cross-check against the exact oracle on the induced conflict graph
        g = induced(build_conflict_graph(p3_demo), [0, 1, 2])
        assert exact_chromatic(g)[0] == 2

    def test_single_subtree(self, p3_demo):
        assert edge_lower_bound(p3_demo, (1, 2)) == 1

    def test_one_sided_clique(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        inst = Instance(p3_tree, (dup,) * 5)
        assert edge_lower_bound(inst, (0, 1)) == 5

    def test_non_edge_rejected(self, p3_demo):
        with pytest.raises(InputError, match=r"^\{0,2\} is not an edge of the host tree$"):
            edge_lower_bound(p3_demo, (0, 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exact_chromatic_of_edge_population(self, seed):
        inst = make_instance(seed, max_vertices=6, max_subtrees=6)
        g = build_conflict_graph(inst)
        for u, v in inst.tree.edges:
            population = list(
                subtrees_on_arc(inst, (u, v)) + subtrees_on_arc(inst, (v, u))
            )
            bound = edge_lower_bound(inst, (u, v))
            if population:
                sub = induced(g, sorted(population))
                assert bound == exact_chromatic(sub)[0]
            else:
                assert bound == 0


def _sizes_agree(g) -> int:
    """`_matching_size` on the rows of `g`, checked against the greedy's
    pair-exact matching and, where the graph fits its guard, brute force."""
    size = _matching_size(g.rows, len(g.right))
    assert size == max_bipartite_matching(g).size
    if len(g.left) + len(g.right) <= BRUTE_FORCE_GUARD:
        assert size == brute_force_matching_size(g)
    return size


def _chain(n: int):
    """Left l joins rights l-1 and l."""
    edges = [(lp, rp) for lp in range(n) for rp in (lp - 1, lp) if rp >= 0]
    return bipartite_of(range(n), range(n, 2 * n), edges)


class TestMatchingSize:
    """The per-edge bound counts a maximum matching without building its
    pairs; the count equals the size of the greedy's matching."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.integers(0, 100))
    def test_random_graphs(self, seed, density):
        _sizes_agree(random_bipartite(seed, max_side=14, density=density))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_edge_of_generated_instances(self, seed):
        raw = make_instance(seed, max_vertices=10, max_subtrees=24, max_arcs=4)
        for inst in (raw, normalize(raw).padded):
            for u, v in inst.tree.edges:
                fwd, bwd = edge_sides(inst, u, v)
                g = edge_complement_bipartite(inst, (u, v), fwd + bwd)
                bound = len(fwd) + len(bwd) - _sizes_agree(g)
                assert edge_lower_bound(inst, (u, v)) == bound

    def test_chains(self):
        for n in range(13):
            assert _sizes_agree(_chain(n)) == n

    def test_chain_that_is_quadratic_for_kuhn(self):
        """Each left takes its lowest free right, so the warm start matches
        this chain whole; ascending Kuhn needs quadratic time on it.  The
        chain has a perfect matching, and `test_chains` compares the two
        matchers on the small ones."""
        g = _chain(3000)
        assert _matching_size(g.rows, 3000) == 3000

    def test_augmenting_path_deeper_than_recursion_limit(self):
        # left l -> rights l, l+1 and the last left -> right 0: the warm
        # start leaves only the last left unmatched, and its one augmenting
        # path crosses every vertex
        n = 20_000
        edges = [(lp, rp) for lp in range(n - 1) for rp in (lp, lp + 1)]
        g = bipartite_of(range(n), range(n, 2 * n), edges + [(n - 1, 0)])
        assert _matching_size(g.rows, n) == n


class TestGlobalLowerBound:
    def test_p3_demo(self, p3_demo):
        assert global_lower_bound(p3_demo) == 2

    def test_empty(self, p3_tree):
        assert global_lower_bound(Instance(p3_tree, ())) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_normalized_equals_2l_minus_min_matching(self, seed):
        inst = make_instance(seed, max_subtrees=7)
        padded = normalize(inst).padded
        l = load(padded)
        if not padded.size:
            return
        matchings = []
        for u, v in padded.tree.edges:
            population = sorted(
                subtrees_on_arc(padded, (u, v)) + subtrees_on_arc(padded, (v, u))
            )
            comp = edge_complement_bipartite(padded, (u, v), population)
            matchings.append(max_bipartite_matching(comp).size)
        assert global_lower_bound(padded) == 2 * l - min(matchings)


class TestExactChromatic:
    def test_empty_graph(self):
        chi, witness = exact_chromatic(ConflictGraph(()))
        assert chi == 0 and witness.assignment == {}
        for floor in range(3):  # first-fit has no classes: the floor exit
            assert _chromatic_number(0, (), floor) == (0, [], 0)

    def test_triangle(self):
        g = graph_of(((1, 2), (0, 2), (0, 1)))
        assert exact_chromatic(g)[0] == 3

    def test_p3_demo(self, p3_demo):
        g = build_conflict_graph(p3_demo)
        chi, witness = exact_chromatic(g)
        assert chi == 2 == brute_chromatic(3, conflict_pairs_naive(p3_demo))
        assert verify_coloring(p3_demo, witness).ok

    def test_guard(self):
        g = ConflictGraph((0,) * 31)
        with pytest.raises(LimitError):
            exact_chromatic(g, limit=30)
        assert exact_chromatic(g, limit=40)[0] == 1

    @pytest.mark.parametrize(
        "adjacency, chi",
        [
            pytest.param(((),), 1, id="single_vertex"),
            pytest.param(TRIANGLE_PLUS_ISOLATED, 3, id="triangle_plus_isolated"),
            pytest.param(((),) * 70, 1, id="70_isolated"),
        ],
    )
    def test_small_graphs(self, adjacency, chi):
        g = graph_of(adjacency)
        found, witness = exact_chromatic(g, limit=100)
        colors = witness.color_list(g.n)
        assert found == chi == len(set(colors))
        assert all(colors[u] != colors[v] for u in range(g.n) for v in adjacency[u])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_and_witness_exact(self, seed):
        inst = make_instance(seed, max_vertices=7, max_subtrees=9)
        g = build_conflict_graph(inst)
        chi, witness = exact_chromatic(g)
        assert chi == brute_chromatic(inst.size, conflict_pairs_naive(inst))
        if inst.size:
            assert verify_coloring(inst, witness).ok
            assert witness.colors_used == chi
            assert set(witness.assignment.values()) == set(range(1, chi + 1))


class TestMaxClique:
    def test_empty_and_edgeless(self):
        assert max_clique(ConflictGraph(())) == 0
        assert max_clique(ConflictGraph((0, 0, 0))) == 1

    def test_p3_demo(self, p3_demo):
        g = build_conflict_graph(p3_demo)
        assert max_clique(g) == 2 == brute_clique(3, conflict_pairs_naive(p3_demo))

    def test_guard(self):
        g = ConflictGraph((0,) * 31)
        with pytest.raises(LimitError):
            max_clique(g, limit=30)

    @pytest.mark.parametrize(
        "adjacency, size",
        [
            pytest.param(TRIANGLE_PLUS_ISOLATED, 3, id="triangle_plus_isolated"),
            pytest.param(((),) * 70, 1, id="70_isolated"),
        ],
    )
    def test_small_graphs(self, adjacency, size):
        assert max_clique(graph_of(adjacency), limit=100) == size

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_and_dominates_load(self, seed):
        inst = make_instance(seed, max_vertices=7, max_subtrees=9)
        g = build_conflict_graph(inst)
        size = max_clique(g)
        assert size == brute_clique(inst.size, conflict_pairs_naive(inst))
        assert size >= load(inst)


class OverBudget(Exception):
    """Raised from SIGALRM when a call outlives its time budget."""


@contextlib.contextmanager
def time_budget(seconds: float):
    """Raise OverBudget inside the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise OverBudget(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Raw instances whose first-fit coloring already uses ω colors while the
# greedy clique is smaller (6 in both); a search that does not stop at ω
# runs for more than 20 s on each, trying to rule out every smaller count.
FIRST_FIT_AT_OMEGA = [
    pytest.param(GenParams(7, 3, 23, (1, 4), seed=14406386434140679447), 9, id="chi9"),
    pytest.param(GenParams(8, 3, 22, (1, 4), seed=7652497026876145360), 8, id="chi8"),
]


class TestStopAtCliqueNumber:
    @pytest.mark.parametrize("params, chi", FIRST_FIT_AT_OMEGA)
    def test_first_fit_at_omega_returns_at_once(self, params, chi):
        inst = generate_instance(params)
        g = build_conflict_graph(inst)
        with time_budget(2.0):
            found, witness = exact_chromatic(g)
        assert found == chi == max_clique(g)
        assert witness.color_list(g.n) == first_fit_baseline(inst).color_list(g.n)

    def test_bound_cli_finishes(self, tmp_path, capsys):
        params, chi = FIRST_FIT_AT_OMEGA[0].values
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(generate_instance(params)), encoding="utf-8")
        with time_budget(2.0):
            assert main(["bound", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact_chromatic"] == doc["clique_lower_bound"] == chi


@st.composite
def random_graphs(draw) -> ConflictGraph:
    """Uniform random graphs with up to 20 vertices and any edge density."""
    n = draw(st.integers(0, 20))
    density = draw(st.integers(0, 100))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() * 100 < density:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return graph_of(adjacency)


@st.composite
def generated_conflict_graphs(draw) -> ConflictGraph:
    """Conflict graphs of raw generated instances up to the oracle guard,
    where the clique number often equals χ and is often above the greedy
    clique."""
    params = GenParams(
        draw(st.integers(2, 9)),
        3,
        draw(st.integers(0, 30)),
        (1, 4),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return build_conflict_graph(generate_instance(params))


@settings(max_examples=600, deadline=None)
@given(g=st.one_of(random_graphs(), generated_conflict_graphs()))
def test_searches_equal_recursive_references(g):
    """The stack-based searches, which stop at the clique number, return
    the recursive forms' chromatic number, witness and clique size
    exactly.  The recursive χ search never stops early, so on a few
    generated graphs it runs for seconds; those it cannot finish within
    the budget are skipped, as there is nothing to compare against."""
    chi, witness = exact_chromatic(g)
    assert max_clique(g) == clique_recursive(g.n, g.masks)
    try:
        with time_budget(1.0):
            expected = dsatur_recursive(g.n, g.masks)
    except OverBudget:
        reject()
    assert (chi, witness.color_list(g.n)) == expected


def _seeded_graph(rng: random.Random, n: int) -> ConflictGraph:
    """Graph on n vertices, each pair an edge at one density drawn from `rng`."""
    density = rng.random()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return graph_of(adjacency)


def test_first_fit_classes_equal_the_reference_colors():
    """On seeded random graphs of 0-20 vertices, each vertex's class on the
    whole graph is its reference first-fit color, and on random candidate
    sets the class count is the largest reference color of the induced
    subgraph."""
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(0, 20)
        g = _seeded_graph(rng, n)
        colors = first_fit_reference(n, g.masks)
        classes = [
            sum(1 << v for v in range(n) if colors[v] == k)
            for k in range(1, max(colors, default=0) + 1)
        ]
        assert _first_fit_classes((1 << n) - 1, g.masks) == classes
        for _ in range(5):
            cand = rng.getrandbits(n)
            subset = [v for v in range(n) if cand >> v & 1]
            sub = induced(g, subset)
            expected = max(first_fit_reference(sub.n, sub.masks), default=0)
            assert len(_first_fit_classes(cand, g.masks)) == expected


@pytest.mark.parametrize("oracle", [exact_chromatic, max_clique])
def test_oracles_leave_no_reference_cycles(oracle):
    """Everything a search allocates is freed by reference counting, so
    memory does not wait on the cyclic collector."""
    graphs = [
        build_conflict_graph(generate_instance(GenParams(7, 3, 22, (1, 4), seed=s)))
        for s in range(40)
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for s, g in enumerate(graphs):
            oracle(g)
            assert gc.collect() == 0, f"seed {s}"
    finally:
        if was_enabled:
            gc.enable()


class TestFirstFitBaseline:
    def test_empty(self, p3_tree):
        assert first_fit_baseline(Instance(p3_tree, ())).colors_used == 0

    def test_p3_demo(self, p3_demo):
        assert first_fit_baseline(p3_demo).color_list(3) == [1, 1, 2]

    def test_duplicates_use_k_colors(self, p3_tree):
        dup = RootedSubtree.of(0, [[0, 1]])
        inst = Instance(p3_tree, (dup,) * 4)
        assert first_fit_baseline(inst).colors_used == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_always_valid(self, seed):
        inst = make_instance(seed)
        assert verify_coloring(inst, first_fit_baseline(inst)).ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_normalization_preserves_chromatic_number(seed):
    inst = make_instance(seed, max_vertices=6, max_subtrees=6, max_arcs=2)
    padded = normalize(inst).padded
    if padded.size > 30:
        return
    chi_orig = exact_chromatic(build_conflict_graph(inst))[0]
    chi_padded = exact_chromatic(build_conflict_graph(padded))[0]
    assert chi_orig == chi_padded


@st.composite
def raw_instances(draw) -> Instance:
    """A tree on 2-8 vertices of any degree, each vertex joining any earlier
    one, and 0-10 requests of up to 4 arcs, each grown from its root by
    taking one arc of the frontier at a time; not normalized."""
    n = draw(st.integers(2, 8))
    tree = HostTree.of(n, [(draw(st.integers(0, k - 1)), k) for k in range(1, n)])
    subtrees = []
    for _ in range(draw(st.integers(0, 10))):
        root = draw(st.integers(0, n - 1))
        size = draw(st.integers(1, 4))
        visited = {root}
        frontier = [(root, nb) for nb in tree.adjacency[root]]
        arcs = []
        while frontier and len(arcs) < size:
            t, h = frontier.pop(draw(st.integers(0, len(frontier) - 1)))
            visited.add(h)
            arcs.append((t, h))
            frontier += [(h, nb) for nb in tree.adjacency[h] if nb not in visited]
        subtrees.append(RootedSubtree.of(root, arcs))
    return Instance(tree, tuple(subtrees))


@settings(max_examples=150, deadline=None)
@given(inst=raw_instances())
def test_padding_raises_each_edge_bound_to_the_load_only(inst):
    """Padding edge e to the load L turns its bound into max(L, bound on
    the instance as given), and since each side of an edge is a clique the
    raw global bound is already at least L: the two global bounds agree,
    which is why `bench_run` scores the bound on the unpadded instance."""
    padded = normalize(inst).padded
    target = load(inst)
    for u, v in inst.tree.edges:
        raw = edge_lower_bound(inst, (u, v))
        assert edge_lower_bound(padded, (u, v)) == max(target, raw)
    assert global_lower_bound(padded) == global_lower_bound(inst)


@settings(max_examples=150, deadline=None)
@given(inst=raw_instances())
def test_padding_keeps_chi_on_any_degree(inst):
    """A padding request has L - 1 neighbors and χ >= L, so padding never
    changes χ, whatever the host tree's degree."""
    padded = normalize(inst).padded
    assume(padded.size <= 30)
    chi = exact_chromatic(build_conflict_graph(inst))[0]
    assert exact_chromatic(build_conflict_graph(padded))[0] == chi


def test_chromatic_floor_never_changes_the_result():
    """Any floor from 0 to ω, a clique size known to exist, gives the
    floor-0 (χ, witness, ω) exactly, on random graphs and on raw generated
    instances, where the floor often reaches first-fit."""
    rng = random.Random(23)
    graphs = [_seeded_graph(rng, rng.randint(0, 14)) for _ in range(1500)]
    for i in range(300):
        params = GenParams(
            rng.randint(5, 9), 3, rng.randint(16, 30), (1, 4), seed=rng.getrandbits(64)
        )
        graphs.append(build_conflict_graph(generate_instance(params)))
    for g in graphs:
        expected = _chromatic_number(g.n, g.masks)
        for floor in range(expected[2] + 1):
            assert _chromatic_number(g.n, g.masks, floor) == expected, (g.masks, floor)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sandwich_chain(seed):
    inst = make_instance(seed, max_vertices=7, max_subtrees=8)
    g = build_conflict_graph(inst)
    chi = exact_chromatic(g)[0]
    greedy = greedy_color(inst).coloring.colors_used
    assert (
        load(inst)
        <= global_lower_bound(inst)
        <= max_clique(g)
        <= chi
        <= greedy
        <= max(greedy, first_fit_baseline(inst).colors_used)
    )


def test_compute_bounds_fields(p3_demo):
    report = compute_bounds(p3_demo)
    assert report.load == 2
    assert report.global_lower_bound == 2
    assert report.per_edge_bound == {(0, 1): 2, (1, 2): 1}
    assert report.clique_lower_bound == 2
    assert report.exact_chromatic == 2


def test_compute_bounds_respects_guard(p3_demo):
    report = compute_bounds(p3_demo, limit=1)
    assert report.clique_lower_bound is None
    assert report.exact_chromatic is None



def _chromatic_exit(g, floor: int) -> str:
    """Which case of the exact χ search the conflict graph `g` reaches
    from the clique floor `floor`.  The empty graph leaves at the floor
    exit, and a greedy clique as large as first-fit at the clique-number
    exit without a clique search."""
    if g.n == 0:
        return "empty"
    ub = max(first_fit_reference(g.n, g.masks))
    if floor >= ub:
        return "floor meets first-fit"
    lb = len(_greedy_clique(g.n, g.masks))
    if lb == ub:
        return "greedy clique"
    omega = max_clique(g)
    if omega == ub:
        return "clique number"
    return "search reaches ω" if exact_chromatic(g)[0] == omega else "search exhausted"


def _five_cycle() -> Instance:
    """Five two-arc subtrees on a 3-leaf star whose conflict graph is a
    5-cycle: ω = 2 and χ = 3, so the χ search never reaches ω."""
    star = HostTree.of(4, [[0, 1], [0, 2], [0, 3]])
    subtrees = (
        RootedSubtree.of(1, [[1, 0], [0, 3]]),
        RootedSubtree.of(1, [[1, 0], [0, 2]]),
        RootedSubtree.of(3, [[3, 0], [0, 2]]),
        RootedSubtree.of(3, [[3, 0], [0, 1]]),
        RootedSubtree.of(0, [[0, 1], [0, 3]]),
    )
    return Instance(star, subtrees)


def _triangle_across_edges() -> Instance:
    """Three two-arc subtrees on a 3-leaf star, each pair sharing a
    different arc: the triangle needs 3 colors, which first-fit and the
    greedy clique both reach, while every edge carries only 2 of them, so
    the per-edge bound stays below first-fit."""
    star = HostTree.of(4, [[0, 1], [0, 2], [0, 3]])
    subtrees = (
        RootedSubtree.of(1, [[1, 0], [0, 2]]),
        RootedSubtree.of(0, [[0, 2], [0, 3]]),
        RootedSubtree.of(1, [[1, 0], [0, 3]]),
    )
    return Instance(star, subtrees)


def test_compute_bounds_equals_the_public_oracles():
    """On random raw instances under the guard, a 5-cycle and a triangle
    across three edges, reaching every return of the χ search, the
    report's clique number and χ are `max_clique` and `exact_chromatic`
    of the conflict graph."""
    rng = random.Random(2018)
    instances = [_five_cycle(), _triangle_across_edges()]
    for _ in range(200):
        params = GenParams(
            rng.randint(2, 9), 3, rng.randint(0, 24), (1, 4), seed=rng.getrandbits(64)
        )
        instances.append(generate_instance(params))
    names = (
        "empty",
        "floor meets first-fit",
        "greedy clique",
        "clique number",
        "search reaches ω",
        "search exhausted",
    )
    exits = dict.fromkeys(names, 0)
    for inst in instances:
        g = build_conflict_graph(inst)
        report = compute_bounds(inst)
        assert report.clique_lower_bound == max_clique(g)
        assert report.exact_chromatic == exact_chromatic(g)[0]
        exits[_chromatic_exit(g, report.global_lower_bound)] += 1
    assert all(exits.values()), exits


# SHA-256 over exact_chromatic's χ and witness and max_clique's size on a
# fixed seeded set; recorded from the exact oracles before their first-fit
# routines were merged, which the merged form must reproduce byte for byte.
EXACT_DIGEST = "8608b7ca2d8bb8feb0a89cac25fede12a5e1cab096005db2d7b2dba66d9991a5"


def _exact_digest_graphs():
    """Conflict graphs of 300 raw instances shaped like the benchmark's
    `oracle` inputs (5-9 vertices, 16-24 subtrees of 1-4 arcs), then 2,000
    random graphs of 0-14 vertices at random densities."""
    for i in range(300):
        rng = XorShift64Star(derive_seed(1, i))
        vertices = rng.randint(5, 9)
        count = rng.randint(16, 24)
        params = GenParams(vertices, 3, count, (1, 4), seed=rng.next_u64())
        yield build_conflict_graph(generate_instance(params))
    rng = random.Random(2018)
    for _ in range(2000):
        yield _seeded_graph(rng, rng.randint(0, 14))


def test_exact_results_match_recorded_digest():
    h = hashlib.sha256()
    for g in _exact_digest_graphs():
        chi, witness = exact_chromatic(g)
        h.update(repr((chi, witness.color_list(g.n), max_clique(g))).encode())
    assert h.hexdigest() == EXACT_DIGEST
