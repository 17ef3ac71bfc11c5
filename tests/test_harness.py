from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coloring_valid_naive, tree_edges_reference
from treewave import (
    BenchItem,
    Coloring,
    GenParams,
    GreedyResult,
    InputError,
    Instance,
    SweepSpec,
    bench_run,
    build_conflict_graph,
    exact_chromatic,
    generate_instance,
    greedy_color,
    load,
    normalize,
    RootedSubtree,
    round_bound_violations,
    sweep_items,
    validate_subtree,
    validate_tree,
    verify_coloring,
)
from treewave import harness
from treewave.formats import dumps_instance
from treewave.instances import Arc


class TestGenParams:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            GenParams(0, 3, 1, (1, 2), 0)
        with pytest.raises(InputError):
            GenParams(5, 4, 1, (1, 2), 0)
        with pytest.raises(InputError):
            GenParams(5, 3, -1, (1, 2), 0)
        with pytest.raises(InputError):
            GenParams(5, 3, 1, (0, 2), 0)
        with pytest.raises(InputError):
            GenParams(5, 3, 1, (3, 2), 0)

    def test_ranges_hold_at_most_2_64_values(self):
        """Each range the generator draws from may hold 2**64 values, not one
        more; the checks run before anything is drawn or allocated."""
        GenParams(2**64, 3, 1, (1, 2**64), 0)
        GenParams(5, 3, 1, (7, 2**64 + 6), 0)
        with pytest.raises(InputError, match=r"^num_vertices must be <= 2\*\*64$"):
            GenParams(2**64 + 1, 3, 1, (1, 2), 0)
        with pytest.raises(InputError, match=r"^subtree_size_range must span at most"):
            GenParams(5, 3, 1, (1, 2**64 + 1), 0)
        SweepSpec(1, 0, max_vertices=2**64, max_subtrees=2**64 - 1, max_arcs=2**64)
        with pytest.raises(InputError, match=r"^max_vertices must be <= 2\*\*64$"):
            SweepSpec(1, 0, max_vertices=2**64 + 1)
        with pytest.raises(InputError, match=r"^max_subtrees must be < 2\*\*64$"):
            SweepSpec(1, 0, max_subtrees=2**64)
        with pytest.raises(InputError, match=r"^arc range must span at most"):
            SweepSpec(1, 0, min_arcs=2, max_arcs=2**64 + 2)

    def test_single_vertex_with_subtrees_infeasible(self):
        with pytest.raises(InputError):
            GenParams(1, 3, 1, (1, 1), 0)

    def test_single_vertex_empty_ok(self):
        inst = generate_instance(GenParams(1, 3, 0, (1, 1), 0))
        assert inst.tree.vertices == 1 and inst.size == 0


class TestGenerateInstance:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        vertices=st.integers(1, 30),
        degree=st.sampled_from([2, 3]),
        count=st.integers(0, 24),
        lo=st.integers(1, 6),
        extra=st.integers(0, 6),
    )
    def test_generated_instances_validate(self, seed, vertices, degree, count, lo, extra):
        """`generate_instance` builds its instance unchecked; this is the
        property that makes that safe.  Its tree must also equal the draws
        of the rescanning reference."""
        count = count if vertices > 1 else 0
        params = GenParams(vertices, degree, count, (lo, lo + extra), seed)
        inst = generate_instance(params)
        assert list(inst.tree.edges) == tree_edges_reference(params)
        rep = validate_tree(inst.tree)
        assert rep.ok and inst.tree.degree_ok
        assert all(len(inst.tree.adjacency[v]) <= degree for v in range(vertices))
        for s in inst.subtrees:
            assert validate_subtree(inst.tree, s).ok
            assert 1 <= len(s.arcs) <= lo + extra
        assert inst.size == count
        checked = Instance(inst.tree, inst.subtrees)
        assert checked == inst
        assert checked.arc_members == inst.arc_members

    def test_same_seed_same_bytes(self):
        params = GenParams(9, 3, 7, (1, 4), 123456789)
        a = dumps_instance(generate_instance(params))
        b = dumps_instance(generate_instance(params))
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(num_vertices=9, max_degree=3, num_subtrees=7, subtree_size_range=(1, 4))
        a = dumps_instance(generate_instance(GenParams(seed=1, **base)))
        b = dumps_instance(generate_instance(GenParams(seed=2, **base)))
        assert a != b

    def test_subtree_sizes_within_range(self):
        params = GenParams(10, 3, 20, (2, 3), 55)
        inst = generate_instance(params)
        for s in inst.subtrees:
            assert 1 <= len(s.arcs) <= 3


class TestVerifyColoring:
    def test_p3_demo_valid(self, p3_demo):
        rep = verify_coloring(p3_demo, Coloring({0: 1, 1: 1, 2: 2}))
        assert rep.ok

    def test_p3_demo_conflict(self, p3_demo):
        rep = verify_coloring(p3_demo, Coloring({0: 1, 1: 1, 2: 1}))
        assert not rep.ok
        assert rep.violations == ((Arc(0, 1), (0, 2)),)

    def test_violations_in_sorted_arc_order(self, p3_reversed):
        """Violations come in sorted arc order, not the host tree's edge
        order, which would put (2,1) first."""
        rep = verify_coloring(p3_reversed, Coloring({0: 1, 1: 1, 2: 1}))
        assert rep.violations == ((Arc(1, 0), (0, 1)), (Arc(2, 1), (0, 1)))

    def test_empty_ok(self, p3_tree):
        from treewave import Instance

        rep = verify_coloring(Instance(p3_tree, ()), Coloring({}))
        assert rep.ok

    def test_partial_rejected(self, p3_demo):
        with pytest.raises(InputError):
            verify_coloring(p3_demo, Coloring({0: 1}))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_all_pairs_check(self, seed):
        from conftest import make_instance

        inst = make_instance(seed, max_vertices=6, max_subtrees=6)
        res = greedy_color(inst)
        psi = dict(res.coloring.assignment)
        assert verify_coloring(inst, res.coloring).ok == coloring_valid_naive(inst, psi)
        if inst.size >= 2:
            # corrupt: force two arc-sharing subtrees onto one color
            for indices in inst.arc_members:
                if len(indices) >= 2:
                    bad = dict(psi)
                    bad[indices[1]] = bad[indices[0]]
                    got = verify_coloring(inst, Coloring(bad)).ok
                    assert got == coloring_valid_naive(inst, bad)
                    assert not got
                    break


class TestRoundBound:
    def test_normalized_runs_never_violate(self):
        from conftest import make_instance

        for seed in range(40):
            inst = make_instance(seed)
            padded = normalize(inst).padded
            res = greedy_color(padded)
            assert round_bound_violations(res, load(padded)) == []


class TestSweepAndBench:
    def test_sweep_deterministic(self):
        spec = SweepSpec(instances=5, seed=11)
        a = [dumps_instance(item.instance) for item in sweep_items(spec)]
        b = [dumps_instance(item.instance) for item in sweep_items(spec)]
        assert a == b

    def test_bench_smoke(self):
        outcome = bench_run(sweep_items(SweepSpec(instances=12, seed=3)))
        assert outcome.ok
        assert len(outcome.records) == 12
        assert [r.instance_id for r in outcome.records] == list(range(12))
        for r in outcome.records:
            if r.ratio_vs_exact is not None:
                assert r.ratio_vs_exact <= 2.5
            if r.exact_chromatic is not None:
                assert r.greedy_colors_padded >= r.exact_chromatic

    def test_bench_empty_instance(self, p3_tree):
        from treewave import Instance

        outcome = bench_run([BenchItem(0, None, Instance(p3_tree, ()))])
        record = outcome.records[0]
        assert outcome.ok
        assert record.ratio_vs_exact is None
        assert record.greedy_colors_padded == 0

    def test_bench_fixed_instance_p3(self, p3_demo):
        outcome = bench_run([BenchItem(0, None, p3_demo)])
        record = outcome.records[0]
        padded = normalize(p3_demo).padded
        chi = exact_chromatic(build_conflict_graph(padded))[0]
        assert record.exact_chromatic == chi
        assert record.greedy_colors_padded <= 2.5 * chi
        assert outcome.ok

    def test_invalid_colorings_reported(self, monkeypatch, p3_tree):
        def all_ones(n):
            return Coloring(dict.fromkeys(range(n), 1))

        monkeypatch.setattr(
            harness,
            "greedy_color",
            lambda inst, root: GreedyResult(all_ones(inst.size), (), (), inst),
        )
        monkeypatch.setattr(
            harness, "first_fit_baseline", lambda inst: all_ones(inst.size)
        )
        monkeypatch.setattr(
            harness, "exact_chromatic", lambda g, limit: (1, all_ones(g.n))
        )
        twice = RootedSubtree.of(0, [[0, 1]])
        outcome = bench_run([BenchItem(0, None, Instance(p3_tree, (twice, twice)))])
        where = "invalid at (Arc(tail=0, head=1), (0, 1))"
        assert outcome.failures == (
            f"instance 0: greedy coloring {where}",
            f"instance 0: baseline coloring {where}",
            f"instance 0: exact witness {where}",
        )

    def test_unknown_solver_rejected(self, p3_demo):
        with pytest.raises(InputError):
            bench_run([BenchItem(0, None, p3_demo)], solvers=("nope",))

    def test_solver_subset(self, p3_demo):
        outcome = bench_run([BenchItem(0, None, p3_demo)], solvers=("greedy",))
        record = outcome.records[0]
        assert record.greedy_colors_padded is not None
        assert record.exact_chromatic is None
        assert record.baseline_colors is None
        assert record.lower_bound is None
