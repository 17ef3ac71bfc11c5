from __future__ import annotations

import hashlib

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
    first_fit_baseline,
    generate_instance,
    global_lower_bound,
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
from treewave import bounds, harness
from treewave.bounds import ORACLE_GUARD, BoundsReport
from treewave.formats import dumps_instance, dumps_summary, records_to_csv
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

    def test_fields_must_be_exact_ints(self):
        """Every field is exactly an `int`, the size range a tuple of two:
        `True` vertices were written out as `true`, a (1.5, 2) range drew
        subtrees of 3 arcs, `SweepSpec(True, 1)` ran one instance, and
        other values raised a bare `TypeError` or `ValueError`."""
        pair = r"^subtree_size_range must be a pair of integers \(min, max\)$"
        cases = (
            (lambda: GenParams(True, 3, 0, (1, 2), 1), "num_vertices", "bool"),
            (lambda: GenParams(5.5, 3, 0, (1, 2), 1), "num_vertices", "float"),
            (lambda: GenParams(5, 3.0, 0, (1, 2), 1), "max_degree", "float"),
            (lambda: GenParams(5, 3, None, (1, 2), 1), "num_subtrees", "NoneType"),
            (lambda: GenParams(5, 3, 1, (1, 2), 1.5), "seed", "float"),
            (lambda: SweepSpec(True, 1), "instances", "bool"),
            (lambda: SweepSpec(2.5, 1), "instances", "float"),
            (lambda: SweepSpec(1, "1"), "seed", "str"),
            (lambda: SweepSpec(1, 0, max_arcs=3.0), "max_arcs", "float"),
        )
        for build, name, kind in cases:
            with pytest.raises(InputError, match=rf"^{name} must be an integer, not {kind}$"):
                build()
        for size_range in ((1.5, 2), (1, True), (1, 2, 3), (1,), [1, 2], None):
            with pytest.raises(InputError, match=pair):
                GenParams(5, 3, 1, size_range, 1)

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
        rep = verify_coloring(p3_demo, Coloring((1, 1, 2)))
        assert rep.ok

    def test_p3_demo_conflict(self, p3_demo):
        rep = verify_coloring(p3_demo, Coloring((1, 1, 1)))
        assert not rep.ok
        assert rep.violations == ((Arc(0, 1), (0, 2)),)

    def test_violations_in_sorted_arc_order(self, p3_reversed):
        """Violations come in sorted arc order, not the host tree's edge
        order, which would put (2,1) first."""
        rep = verify_coloring(p3_reversed, Coloring((1, 1, 1)))
        assert rep.violations == ((Arc(1, 0), (0, 1)), (Arc(2, 1), (0, 1)))

    def test_empty_ok(self, p3_tree):
        from treewave import Instance

        rep = verify_coloring(Instance(p3_tree, ()), Coloring(()))
        assert rep.ok

    def test_partial_rejected(self, p3_demo):
        with pytest.raises(InputError):
            verify_coloring(p3_demo, Coloring((1,)))

    @pytest.mark.parametrize("colors", [(1, 1), (1, 1, 2, 1)])
    def test_wrong_length_rejected(self, p3_demo, colors):
        """One color per subtree, no more and no fewer: the length is the
        check, whatever the colors are."""
        message = rf"^coloring has {len(colors)} entries for 3 subtrees$"
        with pytest.raises(InputError, match=message):
            Coloring(colors).color_list(p3_demo.size)
        with pytest.raises(InputError, match=message):
            verify_coloring(p3_demo, Coloring(colors))

    @pytest.mark.parametrize(
        "assignment", [{0: 1, 1: 1, 2: 1}, (1, True, 2), [1, 1, 2]]
    )
    def test_assignment_not_a_tuple_of_ints_rejected(self, p3_demo, assignment):
        """The shape is checked when the coloring is built.  A mapping was
        once read as its keys, so `{0: 1, 1: 1, 2: 1}` passed as valid on
        p3_demo although subtrees 0 and 2 share color 1 on arc (0,1)."""
        with pytest.raises(
            InputError, match=r"^coloring assignment must be a tuple of integers$"
        ):
            verify_coloring(p3_demo, Coloring(assignment))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solvers_return_a_positive_color_per_subtree(self, seed):
        from conftest import make_instance

        inst = make_instance(seed, max_vertices=7, max_subtrees=9)
        colorings = (
            greedy_color(inst).coloring,
            first_fit_baseline(inst),
            exact_chromatic(build_conflict_graph(inst))[1],
        )
        for c in colorings:
            assert type(c.assignment) is tuple and len(c.assignment) == inst.size
            assert all(type(k) is int and k >= 1 for k in c.assignment)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_all_pairs_check(self, seed):
        from conftest import make_instance

        inst = make_instance(seed, max_vertices=6, max_subtrees=6)
        res = greedy_color(inst)
        psi = res.coloring.assignment
        assert verify_coloring(inst, res.coloring).ok == coloring_valid_naive(inst, psi)
        if inst.size >= 2:
            # corrupt: force two arc-sharing subtrees onto one color
            for indices in inst.arc_members:
                if len(indices) >= 2:
                    bad = list(psi)
                    bad[indices[1]] = bad[indices[0]]
                    got = verify_coloring(inst, Coloring(tuple(bad))).ok
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
            return Coloring((1,) * n)

        monkeypatch.setattr(
            harness,
            "greedy_color",
            lambda inst, root: GreedyResult(all_ones(inst.size), (), ()),
        )
        monkeypatch.setattr(
            harness, "first_fit_baseline", lambda inst: all_ones(inst.size)
        )
        monkeypatch.setattr(
            harness,
            "compute_bounds",
            lambda inst, limit: BoundsReport(
                1, {}, 1, 1, exact_chromatic=1, exact_witness=all_ones(inst.size)
            ),
        )
        twice = RootedSubtree.of(0, [[0, 1]])
        outcome = bench_run([BenchItem(0, None, Instance(p3_tree, (twice, twice)))])
        where = "invalid at (Arc(tail=0, head=1), (0, 1))"
        assert outcome.failures == (
            f"instance 0: greedy coloring {where}",
            f"instance 0: baseline coloring {where}",
            f"instance 0: exact witness {where}",
        )

    def test_exact_search_starts_from_the_lower_bound(self, monkeypatch):
        """Sweep item 139 of seed 7 is within the exact guard, and first-fit
        colors it with as many colors as its lower bound, which is more
        than the greedy clique has members: the χ search, started from the
        lower bound, stops at first-fit without searching the clique
        number."""
        inst = sweep_items(SweepSpec(140, 7))[139].instance
        g = build_conflict_graph(inst)
        first_fit = len(bounds._first_fit_classes((1 << g.n) - 1, g.masks))
        clique = len(bounds._greedy_clique(g.n, g.masks))
        assert normalize(inst).padded.size <= ORACLE_GUARD
        assert (first_fit, global_lower_bound(inst), clique) == (3, 3, 2)
        calls = []
        search = bounds._max_clique_size
        monkeypatch.setattr(
            bounds, "_max_clique_size", lambda *a: calls.append(a) or search(*a)
        )
        record = bench_run([BenchItem(139, None, inst)]).records[0]
        assert (record.lower_bound, record.exact_chromatic) == (3, 3)
        assert calls == []

    def test_unknown_solver_rejected(self, p3_demo):
        with pytest.raises(InputError):
            bench_run([BenchItem(0, None, p3_demo)], solvers=("nope",))

    def test_solver_subset(self, p3_demo):
        """Each solver fills only its own columns.  p3_demo has 3 subtrees
        and 7 once padded, so an exact limit of 3 leaves the optimum out
        although the instance as given is within it."""
        cases = [
            (("greedy",), ORACLE_GUARD, None, None),
            (("bounds",), ORACLE_GUARD, 2, None),
            (("exact",), ORACLE_GUARD, None, 2),
            (("exact",), 3, None, None),
            (("bounds", "exact"), 3, 2, None),
        ]
        for solvers, exact_limit, lower, chi in cases:
            outcome = bench_run(
                [BenchItem(0, None, p3_demo)], solvers=solvers, exact_limit=exact_limit
            )
            record = outcome.records[0]
            assert outcome.ok
            assert (record.greedy_colors_padded is not None) == ("greedy" in solvers)
            assert record.baseline_colors is None
            assert (record.lower_bound, record.exact_chromatic) == (lower, chi)


# SHA-256 over the CSV and summary line of the 300-instance seed-7 sweep
# (263 records carry an exact optimum); recorded while the bench runner
# computed its lower bound and optimum apart from `compute_bounds`, which
# the shared path must reproduce byte for byte.
BENCH_DIGEST = "63089c97f89630c271a8e154ceb6da46956e9b4d6f8ac0d92f0045f39d841ff9"


def test_bench_sweep_matches_recorded_digest():
    outcome = bench_run(sweep_items(SweepSpec(300, 7)))
    assert sum(r.exact_chromatic is not None for r in outcome.records) == 263
    text = records_to_csv(outcome.records) + dumps_summary(outcome.summary)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_DIGEST
