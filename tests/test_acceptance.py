"""Acceptance suite: the shipped guarantees, checked at full size.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The headline check is the approximation guarantee: on hundreds of
seeded instances the greedy colorer must stay within 5/2 of the exact
optimum on the normalized instance, with zero tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from conftest import make_instance
from oracles import (
    bfs_two_colorable,
    brute_force_matching_size,
    edges_of,
    kuhn_recursive,
    subtrees_on_arc,
    subtrees_on_edge,
)
from test_matching import random_bipartite
from treewave import (
    Coloring,
    GenParams,
    GreedyResult,
    HostTree,
    Instance,
    NormalizedInstance,
    RootedSubtree,
    bfs_edge_order,
    build_conflict_graph,
    classify_edge,
    edge_complement_bipartite,
    exact_chromatic,
    first_fit_baseline,
    generate_instance,
    global_lower_bound,
    greedy_color,
    load,
    max_bipartite_matching,
    max_clique,
    normalize,
    round_bound_violations,
    verify_coloring,
)
from treewave.bounds import ORACLE_GUARD
from treewave.cli import main as cli_main
from treewave.formats import dumps_instance, loads_instance
from treewave.rng import XorShift64Star, derive_seed

CERT_SEED = 20260809
VALIDITY_SEED = 31337
GOLDEN = Path(__file__).parent / "golden"

MAX_RATIO = 2.5


def _report(criterion: int, label: str, violations: list[str], detail: str = "") -> None:
    status = "PASS" if not violations else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}: {label}{suffix}")
    assert not violations, f"criterion {criterion}: " + "; ".join(violations[:10])


@dataclass(frozen=True)
class CertRecord:
    seed_index: int
    instance: Instance
    norm: NormalizedInstance
    result: GreedyResult
    chi_padded: int
    chi_original: int
    witness: Coloring
    clique_padded: int
    glb_padded: int
    load_value: int


@pytest.fixture(scope="session")
def certification() -> list[CertRecord]:
    records: list[CertRecord] = []
    tried = 0
    while len(records) < 320 and tried < 3000:
        rng = XorShift64Star(derive_seed(CERT_SEED, tried))
        vertices = rng.randint(2, 12)
        count = rng.randint(0, 18)
        params = GenParams(vertices, 3, count, (1, 4), rng.next_u64())
        inst = generate_instance(params)
        norm = normalize(inst)
        tried += 1
        if norm.padded.size > 30:
            continue
        padded = norm.padded
        result = greedy_color(padded)
        chi_padded, witness = exact_chromatic(build_conflict_graph(padded))
        chi_original = exact_chromatic(build_conflict_graph(inst))[0]
        records.append(
            CertRecord(
                seed_index=tried - 1,
                instance=inst,
                norm=norm,
                result=result,
                chi_padded=chi_padded,
                chi_original=chi_original,
                witness=witness,
                clique_padded=max_clique(build_conflict_graph(padded)),
                glb_padded=global_lower_bound(padded),
                load_value=load(inst),
            )
        )
    assert len(records) >= 300, f"only {len(records)} certification instances"
    return records


def test_criterion_1_approximation_ratio(certification):
    start = time.perf_counter()
    violations = []
    worst = 0.0
    for rec in certification:
        greedy = rec.result.coloring.colors_used
        if greedy > MAX_RATIO * rec.chi_padded:
            violations.append(
                f"seed {rec.seed_index}: {greedy} colors vs optimum {rec.chi_padded}"
            )
        if rec.chi_padded:
            worst = max(worst, greedy / rec.chi_padded)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "greedy within 5/2 of the exact optimum on every normalized instance",
        violations,
        f"{len(certification)} instances, worst ratio {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_validity_at_scale():
    violations = []
    instances: list[Instance] = []
    for i in range(996):
        instances.append(
            make_instance(
                derive_seed(VALIDITY_SEED, i),
                max_vertices=10,
                max_subtrees=14,
            )
        )
    # degenerate shapes: empty, single-vertex tree, one subtree, duplicates
    p3 = HostTree.of(3, [[0, 1], [1, 2]])
    instances.append(Instance(p3, ()))
    instances.append(Instance(HostTree.of(1, []), ()))
    instances.append(Instance(p3, (RootedSubtree.of(2, [[2, 1]]),)))
    instances.append(Instance(p3, (RootedSubtree.of(0, [[0, 1]]),) * 6))
    checked = 0
    for idx, inst in enumerate(instances):
        norm = normalize(inst)
        result = greedy_color(norm.padded)
        if not verify_coloring(norm.padded, result.coloring).ok:
            violations.append(f"instance {idx}: greedy padded coloring invalid")
        original = Coloring(
            {i: result.coloring.assignment[i] for i in range(norm.original_count)}
        )
        if not verify_coloring(inst, original).ok:
            violations.append(f"instance {idx}: greedy original slice invalid")
        if not verify_coloring(inst, first_fit_baseline(inst)).ok:
            violations.append(f"instance {idx}: baseline coloring invalid")
        if inst.size <= 30:
            _, witness = exact_chromatic(build_conflict_graph(inst))
            if not verify_coloring(inst, witness).ok:
                violations.append(f"instance {idx}: exact witness invalid")
        checked += 1
    _report(
        2,
        "greedy, baseline and exact-witness colorings all verify",
        violations,
        f"{checked} instances incl. degenerate shapes",
    )


def test_criterion_3_sandwich(certification):
    violations = []
    for rec in certification:
        greedy_padded = rec.result.coloring.colors_used
        chain = (
            rec.load_value,
            rec.glb_padded,
            rec.clique_padded,
            rec.chi_padded,
            greedy_padded,
        )
        if any(a > b for a, b in zip(chain, chain[1:])):
            violations.append(f"seed {rec.seed_index}: chain {chain} not monotone")
        original_colors = {
            rec.result.coloring.assignment[i] for i in range(rec.norm.original_count)
        }
        if rec.chi_original > len(original_colors):
            violations.append(
                f"seed {rec.seed_index}: original optimum {rec.chi_original} "
                f"exceeds greedy original colors {len(original_colors)}"
            )
    _report(
        3,
        "load <= lower bound <= clique <= exact <= greedy on every instance",
        violations,
        f"{len(certification)} instances",
    )


def test_criterion_4_edge_complements_bipartite(certification):
    violations = []
    checked_instances = 0
    for rec in certification[:220]:
        inst = rec.instance
        for u, v in inst.tree.edges:
            population = list(subtrees_on_edge(inst, (u, v)))
            bip = edge_complement_bipartite(inst, (u, v), population)
            n = len(bip.left) + len(bip.right)
            shifted = [(lp, len(bip.left) + rp) for lp, rp in edges_of(bip)]
            if not bfs_two_colorable(n, shifted):
                violations.append(
                    f"seed {rec.seed_index}: edge {{{u},{v}}} complement not bipartite"
                )
        checked_instances += 1
    _report(
        4,
        "per-edge complement graphs pass an independent 2-coloring check",
        violations,
        f"{checked_instances} instances, every host edge",
    )


def test_criterion_5_normalization(certification):
    violations = []
    checked = 0
    for rec in certification[:150]:
        target = rec.load_value
        padded = rec.norm.padded
        for u, v in padded.tree.edges:
            fwd = len(subtrees_on_arc(padded, (u, v)))
            bwd = len(subtrees_on_arc(padded, (v, u)))
            if fwd != target or bwd != target:
                violations.append(
                    f"seed {rec.seed_index}: arc counts {fwd}/{bwd} != load {target}"
                )
        if rec.chi_padded != rec.chi_original:
            violations.append(
                f"seed {rec.seed_index}: optimum changed "
                f"{rec.chi_original} -> {rec.chi_padded} after padding"
            )
        checked += 1
    _report(
        5,
        "padding fills every arc to the load and preserves the optimum",
        violations,
        f"{checked} instances",
    )


def test_criterion_6_matching_oracle_equivalence():
    violations = []
    for seed in range(600):
        g = random_bipartite(seed, max_side=12)
        m = max_bipartite_matching(g)
        slow = brute_force_matching_size(g)
        if m.size != slow:
            violations.append(f"seed {seed}: matcher {m.size} != brute force {slow}")
        if m.pairs != kuhn_recursive(g):
            violations.append(f"seed {seed}: pairs differ from recursive Kuhn")
    _report(
        6,
        "augmenting-path matching equals brute force and recursive Kuhn on 600 random graphs",
        violations,
        "sides up to 12+12",
    )


def test_criterion_7_round_color_bound(certification):
    violations = []
    rounds = 0
    for rec in certification:
        bad = round_bound_violations(rec.result, rec.load_value)
        rounds += sum(1 for rs in rec.result.trace if rs.kind in (1, 2, 3))
        if bad:
            violations.append(f"seed {rec.seed_index}: rounds {bad} over the bound")
    _report(
        7,
        "non-fork rounds never exceed max(2*load, colors already in use)",
        violations,
        f"{rounds} rounds checked",
    )


def test_criterion_8_determinism_and_goldens(tmp_path, p3_demo, star_demo):
    violations = []

    def run_twice(argv, name):
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert cli_main(argv + ["-o", str(a)]) == 0
        assert cli_main(argv + ["-o", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            violations.append(f"{name}: two runs differ")
        return a

    gen_argv = ["gen", "--vertices", "10", "--subtrees", "8", "--seed", "2024"]
    run_twice(gen_argv, "gen")

    for name, inst in (("p3_demo", p3_demo), ("star_demo", star_demo)):
        inst_path = tmp_path / f"{name}_instance.json"
        inst_path.write_text(dumps_instance(inst), encoding="utf-8")
        if inst_path.read_bytes() != (GOLDEN / f"{name}_instance.json").read_bytes():
            violations.append(f"{name}: instance bytes differ from golden")
        out = run_twice(["color", str(inst_path)], f"color_{name}")
        if out.read_bytes() != (GOLDEN / f"{name}_coloring.json").read_bytes():
            violations.append(f"{name}: coloring bytes differ from golden")

    csv_a = tmp_path / "bench_a.csv"
    csv_b = tmp_path / "bench_b.csv"
    bench_argv = ["bench", "--instances", "12", "--seed", "3"]
    assert cli_main(bench_argv + ["--csv", str(csv_a)]) == 0
    assert cli_main(bench_argv + ["--csv", str(csv_b)]) == 0
    if csv_a.read_bytes() != csv_b.read_bytes():
        violations.append("bench: two runs differ")
    if csv_a.read_bytes() != (GOLDEN / "bench_12_seed3.csv").read_bytes():
        violations.append("bench: CSV differs from golden")

    _report(8, "gen/color/bench are byte-identical and match the goldens", violations)


def test_criterion_9_edge_classification(certification, p3_tree, star_tree):
    violations = []
    order = bfs_edge_order(star_tree, 0)
    kinds = [classify_edge(order, i) for i in (1, 2, 3)]
    if kinds != [1, 4, 3]:
        violations.append(f"star kinds {kinds} != [1, 4, 3]")
    if order.edges[2][1] != 3:  # the fork's x is the next round's far end
        violations.append(f"star fork x {order.edges[2][1]} != 3")
    order3 = bfs_edge_order(p3_tree, 0)
    p3_kinds = [classify_edge(order3, i) for i in (1, 2)]
    if p3_kinds != [1, 2]:
        violations.append(f"path kinds {p3_kinds} != [1, 2]")
    for rec in certification:
        run_kinds = [rs.kind for rs in rec.result.trace]
        if run_kinds and (run_kinds.count(1) != 1 or run_kinds[0] != 1):
            violations.append(f"seed {rec.seed_index}: kind-1 rounds {run_kinds}")
    _report(
        9,
        "edge types classify as specified; exactly one first-kind round per run",
        violations,
        f"{len(certification)} runs scanned",
    )


@st.composite
def small_degree3_instances(draw) -> Instance:
    """A degree-<=3 tree on 2-10 vertices, each vertex joining an earlier
    one with spare degree, and 1-10 requests of up to 5 arcs, each grown
    from its root by taking one arc of the frontier at a time."""
    n = draw(st.integers(2, 10))
    degree = [0] * n
    edges = []
    for k in range(1, n):
        parent = draw(st.sampled_from([v for v in range(k) if degree[v] < 3]))
        degree[parent] += 1
        degree[k] += 1
        edges.append((parent, k))
    tree = HostTree.of(n, edges)
    subtrees = []
    for _ in range(draw(st.integers(1, 10))):
        root = draw(st.integers(0, n - 1))
        size = draw(st.integers(1, 5))
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


@settings(max_examples=200, deadline=None)
@given(inst=small_degree3_instances(), root=st.integers(0, 9))
def test_targeted_ratio_search(inst, root):
    """Hypothesis steers towards the worst greedy/χ it can find on small
    normalized instances, from a random root; every one must stay within
    5/2 and keep the per-round bound."""
    padded = normalize(inst).padded
    assume(padded.size <= ORACLE_GUARD)
    result = greedy_color(padded, root % inst.tree.vertices)
    assert verify_coloring(padded, result.coloring).ok
    assert round_bound_violations(result, load(inst)) == []
    greedy = result.coloring.colors_used
    chi = exact_chromatic(build_conflict_graph(padded))[0]
    target(greedy / chi, label="greedy / chi")
    assert greedy <= MAX_RATIO * chi, (
        f"{greedy} colors vs optimum {chi} on {dumps_instance(inst)}"
    )


# Colors in use after each round of the greedy on the normalized instance,
# by BFS root, the fork rounds per root and L = χ = LB, for the two
# instances the ratio hill-climbs found at greedy/χ = 5/3 and the one a
# fork-directed hill-climb found at greedy/χ = 2 (from roots 4 and 5).
_TWOS = (2,) * 8
_FOURS = (2, 2, 2, 4, 4, 4, 4, 4)
RATIO_GOLDENS = {
    "ratio_5_3_path": (
        ((4, 5, 5, 5), (4, 4, 5, 5), (3, 3, 3, 3), (3, 3, 3, 3), (3, 3, 4, 4)),
        0,
        3,
    ),
    "ratio_5_3_star": (((4, 5, 5), (4, 5, 5), (3, 3, 3), (3, 3, 3)), 1, 3),
    "ratio_2": ((_TWOS,) * 4 + (_FOURS,) * 2 + (_TWOS,) * 3, 3, 2),
}


@pytest.mark.parametrize("name", sorted(RATIO_GOLDENS))
def test_ratio_golden(name):
    """On the 5/3 instances the first round at root 0, which colors
    first-fit, already puts 4 colors on an edge whose bound is 3, and the
    greedy ends at 5.  On the ratio-2 instance root 0 is optimal, but from
    roots 4 and 5 the second fork round takes the greedy from 2 colors to
    4.  In every fork round the two schemes tie."""
    text = (GOLDEN / f"{name}_instance.json").read_text(encoding="utf-8")
    inst = loads_instance(text)
    assert dumps_instance(inst) == text
    padded = normalize(inst).padded
    chi = exact_chromatic(build_conflict_graph(padded))[0]
    per_root, forks, bound = RATIO_GOLDENS[name]
    assert load(inst) == global_lower_bound(padded) == chi == bound
    assert len(per_root) == inst.tree.vertices
    for root, counts in enumerate(per_root):
        result = greedy_color(padded, root)
        assert tuple(rs.colors_used_after for rs in result.trace) == counts
        assert result.coloring.colors_used == counts[-1]
        assert len(result.scheme_choices) == forks
        for c in result.scheme_choices:
            assert c.colors_scheme1 == c.colors_scheme2 == counts[c.round - 1]


@pytest.mark.parametrize("k", [2, 3])
def test_ratio_2_family(k):
    """Repeating each request of the ratio-2 instance k times keeps the
    ratio at 2: L = LB = χ = 2k, and the greedy uses 4k colors from roots
    4 and 5 and 2k from every other root, raw and normalized.  The padded
    instance (16k subtrees) is over the oracle guard, so χ gets its own
    limit."""
    text = (GOLDEN / "ratio_2_instance.json").read_text(encoding="utf-8")
    base = loads_instance(text)
    inst = Instance(base.tree, tuple(s for s in base.subtrees for _ in range(k)))
    padded = normalize(inst).padded
    assert padded.size == 16 * k > ORACLE_GUARD
    chi = exact_chromatic(build_conflict_graph(padded), padded.size)[0]
    assert load(inst) == global_lower_bound(padded) == chi == 2 * k
    for root in range(inst.tree.vertices):
        expected = 4 * k if root in (4, 5) else 2 * k
        for target in (inst, padded):
            assert greedy_color(target, root).coloring.colors_used == expected
