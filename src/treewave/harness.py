"""Instance generation, coloring verification, and the bench/certify runner.

The bench runner is the empirical check of the coloring guarantee: for
every generated instance it normalizes, colors, verifies each produced
coloring against the collision rule, and compares the greedy color count
with the exact optimum (where the oracle's size guard allows) and with
the matching lower bound.  The greedy runs on the normalized instance,
which its analysis needs; the optimum and the lower bound, which padding
does not change (see `bounds`), are computed on the smaller instance as
given, by one `compute_bounds` call as in the `bound` command; over the
exact guard a negative limit makes it skip the optimum.  A verification
failure or a greedy/exact ratio above 5/2 fails the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bounds import ORACLE_GUARD, compute_bounds, first_fit_baseline, normalize
from .greedy import GreedyResult, greedy_color
from .instances import (
    Arc,
    Coloring,
    HostTree,
    InputError,
    Instance,
    RootedSubtree,
    load,
)
from .rng import BELOW_LIMIT, XorShift64Star, derive_seed

MAX_RATIO = 2.5

ALL_SOLVERS = ("greedy", "baseline", "exact", "bounds")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise InputError("seed must satisfy 0 <= seed < 2**64")


@dataclass(frozen=True)
class GenParams:
    """Knobs for one generated instance; fully determined by the seed.

    The vertex count and the size range are each a range the generator
    draws from, so neither may hold more than 2**64 values
    (`XorShift64Star.below`).  The seed is one 64-bit word: a seed
    outside [0, 2**64) is refused, not wrapped onto one inside it.
    """

    num_vertices: int
    max_degree: int
    num_subtrees: int
    subtree_size_range: tuple[int, int]
    seed: int

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise InputError("num_vertices must be >= 1")
        if self.num_vertices > BELOW_LIMIT:
            raise InputError("num_vertices must be <= 2**64")
        if self.max_degree not in (2, 3):
            raise InputError("max_degree must be 2 or 3")
        if self.num_subtrees < 0:
            raise InputError("num_subtrees must be >= 0")
        lo, hi = self.subtree_size_range
        if not (1 <= lo <= hi):
            raise InputError("subtree_size_range must satisfy 1 <= min <= max")
        if hi - lo + 1 > BELOW_LIMIT:
            raise InputError("subtree_size_range must span at most 2**64 sizes")
        if self.num_vertices == 1 and self.num_subtrees > 0:
            raise InputError("a single-vertex tree has no links to route subtrees on")
        _check_seed(self.seed)


def generate_instance(p: GenParams) -> Instance:
    """Deterministic random instance.

    The tree grows by sequential attachment: vertex k joins a uniformly
    random earlier vertex that still has degree capacity.  Each subtree
    starts at a uniform random root and repeatedly claims a uniformly
    random outward arc on its frontier until it reaches a target size
    drawn from the configured range (or runs out of tree).  Draw order
    per subtree: root, then target size, then frontier picks.  Both
    steps yield a valid tree and valid subtrees by construction, so the
    instance is built unchecked.
    """
    rng = XorShift64Star(p.seed)
    n = p.num_vertices
    edges: list[tuple[int, int]] = []
    degree = [0] * n
    open_vertices = [0]  # ascending, every vertex with spare degree
    for k in range(1, n):
        pos = rng.below(len(open_vertices))
        parent = open_vertices[pos]
        edges.append((parent, k))
        degree[parent] += 1
        if degree[parent] == p.max_degree:
            del open_vertices[pos]
        degree[k] += 1
        open_vertices.append(k)  # a leaf; max_degree >= 2 leaves it room
    tree = HostTree(n, tuple(edges))
    adjacency = tree.adjacency

    lo, hi = p.subtree_size_range
    subtrees: list[RootedSubtree] = []
    for _ in range(p.num_subtrees):
        root = rng.below(n)
        target = rng.randint(lo, hi)
        visited = {root}
        frontier = [Arc(root, nb) for nb in adjacency[root]]
        arcs: list[Arc] = []
        while len(arcs) < target and frontier:
            arc = frontier.pop(rng.below(len(frontier)))
            arcs.append(arc)
            visited.add(arc.head)
            frontier.extend(
                Arc(arc.head, nb) for nb in adjacency[arc.head] if nb not in visited
            )
        subtrees.append(RootedSubtree(root, tuple(arcs)))
    return Instance._trusted(tree, tuple(subtrees))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[tuple[Arc, tuple[int, int]], ...]


def verify_coloring(inst: Instance, c: Coloring) -> VerifyReport:
    """Check that subtrees sharing a directed edge never share a color.

    The coloring must hold one color per subtree (`Coloring.color_list`).
    Violations carry the witnessing arc and the offending index pair.
    """
    colors = c.color_list(inst.size)
    violations: list[tuple[Arc, tuple[int, int]]] = []
    for arc, members in sorted(zip(inst.tree.arcs, inst.arc_members)):
        first_with: dict[int, int] = {}
        for idx in members:
            color = colors[idx]
            if color in first_with:
                violations.append((arc, (first_with[color], idx)))
            else:
                first_with[color] = idx
    return VerifyReport(ok=not violations, violations=tuple(violations))


def round_bound_violations(result: GreedyResult, load_value: int) -> list[int]:
    """Rounds of kind 1/2/3 that ended above max(2*load, previous count).

    On a normalized instance this list must be empty; the bench runner
    treats a non-empty list as a failure.
    """
    bad = []
    previous = 0
    for rs in result.trace:
        if rs.kind in (1, 2, 3) and rs.colors_used_after > max(2 * load_value, previous):
            bad.append(rs.round)
        previous = rs.colors_used_after
    return bad


@dataclass(frozen=True)
class BenchRecord:
    instance_id: int
    seed: int | None
    vertices: int
    subtrees: int
    padded_subtrees: int
    load: int
    lower_bound: int | None
    exact_chromatic: int | None
    greedy_colors_padded: int | None
    greedy_colors_original: int | None
    baseline_colors: int | None
    ratio_vs_exact: float | None
    ratio_vs_lower_bound: float | None


@dataclass(frozen=True)
class BenchItem:
    instance_id: int
    seed: int | None
    instance: Instance


@dataclass(frozen=True)
class SweepSpec:
    """Parameter ranges for a generated bench sweep.

    Vertex counts, request counts and arc counts are drawn from these
    ranges, so none may hold more than 2**64 values
    (`XorShift64Star.below`).  The base seed, like `GenParams.seed`, must
    lie in [0, 2**64).
    """

    instances: int
    seed: int
    max_vertices: int = 8
    max_degree: int = 3
    max_subtrees: int = 10
    min_arcs: int = 1
    max_arcs: int = 3

    def __post_init__(self) -> None:
        if self.instances < 0:
            raise InputError("instance count must be >= 0")
        if self.max_vertices < 2:
            raise InputError("max_vertices must be >= 2")
        if self.max_vertices > BELOW_LIMIT:
            raise InputError("max_vertices must be <= 2**64")
        if self.max_subtrees < 0:
            raise InputError("max_subtrees must be >= 0")
        if self.max_subtrees >= BELOW_LIMIT:
            raise InputError("max_subtrees must be < 2**64")
        if not (1 <= self.min_arcs <= self.max_arcs):
            raise InputError("arc range must satisfy 1 <= min <= max")
        if self.max_arcs - self.min_arcs + 1 > BELOW_LIMIT:
            raise InputError("arc range must span at most 2**64 sizes")
        _check_seed(self.seed)


def sweep_items(spec: SweepSpec) -> list[BenchItem]:
    """Instances of a sweep; sizes and seeds derive from the base seed."""
    items = []
    for i in range(spec.instances):
        instance_seed = derive_seed(spec.seed, i)
        rng = XorShift64Star(instance_seed)
        vertices = rng.randint(2, spec.max_vertices)
        count = rng.randint(0, spec.max_subtrees)
        params = GenParams(
            num_vertices=vertices,
            max_degree=spec.max_degree,
            num_subtrees=count,
            subtree_size_range=(spec.min_arcs, spec.max_arcs),
            seed=rng.next_u64(),
        )
        items.append(BenchItem(i, instance_seed, generate_instance(params)))
    return items


@dataclass(frozen=True)
class BenchOutcome:
    records: tuple[BenchRecord, ...]
    summary: Mapping[str, object]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_valid(
    failures: list[str], item: BenchItem, what: str, inst: Instance, c: Coloring
) -> None:
    """Verify one coloring; on a violation, append the first one to `failures`."""
    rep = verify_coloring(inst, c)
    if not rep.ok:
        failures.append(
            f"instance {item.instance_id}: {what} invalid at {rep.violations[0]}"
        )


def bench_run(
    items: Iterable[BenchItem],
    solvers: Sequence[str] = ALL_SOLVERS,
    root: int = 0,
    exact_limit: int = ORACLE_GUARD,
) -> BenchOutcome:
    """Normalize, solve, verify, and score every instance.

    The greedy colors the padded instance, and its coloring and round
    bound are checked there; the baseline, the lower bound and the exact
    optimum (one `compute_bounds` call) run on the instance as given, and
    the exact witness is verified on it.  Padding changes neither the
    optimum nor the bound, so every record equals one scored on the
    padded instance.  The exact guard compares the padded size with
    `exact_limit`, so which records carry an optimum does not depend on
    the instance it is computed on.

    Records come back sorted by instance id.  Failures (invalid colorings,
    round-bound violations, ratios above 5/2) do not stop the sweep; they
    are collected and reported so a caller can fail the run after seeing
    everything.
    """
    unknown = set(solvers) - set(ALL_SOLVERS)
    if unknown:
        raise InputError(f"unknown solvers: {sorted(unknown)}")
    records: list[BenchRecord] = []
    failures: list[str] = []
    for item in sorted(items, key=lambda it: it.instance_id):
        inst = item.instance
        norm = normalize(inst)
        padded = norm.padded
        load_value = load(inst)

        greedy_padded = greedy_original = None
        if "greedy" in solvers:
            result = greedy_color(padded, root)
            _check_valid(failures, item, "greedy coloring", padded, result.coloring)
            bad_rounds = round_bound_violations(result, load_value)
            if bad_rounds:
                failures.append(
                    f"instance {item.instance_id}: round color bound broken in rounds {bad_rounds}"
                )
            greedy_padded = result.coloring.colors_used
            greedy_original = len(set(result.coloring.assignment[: norm.original_count]))

        baseline_colors = None
        if "baseline" in solvers:
            base = first_fit_baseline(inst)
            _check_valid(failures, item, "baseline coloring", inst, base)
            baseline_colors = base.colors_used

        lower = chi = None
        exact = "exact" in solvers and padded.size <= exact_limit
        if exact or "bounds" in solvers:
            report = compute_bounds(inst, exact_limit if exact else -1)
            lower = report.global_lower_bound if "bounds" in solvers else None
            chi = report.exact_chromatic
            if exact:
                _check_valid(failures, item, "exact witness", inst, report.exact_witness)

        ratio_exact = None
        if chi is not None and chi > 0 and greedy_padded is not None:
            ratio_exact = greedy_padded / chi
            if ratio_exact > MAX_RATIO:
                failures.append(
                    f"instance {item.instance_id}: greedy/exact ratio "
                    f"{ratio_exact:.6f} exceeds {MAX_RATIO}"
                )
        ratio_lower = None
        if lower is not None and lower > 0 and greedy_padded is not None:
            ratio_lower = greedy_padded / lower

        records.append(
            BenchRecord(
                instance_id=item.instance_id,
                seed=item.seed,
                vertices=inst.tree.vertices,
                subtrees=inst.size,
                padded_subtrees=padded.size,
                load=load_value,
                lower_bound=lower,
                exact_chromatic=chi,
                greedy_colors_padded=greedy_padded,
                greedy_colors_original=greedy_original,
                baseline_colors=baseline_colors,
                ratio_vs_exact=ratio_exact,
                ratio_vs_lower_bound=ratio_lower,
            )
        )

    exact_ratios = [r.ratio_vs_exact for r in records if r.ratio_vs_exact is not None]
    lower_ratios = [
        r.ratio_vs_lower_bound for r in records if r.ratio_vs_lower_bound is not None
    ]
    summary: dict[str, object] = {
        "instances": len(records),
        "with_exact": sum(1 for r in records if r.exact_chromatic is not None),
        "max_ratio_vs_exact": max(exact_ratios) if exact_ratios else None,
        "mean_ratio_vs_exact": (
            sum(exact_ratios) / len(exact_ratios) if exact_ratios else None
        ),
        "max_ratio_vs_lower_bound": max(lower_ratios) if lower_ratios else None,
        "mean_ratio_vs_lower_bound": (
            sum(lower_ratios) / len(lower_ratios) if lower_ratios else None
        ),
        "failures": len(failures),
    }
    return BenchOutcome(tuple(records), summary, tuple(failures))
