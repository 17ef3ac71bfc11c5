"""Wavelength assignment for multicast light trees on tree fiber networks.

Core pieces: the instance data model, conflict graphs, maximum bipartite
matching, the round-based greedy colorer with its matching-driven color
reuse, exact chromatic/clique oracles, load normalization, lower bounds,
and a generation/verification/bench harness with a CLI.
"""

from .bounds import (
    NormalizedInstance,
    compute_bounds,
    edge_lower_bound,
    exact_chromatic,
    first_fit_baseline,
    global_lower_bound,
    max_clique,
    normalize,
)
from .conflict import (
    BipartiteGraph,
    ConflictGraph,
    build_conflict_graph,
    edge_complement_bipartite,
)
from .greedy import (
    GreedyResult,
    bfs_edge_order,
    classify_edge,
    greedy_color,
    process_edge_1,
    process_edge_2,
    process_edge_simple,
)
from .harness import (
    BenchItem,
    GenParams,
    SweepSpec,
    bench_run,
    generate_instance,
    round_bound_violations,
    sweep_items,
    verify_coloring,
)
from .instances import (
    Arc,
    Coloring,
    HostTree,
    InputError,
    Instance,
    InternalError,
    LimitError,
    RootedSubtree,
    load,
    validate_subtree,
    validate_tree,
)
from .matching import max_bipartite_matching

__version__ = "0.1.0"

# Kept for callers that record which kernels ran; there is only one set.
kernel_backend = "pure"

__all__ = [
    "Arc",
    "BenchItem",
    "BipartiteGraph",
    "Coloring",
    "ConflictGraph",
    "GenParams",
    "GreedyResult",
    "HostTree",
    "InputError",
    "Instance",
    "InternalError",
    "LimitError",
    "NormalizedInstance",
    "RootedSubtree",
    "SweepSpec",
    "bench_run",
    "bfs_edge_order",
    "build_conflict_graph",
    "classify_edge",
    "compute_bounds",
    "edge_complement_bipartite",
    "edge_lower_bound",
    "exact_chromatic",
    "first_fit_baseline",
    "generate_instance",
    "global_lower_bound",
    "greedy_color",
    "kernel_backend",
    "load",
    "max_bipartite_matching",
    "max_clique",
    "normalize",
    "process_edge_1",
    "process_edge_2",
    "process_edge_simple",
    "round_bound_violations",
    "sweep_items",
    "validate_subtree",
    "validate_tree",
    "verify_coloring",
]
