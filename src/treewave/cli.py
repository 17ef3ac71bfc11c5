"""Command-line interface.

Subcommands: gen, color, exact, bound, verify, bench.  Exit codes:
0 success / valid, 1 invalid coloring or violated guarantee, 2 bad input.
All stdout output is byte-deterministic for fixed flags and seeds;
timing information goes to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .bounds import (
    ORACLE_GUARD,
    compute_bounds,
    exact_chromatic,
    first_fit_baseline,
    normalize,
)
from .conflict import build_conflict_graph
from .formats import (
    dumps_bounds,
    dumps_coloring,
    dumps_instance,
    dumps_summary,
    loads_coloring,
    loads_instance,
    records_to_csv,
)
from .greedy import greedy_color
from .harness import (
    ALL_SOLVERS,
    BenchItem,
    GenParams,
    SweepSpec,
    bench_run,
    generate_instance,
    sweep_items,
    verify_coloring,
)
from .instances import Coloring, InputError


def _read_text(path: str) -> str:
    """A document as UTF-8 text, whatever the locale; `-` is stdin."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode {path}: {e}") from e


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(
        num_vertices=args.vertices,
        max_degree=args.max_degree,
        num_subtrees=args.subtrees,
        subtree_size_range=(args.min_arcs, args.max_arcs),
        seed=args.seed,
    )
    inst = generate_instance(params)
    _write_text(dumps_instance(inst), args.output)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    inst = loads_instance(_read_text(args.instance))
    if args.algo == "baseline":
        coloring = first_fit_baseline(inst)
        rep = verify_coloring(inst, coloring)
        _write_text(dumps_coloring(coloring.color_list(inst.size)), args.output)
        return 0 if rep.ok else 1
    if args.no_normalize:
        target, original_count = inst, None
    else:
        norm = normalize(inst)
        target, original_count = norm.padded, norm.original_count
    result = greedy_color(target, args.root)
    rep = verify_coloring(target, result.coloring)
    doc = dumps_coloring(result.coloring.color_list(target.size), original_count)
    if args.trace:
        for rs in result.trace:
            print(
                f"round {rs.round}: edge {rs.edge} kind {rs.kind} "
                f"newly_colored={list(rs.newly_colored)} colors={rs.colors_used_after}",
                file=sys.stderr,
            )
        for ch in result.scheme_choices:
            print(
                f"round {ch.round}: scheme {ch.chosen} won "
                f"({ch.colors_scheme1} vs {ch.colors_scheme2} colors)",
                file=sys.stderr,
            )
    _write_text(doc, args.output)
    return 0 if rep.ok else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = loads_instance(_read_text(args.instance))
    g = build_conflict_graph(inst)
    chi, witness = exact_chromatic(g, args.limit)
    rep = verify_coloring(inst, witness)
    _write_text(dumps_coloring(witness.color_list(inst.size)), args.output)
    return 0 if rep.ok and witness.colors_used == chi else 1


def _cmd_bound(args: argparse.Namespace) -> int:
    inst = loads_instance(_read_text(args.instance))
    _write_text(dumps_bounds(compute_bounds(inst, limit=args.limit)), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = loads_instance(_read_text(args.instance))
    colors, original = loads_coloring(_read_text(args.coloring))
    if len(colors) != inst.size and original is not None and len(original) == inst.size:
        colors = original  # padded-run document checked against the original instance
    if len(colors) != inst.size:
        raise InputError(f"coloring has {len(colors)} entries for {inst.size} subtrees")
    rep = verify_coloring(inst, Coloring(dict(enumerate(colors))))
    if rep.ok:
        print("valid")
        return 0
    for arc, (i, j) in rep.violations:
        print(f"violation: subtrees {i} and {j} share a color on arc ({arc.tail},{arc.head})")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    if args.instance:
        items = [
            BenchItem(i, None, loads_instance(_read_text(path)))
            for i, path in enumerate(args.instance)
        ]
    else:
        # each sweep flag's dest is the name of the SweepSpec field it sets
        spec = {f.name: getattr(args, f.name) for f in dataclasses.fields(SweepSpec)}
        items = sweep_items(SweepSpec(**spec))
    start = time.perf_counter()
    outcome = bench_run(items, solvers, root=args.root, exact_limit=args.exact_limit)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    to_file = args.csv not in (None, "-")
    _write_text(records_to_csv(outcome.records), args.csv)
    (sys.stdout if to_file else sys.stderr).write(dumps_summary(outcome.summary))
    for failure in outcome.failures:
        print("FAIL: " + failure, file=sys.stderr)
    print(f"solver wall time: {elapsed_ms:.1f} ms", file=sys.stderr)
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewave",
        description="Wavelength assignment for multicast light trees on tree networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=3, choices=(2, 3))
    p.add_argument("--subtrees", type=int, required=True)
    p.add_argument("--min-arcs", type=int, default=1)
    p.add_argument("--max-arcs", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="color an instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--algo", choices=("greedy", "baseline"), default="greedy")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", help="exact minimum coloring (small instances)")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=ORACLE_GUARD)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bound", help="load, matching lower bound, clique, exact")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=ORACLE_GUARD)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="check a coloring against an instance")
    p.add_argument("instance")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="sweep instances, solve, verify, score")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=SweepSpec.max_vertices)
    p.add_argument(
        "--max-degree", type=int, default=SweepSpec.max_degree, choices=(2, 3)
    )
    p.add_argument("--max-subtrees", type=int, default=SweepSpec.max_subtrees)
    p.add_argument("--min-arcs", type=int, default=SweepSpec.min_arcs)
    p.add_argument("--max-arcs", type=int, default=SweepSpec.max_arcs)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--exact-limit", type=int, default=ORACLE_GUARD)
    p.add_argument("--solvers", default=",".join(ALL_SOLVERS))
    p.add_argument("--csv", default=None)
    p.add_argument(
        "--instance",
        action="append",
        default=None,
        help="bench fixed instance file(s) instead of a generated sweep",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as e:
        # a size that passes the parameter checks but cannot be allocated;
        # a MemoryError usually carries no message of its own
        print(f"error: size too large: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
