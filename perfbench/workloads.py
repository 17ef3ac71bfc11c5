"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload has `setup()` (inputs from the seed; timed as set-up),
`op(input)` (one timed operation), `check(i, input, out)` (returns the
operation's output text and a list of errors), `collect()` (joins the
outputs once the timed phase ends), `finish(inputs)` (checks that need
more work than fits between operations) and digest helpers for the
bit-identity reference.  Import this module only after `treewave`.
"""

from __future__ import annotations

import hashlib
import json

import treewave as tw
from treewave import formats
from treewave.rng import XorShift64Star, derive_seed

import checks

DEFAULT_SEED = 1
ORACLE_DEADLINE_S = 0.005


class DeadlineExceeded(Exception):
    """Raised from the SIGALRM handler when an operation overruns its deadline."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _prefixed(i: int, errors: list[str]) -> list[str]:
    return [f"input {i}: {e}" for e in errors]


class ColorLarge:
    """What `treewave color` does, on V=100 host trees with 200 requests."""

    name = "color-large"
    deadline_s = None

    def __init__(self, seed: int, vertices: int = 100, subtrees: int = 200, pool: int = 64):
        self.seed = seed
        self.vertices = vertices
        self.subtrees = subtrees
        self.pool = pool
        self.colors_used: dict[int, int] = {}

    def setup(self) -> list[str]:
        texts = []
        for i in range(self.pool):
            params = tw.GenParams(
                self.vertices, 3, self.subtrees, (1, 6), seed=derive_seed(self.seed, i)
            )
            texts.append(formats.dumps_instance(tw.generate_instance(params)))
        return texts

    def op(self, text: str):
        inst = formats.loads_instance(text)
        norm = tw.normalize(inst)
        result = tw.greedy_color(norm.padded, 0)
        report = tw.verify_coloring(norm.padded, result.coloring)
        doc = formats.dumps_coloring(
            result.coloring.color_list(norm.padded.size),
            original_count=norm.original_count,
        )
        return doc, report.ok, result

    def check(self, i: int, text: str, out) -> tuple[str, list[str]]:
        doc_text, verified, result = out
        src = json.loads(text)
        members, count, load = checks.arc_table(
            src["tree"]["edges"], [s["arcs"] for s in src["subtrees"]], pad=True
        )
        doc = json.loads(doc_text)
        errors = [] if verified else ["verify_coloring rejected the coloring"]
        errors += checks.coloring_doc_errors(doc, len(src["subtrees"]))
        errors += checks.coloring_errors(members, count, doc.get("colors", []))
        errors += checks.round_bound_errors(result.trace, load)
        self.colors_used[i] = doc.get("num_colors", 0)
        return doc_text, _prefixed(i, errors)

    def collect(self) -> None:
        pass

    def finish(self, inputs) -> list[str]:
        """Greedy uses at most 2.5 x the matching lower bound of its instance."""
        errors = []
        for i, used in sorted(self.colors_used.items()):
            norm = tw.normalize(formats.loads_instance(inputs[i]))
            lower = tw.global_lower_bound(norm.padded)
            errors += _prefixed(i, checks.ratio_errors(used, lower))
        return errors

    def reference(self, digests: dict[int, str]):
        return {"sha256": [digests[i] for i in range(self.pool)]}

    def compare(self, ref, digests: dict[int, str]) -> list[str]:
        if len(ref["sha256"]) != self.pool:
            return [f"the reference holds {len(ref['sha256'])} colorings, the pool {self.pool}"]
        return [
            f"input {i}: coloring differs from the reference bytes"
            for i, d in sorted(digests.items())
            if ref["sha256"][i] != d
        ]


class Sweep:
    """`bench_run` one small generated instance at a time, all four solvers."""

    name = "sweep"
    deadline_s = None

    def __init__(self, seed: int, instances: int = 1500):
        self.seed = seed
        self.instances = instances
        self.records: dict[int, object] = {}
        self.csv: str | None = None

    def setup(self):
        return tw.sweep_items(tw.SweepSpec(self.instances, self.seed))

    def op(self, item):
        return tw.bench_run([item])

    def check(self, i: int, item, outcome) -> tuple[str, list[str]]:
        errors = list(outcome.failures)
        if len(outcome.records) != 1:
            return "", _prefixed(i, errors + ["expected exactly one record"])
        rec = outcome.records[0]
        inst = item.instance
        _, count, load = checks.arc_table(
            inst.tree.edges, [s.arcs for s in inst.subtrees], pad=True
        )
        if (rec.subtrees, rec.padded_subtrees, rec.load) != (inst.size, count, load):
            errors.append("subtree, padded or load count disagrees with the instance")
        lower, chi = rec.lower_bound, rec.exact_chromatic
        greedy, original, base = (
            rec.greedy_colors_padded,
            rec.greedy_colors_original,
            rec.baseline_colors,
        )
        if None in (lower, greedy, original, base):
            errors.append("a solver left its column empty")
        else:
            errors += checks.ratio_errors(greedy, lower)
            if original > greedy:
                errors.append("original slice uses more colors than the padded coloring")
            if chi is not None:
                if not lower <= chi <= greedy <= checks.MAX_RATIO * chi:
                    errors.append(f"not LB {lower} <= exact {chi} <= greedy {greedy} <= 2.5 exact")
                if base < chi:
                    errors.append(f"first-fit baseline {base} below the optimum {chi}")
        self.records.setdefault(i, rec)
        row = ",".join(str(getattr(rec, col)) for col in formats.CSV_COLUMNS)
        return row, _prefixed(i, errors)

    def collect(self) -> None:
        if len(self.records) == self.instances:
            self.csv = formats.records_to_csv([self.records[i] for i in range(self.instances)])

    def finish(self, inputs) -> list[str]:
        return []

    def reference(self, digests: dict[int, str]):
        return {"sha256": sha256(self.csv)}

    def compare(self, ref, digests: dict[int, str]) -> list[str]:
        if self.csv is None:
            return ["the sweep did not complete one pass, so its CSV was not compared"]
        if sha256(self.csv) != ref["sha256"]:
            return ["sweep CSV differs from the reference bytes"]
        return []


def bounds_report_text(report) -> str:
    """The `treewave bound` document for a BoundsReport."""
    doc = {
        "load": report.load,
        "per_edge_bound": {
            f"{u}-{v}": b for (u, v), b in sorted(report.per_edge_bound.items())
        },
        "global_lower_bound": report.global_lower_bound,
        "clique_lower_bound": report.clique_lower_bound,
        "exact_chromatic": report.exact_chromatic,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


class Oracle:
    """`treewave bound` on raw 16-24-subtree instances: LB, clique and exact chi."""

    name = "oracle"
    NONE = "-" * 8  # reference slot of an input that missed its deadline

    def __init__(
        self,
        seed: int,
        instances: int = 1000,
        subtrees: tuple[int, int] = (16, 24),
        deadline_s: float | None = ORACLE_DEADLINE_S,
    ):
        self.seed = seed
        self.instances = instances
        self.subtrees = subtrees
        self.deadline_s = deadline_s
        self.chi: dict[int, int] = {}

    def setup(self) -> list[str]:
        texts = []
        for i in range(self.instances):
            rng = XorShift64Star(derive_seed(self.seed, i))
            vertices = rng.randint(5, 9)
            count = rng.randint(*self.subtrees)
            params = tw.GenParams(vertices, 3, count, (1, 4), seed=rng.next_u64())
            texts.append(formats.dumps_instance(tw.generate_instance(params)))
        return texts

    def op(self, text: str):
        inst = formats.loads_instance(text)
        return inst, tw.compute_bounds(inst)

    def check(self, i: int, text: str, out) -> tuple[str, list[str]]:
        inst, rep = out
        _, _, load = checks.arc_table(
            inst.tree.edges, [s.arcs for s in inst.subtrees], pad=False
        )
        errors = []
        edges = {(min(u, v), max(u, v)) for u, v in inst.tree.edges}
        if set(rep.per_edge_bound) != edges:
            errors.append("per-edge bounds do not cover exactly the host edges")
        if rep.load != load:
            errors.append(f"load {rep.load}, expected {load}")
        if rep.global_lower_bound != max(rep.per_edge_bound.values(), default=0):
            errors.append("global lower bound is not the largest per-edge bound")
        lower, clique, chi = rep.global_lower_bound, rep.clique_lower_bound, rep.exact_chromatic
        if clique is None or chi is None:
            errors.append("clique or exact chromatic number missing under the size guard")
        elif not lower <= clique <= chi:
            errors.append(f"not LB {lower} <= clique {clique} <= chi {chi}")
        else:
            self.chi.setdefault(i, chi)
        return bounds_report_text(rep), _prefixed(i, errors)

    def collect(self) -> None:
        pass

    def finish(self, inputs) -> list[str]:
        """The exact witness is a valid coloring with chi colors."""
        errors = []
        for i, chi in sorted(self.chi.items()):
            inst = formats.loads_instance(inputs[i])
            members, count, _ = checks.arc_table(
                inst.tree.edges, [s.arcs for s in inst.subtrees], pad=False
            )
            chi_again, witness = tw.exact_chromatic(tw.build_conflict_graph(inst))
            colors = witness.color_list(inst.size)
            if chi_again != chi or len(set(colors)) != chi:
                errors += _prefixed(i, [f"witness uses {len(set(colors))} colors, chi is {chi}"])
            errors += _prefixed(i, checks.coloring_errors(members, count, colors))
        return errors

    def reference(self, digests: dict[int, str]):
        return {
            "sha256_8": "".join(
                digests[i][:8] if i in digests else self.NONE for i in range(self.instances)
            )
        }

    def compare(self, ref, digests: dict[int, str]) -> list[str]:
        stored = ref["sha256_8"]
        bad = []
        for i, d in sorted(digests.items()):
            want = stored[8 * i : 8 * i + 8]
            if want != self.NONE and want != d[:8]:
                bad.append(f"input {i}: bounds report differs from the reference bytes")
        return bad


WORKLOADS = {w.name: w for w in (ColorLarge, Sweep, Oracle)}
