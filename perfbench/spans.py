"""Timing spans around public treewave functions, taken from outside the package.

A `Tracer` rebinds each named function to a timing wrapper in every
``treewave`` namespace that holds it (the defining module, the package and
every module that imported it by name), so calls between layers are timed
too.  `uninstall` puts the originals back.  Self time is a span's total
time minus the time covered by its child spans.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; a span is reported as "<module>.<function>".
OP_SPANS = (
    ("greedy", "greedy_color"),
    ("greedy", "classify_edge"),
    ("greedy", "process_edge_simple"),
    ("greedy", "process_edge_1"),
    ("greedy", "process_edge_2"),
    ("instances", "validate_subtree"),
    ("bounds", "normalize"),
    ("conflict", "build_conflict_graph"),
    ("conflict", "edge_complement_bipartite"),
    ("matching", "max_bipartite_matching"),
    ("bounds", "global_lower_bound"),
    ("bounds", "compute_bounds"),
    ("bounds", "exact_chromatic"),
    ("bounds", "max_clique"),
    ("bounds", "first_fit_baseline"),
    ("formats", "loads_instance"),
    ("formats", "dumps_coloring"),
    ("formats", "records_to_csv"),
    ("harness", "verify_coloring"),
    ("harness", "bench_run"),
)
SETUP_SPANS = (("harness", "generate_instance"),)

# Counts taken from the traced calls; rounds and padding repeat exactly
# for a fixed seed, `timeouts` does not.
COUNT_NAMES = (
    "greedy.rounds_kind1",
    "greedy.rounds_kind2",
    "greedy.rounds_kind3",
    "greedy.rounds_kind4",
    "greedy.fork_scheme2_wins",
    "bounds.padding_count",
    "matching.pairs",
    "bounds.exact_chromatic.timeouts",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_greedy(counts: Counter, result) -> None:
    for rs in result.trace:
        counts[f"greedy.rounds_kind{rs.kind}"] += 1
    counts["greedy.fork_scheme2_wins"] += sum(
        1 for ch in result.scheme_choices if ch.chosen == 2
    )


def _count_normalize(counts: Counter, norm) -> None:
    counts["bounds.padding_count"] += norm.padding_count


def _count_matching(counts: Counter, matching) -> None:
    counts["matching.pairs"] += matching.size


AFTER = {
    "greedy.greedy_color": _count_greedy,
    "bounds.normalize": _count_normalize,
    "matching.max_bipartite_matching": _count_matching,
}


class Tracer:
    """Per-span call counts, total and self seconds, plus layer counts.

    `top_s` accumulates the time of spans entered while no other span was
    open, which is what covers an operation's wall time.
    """

    def __init__(self, spans, interrupt: type[BaseException] | None = None):
        self.names = [f"{mod}.{fn}" for mod, fn in spans]
        self._spans = spans
        self._interrupt = interrupt
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.rss_growth_mb = 0.0
        self.top_s = 0.0
        self._open: list[float] = []
        self._rebound: list[tuple[object, str, object]] = []

    def reset_stack(self) -> None:
        """Forget spans left open by an interrupted operation."""
        self._open.clear()

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        track_rss = name == "greedy.greedy_color"
        interrupt = self._interrupt or ()

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            rss0 = _maxrss_mb() if track_rss else 0.0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except interrupt:
                self.counts[name + ".timeouts"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop() if self._open else 0.0
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.top_s += elapsed
            if track_rss:
                self.rss_growth_mb += _maxrss_mb() - rss0
            if after is not None:
                after(self.counts, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "treewave" or key.startswith("treewave."))
        ]
        for mod, fn_name in self._spans:
            original = getattr(sys.modules[f"treewave.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span_metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        return out
