"""Seeded benchmark for treewave: one workload per process, one thread.

    python3 perfbench/run.py --workload color-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `treewave` is imported from its
`src/` directory and nowhere else.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With `--trace 0`
the metrics are the end-to-end ones, measured with no instrumentation;
with `--trace 1` they are the per-layer spans and counts of a traced pass
plus the overhead of that tracing.  The line before it describes the run
(commit, backend, Python, CPU count, seed, operations).  The exit code is
0 only when every output passed its checks.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5


def import_treewave():
    """Import treewave from ROOT/src; returns the module and the import time."""
    src = ROOT / "src"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        tw = importlib.import_module("treewave")
    except ImportError as e:
        raise SystemExit(f"error: cannot import treewave from {src}: {e}")
    elapsed = time.perf_counter() - start
    if src.resolve() not in Path(tw.__file__).resolve().parents:
        raise SystemExit(f"error: treewave was imported from {tw.__file__}, not {src}")
    return tw, elapsed


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident set size now, from /proc/self/statm; the peak where that is missing."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * PAGE_MB
    except OSError:
        return maxrss_mb()


@dataclass
class Phase:
    """What one phase of operations did, one entry per operation."""

    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    missed: int = 0
    covered_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed - self.missed

    def best(self) -> tuple[list[float], int]:
        """Each input's best latency over its repeats, and how many inputs
        completed in that best operation."""
        best: dict[int, tuple[float, bool]] = {}
        for i, latency, ok in zip(self.order, self.latencies, self.ok):
            if i not in best or latency < best[i][0]:
                best[i] = (latency, ok)
        return [b[0] for b in best.values()], sum(b[1] for b in best.values())


def on_alarm(signum, frame):
    from workloads import DeadlineExceeded

    raise DeadlineExceeded()


def _call(wl, x):
    if wl.deadline_s is None:
        return wl.op(x)
    signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
    try:
        return wl.op(x)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_phase(wl, inputs, seconds: float, order=None, tracer=None) -> Phase:
    """Run whole passes over the inputs until `seconds` have passed (at
    least one pass), or exactly the inputs listed in `order`.  Whole passes
    repeat every input equally often.

    Each output is checked right after its operation, outside the timed
    region, and released before the next operation starts.
    """
    from workloads import DeadlineExceeded, sha256

    ph = Phase()
    start = time.perf_counter()
    k = 0
    while True:
        if order is not None:
            if k == len(order):
                break
            i = order[k]
        else:
            if k and k % len(inputs) == 0 and time.perf_counter() - start >= seconds:
                break
            i = k % len(inputs)
        k += 1
        top0 = tracer.top_s if tracer else 0.0
        out = None
        t0 = time.perf_counter()
        try:
            out = _call(wl, inputs[i])
        except DeadlineExceeded:
            ph.missed += 1
        except Exception as e:  # an operation that raises is a failed operation
            ph.failed += 1
            ph.errors.append(f"input {i}: raised {e!r}")
        ph.latencies.append(time.perf_counter() - t0)
        ph.rss_mb.append(rss_mb())
        ph.order.append(i)
        ph.ok.append(out is not None)
        if tracer:
            ph.covered_s += tracer.top_s - top0
            tracer.reset_stack()
        if out is None:
            continue
        text, errors = wl.check(i, inputs[i], out)
        del out
        digest = sha256(text)
        if ph.digests.setdefault(i, digest) != digest:
            errors.append(f"input {i}: output changed between repeats")
        if errors:
            ph.failed += 1
            ph.errors += errors
            ph.ok[-1] = False
    return ph


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile in ms, interpolated within the observed range.

    A percentile with fewer than ten samples beyond it says little, so it
    falls back to the next lower of 90 and 50 that has them (or to 50).
    """
    ms = [x * 1000.0 for x in latencies]
    while q > 50 and len(ms) * (100 - q) < 1000:
        q = 90 if q > 90 else 50
    if len(ms) == 1:
        return ms[0]
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def end_to_end(wl, seconds: float, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        t0 = time.perf_counter()
        inputs = wl.setup()
        setups.append(time.perf_counter() - t0)
    ph = run_phase(wl, inputs, seconds)
    wl.collect()
    best, completed = ph.best()
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(best), "ops/s"),
        "op_ms_p50": (percentile_ms(best, 50), "ms"),
        "op_ms_p90": (percentile_ms(best, 90), "ms"),
        "op_ms_p99": (percentile_ms(best, 99), "ms"),
        "op_rss_mb_p50": (statistics.median(ph.rss_mb), "MB"),
        "ok_frac": (ph.completed / ph.attempted, "share"),
    }
    return inputs, [ph], metrics


def per_layer(wl, seconds: float):
    """Traced pass for half the time, then the same operations untraced."""
    from spans import COUNT_NAMES, OP_SPANS, SETUP_SPANS, Tracer
    from workloads import DeadlineExceeded

    with Tracer(SETUP_SPANS) as setup_tracer:
        inputs = wl.setup()
    with Tracer(OP_SPANS, interrupt=DeadlineExceeded) as tracer:
        traced = run_phase(wl, inputs, seconds / 2, tracer=tracer)
        wl.collect()
    plain = run_phase(wl, inputs, 0, order=traced.order)
    metrics = {**setup_tracer.span_metrics(), **tracer.span_metrics()}
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name], "count")
    metrics["greedy.rss_growth_mb"] = (tracer.rss_growth_mb, "MB")
    metrics["trace.overhead_frac"] = (sum(traced.latencies) / sum(plain.latencies) - 1, "share")
    metrics["trace.coverage_frac"] = (traced.covered_s / sum(traced.latencies), "share")
    return inputs, [traced, plain], metrics


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(name: str):
    try:
        return json.loads(DIGESTS.read_text()).get(name)
    except FileNotFoundError:
        return None


def record_reference(wl) -> None:
    """Write the output digests of every input at the default seed."""
    inputs = wl.setup()
    ph = run_phase(wl, inputs, 0, order=list(range(len(inputs))))
    wl.collect()
    if ph.errors:
        raise SystemExit("error: outputs failed their checks; nothing recorded\n" + "\n".join(ph.errors[:20]))
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    refs[wl.name] = wl.reference(ph.digests)
    DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treewave benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="write the reference output digests (default seed only) and exit",
    )
    args = parser.parse_args(argv)

    tw, import_s = import_treewave()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if wl.deadline_s is not None:
        signal.signal(signal.SIGALRM, on_alarm)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            parser.error(f"digests are recorded at the default seed {DEFAULT_SEED}")
        record_reference(wl)
        return 0

    measure = per_layer if args.trace else lambda w, s: end_to_end(w, s, import_s)
    inputs, phases, metrics = measure(wl, args.seconds)
    errors = [e for ph in phases for e in ph.errors]
    late = wl.finish(inputs)
    reference = load_reference(wl.name) if args.seed == DEFAULT_SEED else None
    if reference is not None:
        late += wl.compare(reference, phases[0].digests)
    errors += late
    for e in errors[:50]:
        print("CHECK FAILED: " + e, file=sys.stderr)

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "kernel_backend": tw.kernel_backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": [ph.attempted for ph in phases],
        "peak_rss_mb": maxrss_mb(),
        "deadline_misses": [ph.missed for ph in phases],
        "distinct_inputs": len(set(phases[0].order)),
        "reference_compared": reference is not None,
    }
    print(json.dumps({"run": info}))
    correct = not errors
    result = {
        "correct": correct,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases) + len(late),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
