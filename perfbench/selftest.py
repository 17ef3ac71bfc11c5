"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py

- Traced runs repeat: two traced passes over the same small inputs give
  identical span call counts and layer counts (deadline timeouts excepted,
  they depend on timing) and identical output digests.
- The checker rejects a deliberately corrupted coloring, a broken round
  bound and a ratio above 5/2.
- An operation past its deadline is counted as a miss, not a crash.
- The sweep CSV joined from per-item `bench_run` calls equals the CSV of one
  `bench_run` over all items, at the default seed, and matches the stored
  reference digest.
"""

from __future__ import annotations

import json
import signal
import sys
from types import SimpleNamespace

import run


def traced_pass(wl):
    from spans import COUNT_NAMES, OP_SPANS, Tracer
    from workloads import DeadlineExceeded

    inputs = wl.setup()
    with Tracer(OP_SPANS, interrupt=DeadlineExceeded) as tracer:
        ph = run.run_phase(wl, inputs, 0, order=list(range(len(inputs))), tracer=tracer)
        wl.collect()
    errors = ph.errors + wl.finish(inputs)
    counts = {f"{n}.calls": tracer.calls[n] for n in tracer.names}
    counts.update({n: tracer.counts[n] for n in COUNT_NAMES if not n.endswith(".timeouts")})
    coverage = ph.covered_s / sum(ph.latencies)
    return counts, ph.digests, errors, coverage


def check_repeatable(failures: list[str]) -> None:
    from workloads import ColorLarge, Oracle, Sweep

    small = {
        "color-large": lambda: ColorLarge(3, vertices=60, subtrees=120, pool=3),
        "sweep": lambda: Sweep(3, instances=200),
        "oracle": lambda: Oracle(3, instances=200, subtrees=(6, 10), deadline_s=None),
    }
    for name, make in small.items():
        first, digests1, errors1, coverage = traced_pass(make())
        second, digests2, errors2, _ = traced_pass(make())
        failures += [f"{name}: {e}" for e in errors1 + errors2]
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            failures.append(f"{name}: traced counts differ between runs: {diff}")
        if digests1 != digests2:
            failures.append(f"{name}: outputs differ between runs")
        print(f"{name}: {len(first)} counts repeat, coverage {coverage:.3f}")


def check_rejections(failures: list[str]) -> None:
    import checks
    from workloads import ColorLarge

    wl = ColorLarge(5, vertices=40, subtrees=80, pool=1)
    (text,) = wl.setup()
    doc_text, verified, result = wl.op(text)
    _, errors = wl.check(0, text, (doc_text, verified, result))
    if errors:
        failures.append(f"checker rejected a valid coloring: {errors[:3]}")
    src = json.loads(text)
    members, _, _ = checks.arc_table(
        src["tree"]["edges"], [s["arcs"] for s in src["subtrees"]], pad=True
    )
    a, b = next(on_arc[:2] for on_arc in members.values() if len(on_arc) >= 2)
    doc = json.loads(doc_text)
    doc["colors"][b] = doc["colors"][a]
    doc["original_colors"] = doc["colors"][: len(src["subtrees"])]
    doc["num_colors"] = len(set(doc["colors"]))
    doc["original_num_colors"] = len(set(doc["original_colors"]))
    corrupted = json.dumps(doc, separators=(",", ":")) + "\n"
    _, errors = wl.check(0, text, (corrupted, verified, result))
    if not any("share color" in e for e in errors):
        failures.append("checker accepted a coloring with two subtrees sharing a color on an arc")
    fake_trace = [SimpleNamespace(round=1, kind=1, colors_used_after=5)]
    if not checks.round_bound_errors(fake_trace, 2):
        failures.append("checker accepted a round above max(2*load, previous)")
    if not checks.ratio_errors(11, 4) or not checks.ratio_errors(3, 4):
        failures.append("checker accepted a color count outside [LB, 2.5 LB]")
    print("checker rejects corrupted outputs")


def check_deadline(failures: list[str]) -> None:
    from workloads import Oracle

    wl = Oracle(7, instances=5, deadline_s=1e-6)
    ph = run.run_phase(wl, wl.setup(), 0)
    if ph.missed != 5 or ph.failed:
        failures.append(f"deadline: {ph.missed} misses and {ph.failed} failures of 5 ops")
    print("deadline misses are counted")


def check_sweep_csv(failures: list[str]) -> None:
    import treewave as tw
    from treewave import formats
    from workloads import DEFAULT_SEED, Sweep, sha256

    wl = Sweep(DEFAULT_SEED)
    items = wl.setup()
    joined = formats.records_to_csv([tw.bench_run([item]).records[0] for item in items])
    whole = formats.records_to_csv(tw.bench_run(items).records)
    if joined != whole:
        failures.append("sweep CSV joined per item differs from one bench_run over all items")
    reference = run.load_reference(wl.name)
    if reference is None or sha256(whole) != reference["sha256"]:
        failures.append("sweep CSV at the default seed differs from the stored digest")
    print(f"sweep CSV per item == CSV of one bench_run ({len(items)} items)")


def main() -> int:
    run.import_treewave()
    signal.signal(signal.SIGALRM, run.on_alarm)
    failures: list[str] = []
    check_repeatable(failures)
    check_rejections(failures)
    check_deadline(failures)
    check_sweep_csv(failures)
    for f in failures:
        print("SELF-TEST FAILED: " + f, file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
