#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny problem sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names what the harness emits, that every
named metric is emitted with its unit on every workload, that traced
spans nest with non-negative self time, and that injected failing
operations (one that raises, one whose check fails) raise
``fail_ratio``.  Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import math
import sys
import tempfile

import run


def _metrics_complete(values: dict, units: dict, label: str) -> None:
    for name in units:
        if name not in values or not math.isfinite(values[name]):
            raise AssertionError(f"{label}: metric {name} missing or not finite")


def _benchmark_json_matches() -> None:
    """BENCHMARK.json names exactly the workloads and metrics this harness emits."""
    import json

    import workloads

    path = run.ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text())
    expect = {
        "workloads": set(workloads.WORKLOADS),
        "end_to_end": set(run.END_TO_END_UNITS.items()),
        "per_layer": {(n, u) for n, u, _ in run.PER_LAYER},
    }
    found = {
        "workloads": {w["name"] for w in doc["workloads"]},
        "end_to_end": {(m["name"], m["unit"]) for m in doc["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in doc["per_layer"]},
    }
    for key, names in expect.items():
        if found[key] != names:
            raise AssertionError(f"BENCHMARK.json {key} differ: {found[key] ^ names}")


def _spans_nest(spans, label: str) -> None:
    from tracing import summarize

    for name, start, end, parent, _op, _counts in spans:
        if end < start:
            raise AssertionError(f"{label}: span {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]):
                raise AssertionError(f"{label}: span {name} escapes its parent {p[0]}")
    if summarize(spans)["min_self"] < 0.0:
        raise AssertionError(f"{label}: negative self time")


def _with_failures(ops):
    """Interleave a raising operation and a failing check into ``ops``."""
    import workloads

    def boom():
        raise RuntimeError("injected failure")

    def bad_check(_result):
        return workloads.Check(err=0.0, items=0, sha256="", problems=["injected bad output"])

    yield workloads.Operation("injected-raise", {}, boom, bad_check)
    first = next(ops)
    yield workloads.Operation("injected-check", {}, first.call, bad_check)
    yield from ops


def main() -> int:
    if run.bootstrap() is None:
        return 2
    import workloads

    _benchmark_json_matches()
    setup = run.measure_setup(repeats=1)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmpdir:
        for name, make in workloads.WORKLOADS.items():
            reference = workloads.REFERENCE[name]
            plain = run.run_workload(make(1, tmpdir, workloads.TINY), 0.2, False, reference)
            metrics, _ = run.end_to_end(plain["records"], setup)
            _metrics_complete(metrics, run.END_TO_END_UNITS, name)
            if not all(r["ok"] for r in plain["records"]):
                raise AssertionError(f"{name}: tiny run failed: {plain['records']}")

            traced = run.run_workload(make(1, tmpdir, workloads.TINY), 0.2, True, reference)
            layers, _ = run.per_layer(traced)
            _metrics_complete(layers, {n: u for n, u, _ in run.PER_LAYER}, name)
            _spans_nest(traced["tracer"].spans, name)
            if not traced["tracer"].spans:
                raise AssertionError(f"{name}: traced run recorded no spans")

            injected = run.run_workload(_with_failures(make(1, tmpdir, workloads.TINY)),
                                        0.2, False, reference)
            failed, _ = run.end_to_end(injected["records"], setup)
            n_bad = sum(1 for r in injected["records"] if not r["ok"])
            if n_bad != 2 or not failed["fail_ratio"] > metrics["fail_ratio"]:
                raise AssertionError(f"{name}: injected failures not counted ({n_bad})")
            print(f"selftest {name}: ok ({len(plain['records'])} ops, "
                  f"{len(traced['tracer'].spans)} spans)")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
