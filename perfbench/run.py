#!/usr/bin/env python3
"""toa-sim benchmark: one workload, one seed, closed loop for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``toa_sim`` from its
``src/`` directory.  Operations run back to back in this one process
(closed loop, one client, ``--jobs 1``) until their summed wall time
reaches ``--seconds``; output checks run between operations, outside
that window.  Set-up and operation times are scaled to a fixed host
speed by reference passes timed around each one (see ``hostspeed.py``).  The last stdout line is the result object; the
line before it is a detail record (environment, per-operation raw and
scaled times, hashes and errors, tail percentile, warnings, layer
shares).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice with identical inputs, once plain and once traced (the
order alternates), and reports per-layer metrics as means per traced
operation, plus the traced-minus-plain overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# fail_ratio never reads 0, so a relative bound applies to it; one failed
# operation in any run of this benchmark lands far above the floor.
FAIL_RATIO_FLOOR = 1e-3
NOTES = ("closed loop, one client, single-threaded process with no queues: there is no "
         f"wait metric; fail_ratio is max(failed / attempted, {FAIL_RATIO_FLOOR})")
SETUP_PROBE = "import toa_sim; toa_sim.cesium_config(omega=5 * 33.3e6)"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics: (name, unit, source) where source is ("busy"|"self"|
# "calls", span name), ("counter", span counter), ("layer", layer),
# ("count", output count) or a special key.
PER_LAYER = [
    ("kernels.sharp_edge_solve.busy_s", "s", ("busy", "kernels.sharp_edge_solve")),
    ("kernels.sharp_edge_solve.calls", "count", ("calls", "kernels.sharp_edge_solve")),
    ("kernels.sharp_edge_solve.k_points", "count", ("counter", "kernels.sharp_edge_solve.k_points")),
    ("kernels.transfer_solve.busy_s", "s", ("busy", "kernels.transfer_solve")),
    ("kernels.transfer_solve.calls", "count", ("calls", "kernels.transfer_solve")),
    ("kernels.transfer_solve.slice_k", "count", ("counter", "kernels.transfer_solve.slice_k")),
    ("kernels.slice_propagator.calls", "count", ("calls", "kernels.slice_propagator")),
    ("kernels.oracle_amp_bad", "count", ("count", "kernels.oracle_amp_bad")),
    ("scattering.sharp_edge_rows.self_s", "s", ("self", "scattering.sharp_edge_rows")),
    ("transfer.transfer_rows.self_s", "s", ("self", "transfer.transfer_rows")),
    ("transfer.discretize.busy_s", "s", ("busy", "transfer.discretize")),
    ("wavepacket.default_kgrid.busy_s", "s", ("busy", "wavepacket.default_kgrid")),
    ("wavepacket.default_kgrid.calls", "count", ("calls", "wavepacket.default_kgrid")),
    ("wavepacket.propagator_init.self_s", "s", ("self", "wavepacket.propagator_init")),
    ("wavepacket.detection_matrix.busy_s", "s", ("busy", "wavepacket.detection_matrix")),
    ("wavepacket.norm_matrix.busy_s", "s", ("busy", "wavepacket.norm_matrix")),
    ("wavepacket.overlap.mode_pairs", "count", ("overlap", "mode_pairs")),
    ("wavepacket.overlap.elements", "count", ("overlap", "elements")),
    ("wavepacket.quadratic.self_s", "s", ("self", "wavepacket.quadratic")),
    ("wavepacket.quadratic.macs", "count", ("counter", "wavepacket.quadratic.macs")),
    ("distributions.deconvolve.busy_s", "s", ("busy", "distributions.deconvolve")),
    ("distributions.deconvolve.fft_len", "count", ("counter", "distributions.deconvolve.fft_len")),
    ("distributions.free_flux.busy_s", "s", ("busy", "distributions.free_flux")),
    ("distributions.kijowski_density.busy_s", "s", ("busy", "distributions.kijowski_density")),
    ("distributions.normalize.busy_s", "s", ("busy", "distributions.normalize")),
    ("cli.self_s", "s", ("layer", "cli")),
    ("cli.bytes_out", "B", ("count", "cli.bytes_out")),
    ("cli.ok_ratio", "ratio", ("ok_ratio", None)),
    ("kernels.self_s", "s", ("layer", "kernels")),
    ("scattering.self_s", "s", ("layer", "scattering")),
    ("transfer.self_s", "s", ("layer", "transfer")),
    ("wavepacket.self_s", "s", ("layer", "wavepacket")),
    ("distributions.self_s", "s", ("layer", "distributions")),
    ("regimes.self_s", "s", ("layer", "regimes")),
    ("bench.self_s", "s", ("outside_spans", None)),
    ("cli.warnings.ConvergenceWarning", "count", ("warnings", "cli.ConvergenceWarning")),
    ("distributions.warnings.UnderResolvedWarning", "count",
     ("warnings", "distributions.UnderResolvedWarning")),
    ("warnings.total", "count", ("warnings", None)),
    ("trace.spans", "count", ("spans", None)),
    ("trace.overhead_s", "s", ("overhead", None)),
]

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "fail_ratio": "ratio", "max_err": "abs"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; call before numpy loads."""
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for name in BLAS_ENV:
        os.environ[name] = str(cap)
    return cap


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of fresh interpreters that import toa_sim and build a config.

    The children and the reference passes around them share one core.
    """
    from hostspeed import one_core, reference_seconds, scaled

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    with one_core():
        refs = [reference_seconds("interpreter")]
        for _ in range(repeats):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                                     stdout=subprocess.DEVNULL)
            # A blocking wait returns when the child exits; wait(timeout=...)
            # polls with sleeps of up to 50 ms, which would quantise the time.
            watchdog = threading.Timer(60.0, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
            times.append(time.perf_counter() - start)
            if code != 0:
                raise subprocess.CalledProcessError(code, child.args)
            refs.append(reference_seconds("interpreter"))
    return scaled(times, refs, "interpreter"), times


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_cap: int) -> dict:
    import platform

    import numpy as np

    import toa_sim.kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_cap,
        "git_sha": _git_sha(),
        "kernel_backend": toa_sim.kernels.active.BACKEND_NAME,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    The highest percentile with at least ten samples beyond it, once that
    percentile reaches the median (20 samples or more); below that the
    maximum, with no sample beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class _WarningLog:
    """Per-operation warning capture, keyed by the layer that was running."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.counts: dict[str, int] = {}

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        layer = (self.tracer.current_layer() if self.tracer else None) or "op"
        key = f"{layer}.{category.__name__}"
        self.counts[key] = self.counts.get(key, 0) + 1


def _timed(op, tracer=None, op_id=0):
    """Run one operation; returns (seconds, result or exception, warning counts)."""
    log = _WarningLog(tracer)
    scope = tracer.installed(op_id) if tracer else contextlib.nullcontext()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = log
        with scope:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation failure is a benchmark outcome
                result = exc
            elapsed = time.perf_counter() - start
    return elapsed, result, log.counts


def run_workload(ops, seconds: float, trace: bool, reference: str) -> dict:
    """Closed loop over ``ops`` until the timed operations sum to ``seconds``.

    Untraced runs time a host-speed reference pass of kind ``reference``
    before the first operation and after each one, and give every record
    ``scaled_s``, its wall time scaled by those passes.
    """
    from hostspeed import reference_seconds, scaled
    from tracing import Tracer

    tracer = Tracer() if trace else None
    records = []
    refs = None if trace else [reference_seconds(reference)]
    busy = 0.0
    pairs = []  # (traced s, plain s) per operation in trace mode
    while busy < seconds:
        op = next(ops)
        op_id = len(records)
        if tracer is None:
            elapsed, result, warned = _timed(op)
            refs.append(reference_seconds(reference))
            busy += elapsed
        else:
            if op_id % 2 == 0:
                plain, _, _ = _timed(op)
                elapsed, result, warned = _timed(op, tracer, op_id)
            else:
                elapsed, result, warned = _timed(op, tracer, op_id)
                plain, _, _ = _timed(op)
            pairs.append((elapsed, plain))
            busy += elapsed + plain
        record = {"op": op_id, "shape": op.shape, "params": op.params, "seconds": elapsed,
                  "warnings": warned, "ok": False}
        if isinstance(result, Exception):
            record["error"] = f"{type(result).__name__}: {result}"
        else:
            try:
                chk = op.check(result)
            except Exception as exc:  # a check that raises fails the operation
                record["error"] = f"check raised {type(exc).__name__}: {exc}"
            else:
                record.update(ok=chk.ok, err=chk.err, items=chk.items, sha256=chk.sha256,
                              counts=chk.counts)
                if chk.problems:
                    record["error"] = "; ".join(chk.problems[:5])
        records.append(record)
        result = None  # free the output first, so peak RSS is one operation's
    if refs is not None:
        values = scaled([r["seconds"] for r in records], refs, reference)
        for record, ref, value in zip(records, refs, values):
            record.update(scaled_s=value, ref_before_s=ref)
    return {"records": records, "tracer": tracer, "pairs": pairs}


def end_to_end(records, setup) -> tuple[dict, dict]:
    """End-to-end metrics; ``setup`` is the (scaled, raw) pair of measure_setup."""
    import resource

    from hostspeed import REF_NOMINAL_S

    setup_times, setup_raw = setup
    ok = [r for r in records if r["ok"]] or records
    durations = [r["scaled_s"] for r in ok]
    tail_value, tail_pct, beyond = tail(durations)
    items = sum(r.get("items", 0) for r in ok)
    failed = sum(1 for r in records if not r["ok"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "items_per_s": items / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": max(failed / len(records), FAIL_RATIO_FLOOR),
        "max_err": max((r.get("err", 0.0) for r in ok), default=0.0),
    }
    raw = [r["seconds"] for r in ok]
    detail = {"tail_percentile": tail_pct, "tail_samples_beyond": beyond,
              "samples": len(durations), "setup_times_s": setup_times,
              "setup_raw_s": setup_raw, "ref_nominal_s": REF_NOMINAL_S,
              "raw_op_p50_s": statistics.median(raw),
              "raw_items_per_s": items / sum(raw)}
    return metrics, detail


def per_layer(run) -> tuple[dict, dict]:
    from tracing import summarize

    records, tracer, pairs = run["records"], run["tracer"], run["pairs"]
    summary = summarize(tracer.spans)
    n = max(len(records), 1)
    counts: dict[str, float] = {}
    warned: dict[str, int] = {}
    for r in records:
        for key, value in r.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, value in r["warnings"].items():
            warned[key] = warned.get(key, 0) + value
    overlap = {"mode_pairs": 0.0, "elements": 0.0}
    for name in ("wavepacket.detection_matrix", "wavepacket.norm_matrix"):
        for key in overlap:
            overlap[key] += summary["counters"].get(f"{name}.{key}", 0.0)
    traced_total = sum(t for t, _ in pairs)
    values = {}
    for name, _unit, (kind, key) in PER_LAYER:
        if kind in ("busy", "self", "calls"):
            value = summary[kind].get(key, 0) / n
        elif kind == "counter":
            value = summary["counters"].get(key, 0.0) / n
        elif kind == "layer":
            value = summary["layer_self"].get(key, 0.0) / n
        elif kind == "count":
            value = counts.get(key, 0) / n
        elif kind == "overlap":
            value = overlap[key] / n
        elif kind == "ok_ratio":
            value = counts.get("cli.ok_points", 0) / max(counts.get("cli.points", 0), 1)
        elif kind == "outside_spans":
            value = (traced_total - summary["root_time"]) / n
        elif kind == "warnings":
            value = (sum(warned.values()) if key is None else warned.get(key, 0)) / n
        elif kind == "spans":
            value = len(tracer.spans) / n
        else:  # overhead
            value = sum(t - p for t, p in pairs) / n
        values[name] = value
    shares = {layer: t / traced_total for layer, t in sorted(
        summary["layer_self"].items(), key=lambda kv: -kv[1])} if traced_total else {}
    detail = {"layer_self_share": shares, "min_span_self_s": summary["min_self"],
              "warnings": warned, "traced_ops": len(records)}
    return values, detail


def bootstrap() -> int | None:
    """Cap BLAS threads and import toa_sim from this checkout's src/.

    Returns the thread cap, or None (with a message) when the checkout
    has no toa_sim sources.
    """
    if not (SRC / "toa_sim" / "__init__.py").is_file():
        print(f"benchmark: no toa_sim sources under {SRC}", file=sys.stderr)
        return None
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import toa_sim

    if Path(toa_sim.__file__).resolve().parent != (SRC / "toa_sim").resolve():
        print(f"benchmark: imported toa_sim from {toa_sim.__file__}", file=sys.stderr)
        return None
    return blas_cap


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    blas_cap = bootstrap()
    if blas_cap is None:
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be > 0", file=sys.stderr)
        return 2

    setup_times = None if args.trace else measure_setup()
    env = environment(blas_cap)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        ops = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        run = run_workload(ops, args.seconds, bool(args.trace),
                           workloads.REFERENCE[args.workload])
    records = run["records"]
    failed = sum(1 for r in records if not r["ok"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "reference": workloads.REFERENCE[args.workload],
              "environment": env, "notes": NOTES}
    if args.trace:
        values, extra = per_layer(run)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, extra = end_to_end(records, setup_times)
        units = END_TO_END_UNITS
    detail.update(extra)
    detail["operations"] = [
        {key: r[key] for key in ("op", "shape", "params", "seconds", "scaled_s", "ref_before_s",
                                 "ok", "err", "sha256", "warnings", "error") if key in r}
        for r in records
    ]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
