"""Host-speed reference: scales measured wall times to a fixed host speed.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give one process changes by up to 2x within seconds
and drifts over minutes (process CPU time tracks wall time, so the guest
sees no steal).  Raw medians of runs a few minutes apart therefore differ
by more than any useful regression bound.

A fixed reference pass runs before each timed interval and after it,
outside the timed window; its code never changes with the program.  Each
interval is scaled by ``REF_NOMINAL_S[kind] / local reference time``:
the result is the interval's length on a host where one pass takes
``REF_NOMINAL_S[kind]``.  A change to the program moves the scaled figure
exactly as it moves wall time; a change in host speed moves the
reference too and cancels.

Host slowdowns do not hit every kind of work alike, so each workload
uses the kind of pass that resembles its work:

* ``interpreter``: numpy calls on small complex arrays and float
  formatting, bound by per-call overhead like the transfer-matrix loop
  and the CLI's CSV writing;
* ``array``: complex exp and division over 641 x 641 arrays, like the
  overlap matrices.  Large-array work slowed by 1.3x where the
  interpreter pass slowed by 2.4x, so that pass could not scale it.

Intervals must also be short: across a 2-s interval the host changed
speed too often for passes outside it to follow.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

# Seconds one pass of each kind is scaled to.  Any fixed value works; an
# interpreter pass took 8 to 25 ms and an array pass 45 to 60 ms on the
# 2-core VM the benchmark was written on, so scaled times are of the
# order of wall times there.
REF_NOMINAL_S = {"interpreter": 0.01, "array": 0.05}
# The local reference time of an interval is the median of this many
# passes: half measured before it, half after.
REF_WINDOW = 4

_rng = np.random.default_rng(20030219)
_MATS = _rng.standard_normal((256, 2, 2)) + 1j * _rng.standard_normal((256, 2, 2))
_X = _rng.standard_normal(512)
_XS = _X.tolist() * 4
_GRID = _rng.standard_normal((641, 641))


def reference_seconds(kind: str) -> float:
    """Wall time of one reference pass of the given kind."""
    start = time.perf_counter()
    if kind == "array":
        for _ in range(2):
            (np.exp(1j * _GRID) / (_GRID + (3.0 + 1.0j))).sum()
        return time.perf_counter() - start
    acc = np.broadcast_to(np.eye(2, dtype=complex), _MATS.shape).copy()
    for _ in range(60):
        acc = acc @ _MATS
        acc /= np.abs(acc).max()
        np.exp(1j * _X) * np.sqrt(_X + 5.0)
    ",".join(f"{x:.17g}" for x in _XS)
    return time.perf_counter() - start


def scaled(seconds: list[float], refs: list[float], kind: str) -> list[float]:
    """Scale interval ``i`` by the reference passes around it.

    ``refs[i]`` is the pass just before interval ``i`` and ``refs[i + 1]``
    the pass just after it, so ``len(refs) == len(seconds) + 1``.
    """
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference pass before each interval and one after the last")
    half = REF_WINDOW // 2
    out = []
    for i, s in enumerate(seconds):
        local = statistics.median(refs[max(0, i + 1 - half): i + 1 + half])
        out.append(s * REF_NOMINAL_S[kind] / local)
    return out


@contextlib.contextmanager
def one_core():
    """Keep this thread, and the processes it starts, on one core meanwhile.

    Reference passes then time the core that a child process runs on.
    Threads that already exist (the BLAS pool) keep their own affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
