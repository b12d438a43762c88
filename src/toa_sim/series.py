"""Time series: uniform grids, their CSV form, and band-limited sampling.

Band-limited sampling (``chebyshev_samples``) keeps the last map it
built, for the same times and node count, and ``phase_basis`` forms the
phases exp(-i omega t) whose quadratic forms it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import GridMismatch

GRID_RTOL = 1e-9


@dataclass
class TimeSeries:
    """Real- or complex-valued function of time on a uniform grid."""

    t0: float
    dt: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError("dt must be > 0")
        self.values = np.asarray(self.values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.shape[0])

    def integral(self) -> float | complex:
        """Trapezoidal integral over the sampled window."""
        return np.trapezoid(self.values, dx=self.dt)

    def same_grid(self, other: "TimeSeries") -> bool:
        return (
            len(self) == len(other)
            and abs(self.dt - other.dt) <= GRID_RTOL * self.dt
            and abs(self.t0 - other.t0) <= GRID_RTOL * max(abs(self.t0), self.dt)
        )

    def require_same_grid(self, other: "TimeSeries") -> None:
        if not self.same_grid(other):
            raise GridMismatch(
                f"grids differ: (t0={self.t0}, dt={self.dt}, n={len(self)}) vs "
                f"(t0={other.t0}, dt={other.dt}, n={len(other)})"
            )


def _node_count(c: float) -> int:
    """Chebyshev node count that resolves every exp(i w s), |w| <= c, on [-1, 1].

    exp(i c s) = sum_m i^m (2 - delta_m0) J_m(c) T_m(s), and interpolating
    at m + 1 points leaves an error of at most twice the dropped
    coefficients, 4 sum_{j>m} |J_j(c)|.  Past j = c, Watson's bound
    |J_j(c)| <= exp(-j (a - tanh a)) / sqrt(2 pi j tanh a), cosh a = j / c,
    falls by a factor exp(-a) per order, so the tail is geometric; m is the
    first order where it drops below double rounding (2**-53).  That is
    c + O(c**(1/3)) points: 143 at c = 90, 187 at c = 128.
    """
    m = math.floor(c) + 1
    while c > 0.0:
        a = math.acosh(m / c)
        t = math.tanh(a)
        tail = math.exp(-m * (a - t)) / (math.sqrt(2.0 * math.pi * m * t) * -math.expm1(-a))
        if 4.0 * tail <= 2.0 ** -53:
            break
        m += 1
    return m + 1


# The last map ``chebyshev_samples`` built: (times, node count, nodes,
# resample).  A measurement and its free-atom references sample the same
# times at the same count, so they share it; the next call for other times
# or another count drops it.
_LAST_MAP = None


def chebyshev_samples(times, bandwidth: float):
    """Sample times for a function band-limited to ``bandwidth``, and its resampler.

    A function whose angular frequencies lie in [-bandwidth, bandwidth] (a
    quadratic form in phases exp(-i omega t): its frequencies are
    differences of the omegas, ``bandwidth`` is their span) is fixed on
    [min t, max t] to double rounding by its values at the
    second-kind Chebyshev points of ``_node_count``, endpoints included,
    so the first and last time are sampled exactly.  Returns those nodes
    and ``resample``, which maps values at the nodes (last axis) to values
    at ``times`` by the barycentric formula (Berrut & Trefethen, SIAM Rev.
    46, 501 (2004)); one (len(times), nodes) map serves every row passed.
    When the count reaches len(times) the nodes are the times themselves
    and ``resample`` returns its argument.

    The map depends on the times and the node count alone, so the last one
    built is kept and returned again for equal times and count: the
    first-photon density and the free-atom references of one packet share
    it.  Its nodes are read-only.
    """
    global _LAST_MAP
    times = np.atleast_1d(np.asarray(times, dtype=float))
    lo, hi = (float(times.min()), float(times.max())) if times.size else (0.0, 0.0)
    r = _node_count(0.5 * bandwidth * (hi - lo))
    if r >= times.size or not hi > lo:
        return times, lambda values: values
    last = _LAST_MAP
    if last is not None and last[1] == r and np.array_equal(last[0], times):
        return last[2:]
    _LAST_MAP = last = None   # dropped before the next one is built
    x = np.sin(0.5 * math.pi * np.arange(r - 1, -r, -2) / (r - 1))  # 1 ... -1, symmetric
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    nodes[0], nodes[-1] = hi, lo
    nodes.flags.writeable = False
    weights = np.where(np.arange(r) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    # the differences, exactly +-1 at the ends, then the weights over them in their buffer
    basis = (((times - lo) - (hi - times)) / (hi - lo))[:, None] - x
    hit = basis == 0.0
    with np.errstate(divide="ignore"):
        np.divide(weights, basis, out=basis)
    rows = hit.any(axis=1)
    basis[rows] = hit[rows]
    basis /= basis.sum(axis=1, keepdims=True)
    _LAST_MAP = last = (times.copy(), r, nodes, lambda values: values @ basis.T)
    return last[2:]


def phase_basis(omega, times) -> np.ndarray:
    """exp(-i omega_k t_j), (len(omega), len(times)), from real cosines and sines.

    The phase theta = omega t is formed once and the basis is cos theta - i
    sin theta: the values complex exp gives for -i theta (whose real part is
    exp(0) = 1), without a complex exponential.
    """
    theta = np.outer(omega, times)
    basis = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=basis.real)
    np.negative(np.sin(theta, out=theta), out=basis.imag)
    return basis


def l1_distance(a: TimeSeries, b: TimeSeries) -> float:
    """Trapezoidal L1 distance between two series on the same grid."""
    a.require_same_grid(b)
    return float(np.trapezoid(np.abs(a.values - b.values), dx=a.dt))


def write_csv(series: TimeSeries, stream: IO[str], comments: Iterable[str] = ()) -> None:
    """t_s,value rows with '#'-prefixed metadata comments and a header row."""
    for line in comments:
        stream.write(f"# {line}\n")
    for key in sorted(series.meta):
        stream.write(f"# {key} = {series.meta[key]}\n")
    stream.write("t_s,value\n")
    t = series.times
    for i in range(len(series)):
        stream.write(f"{t[i]:.17g},{series.values[i]:.17g}\n")


def read_csv(stream: IO[str]) -> TimeSeries:
    """Inverse of write_csv; metadata comments become simple string meta."""
    meta: dict = {}
    rows: list[tuple[float, float]] = []
    header_seen = False
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                meta[key] = value
            continue
        if not header_seen:
            if line.lower().replace(" ", "") != "t_s,value":
                raise ValueError(f"expected 't_s,value' header, got {line!r}")
            header_seen = True
            continue
        t_str, v_str = line.split(",", 1)
        rows.append((float(t_str), float(v_str)))
    if len(rows) < 2:
        raise ValueError("need at least two samples")
    t = np.array([r[0] for r in rows])
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-6):
        raise ValueError("time grid is not uniform")
    return TimeSeries(t0=t[0], dt=float(dts[0]), values=np.array([r[1] for r in rows]), meta=meta)
