"""Uniformly sampled time series and their CSV form."""

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


def phase_matrix(omega: np.ndarray, times) -> np.ndarray:
    """exp(-1j * outer(omega, times)), shape (len(omega), len(times)).

    On an arithmetic grid (``TimeSeries.times``, ``np.linspace``) sample
    j = a B + b with B = ceil(sqrt(n)) is the product of a coarse factor
    exp(-i omega t_{aB}) and a fine factor exp(-i omega (t_b - t_0)), so
    only about 2 sqrt(n) columns take an exponential and the rest one
    complex multiply each.  The grid qualifies when t_{aB} + (t_b - t_0)
    reproduces every t_j to 16 eps max|t|; the phases then carry
    ~eps |omega t| error, the order of the rounding of omega * t in the
    direct form.  Any other array takes the direct form.
    """
    omega = np.asarray(omega, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = times.shape[0]
    if n > 2:
        block = math.isqrt(n - 1) + 1
        starts = times[::block]
        steps = times[:block] - times[0]
        fitted = (starts[:, None] + steps[None, :]).ravel()[:n]
        if np.abs(fitted - times).max() <= 16.0 * np.finfo(float).eps * np.abs(times).max():
            coarse = np.exp(-1j * np.outer(omega, starts))
            fine = np.exp(-1j * np.outer(omega, steps))
            out = np.empty((omega.shape[0], n), dtype=complex)
            for a, lo in enumerate(range(0, n, block)):
                hi = min(lo + block, n)
                np.multiply(coarse[:, a : a + 1], fine[:, : hi - lo], out=out[:, lo:hi])
            return out
    return np.exp(-1j * np.outer(omega, times))


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
