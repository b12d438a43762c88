"""Ideal arrival-time distributions and the delay (de)convolution machinery.

The observed first-photon signal is the ideal arrival distribution blurred
by the exponential emission delay of the excited state.  This module
provides the free-atom references (quantum flux J and the non-negative
axiomatic density), the delay kernel, and convolution/deconvolution
between the observed and ideal pictures.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, UnderResolvedWarning, ZeroIntegral
from .series import TimeSeries, chebyshev_samples, phase_basis

KINDS = ("flux", "kijowski", "observed", "ideal", "kernel")


@dataclass
class DistributionSeries(TimeSeries):
    """TimeSeries tagged with its distribution kind and raw normalization."""

    kind: str = "observed"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    def tagged(self, values: np.ndarray, kind: str, **meta) -> "DistributionSeries":
        merged = dict(self.meta)
        merged.update(meta)
        return DistributionSeries(t0=self.t0, dt=self.dt, values=np.asarray(values),
                                  meta=merged, kind=kind)


# The free-atom basis of the last packet asked for: J and the axiomatic
# density of one packet read the same one, and it lives no longer than the
# packet does (keyed weakly), so it holds no memory between packets.
_FREE_BASIS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _free_waves(spec, x: float, times: TimeSeries):
    """Free packet at x as (k, per-mode waves at the sample nodes, resample).

    Column j of the (nk, nodes) waves is w_k psi(k) exp(i k x - i omega_k
    t_j) on the default k-grid.  J and the axiomatic density are bilinear in
    these waves, so their bandwidth is the span of the omegas and they are
    sampled at ``series.chebyshev_samples`` nodes, whose map a first-photon
    density on the same times has usually built already (their node counts
    agree).  The phases are ``series.phase_basis``'s.  They are built once
    per packet, position and time grid, as read-only arrays.
    """
    key = (x, times.t0, times.dt, len(times))
    cached = _FREE_BASIS.get(spec)
    if cached is not None and cached[0] == key:
        return cached[1]
    from .wavepacket import default_kgrid, grid_amplitude

    grid = default_kgrid(spec)
    k = grid.nodes
    omega_rel = grid.frequencies(spec.mass, spec.constants.hbar)[1]
    nodes, resample = chebyshev_samples(times.times, np.ptp(omega_rel))
    coeff = grid.weights * grid_amplitude(spec, grid) * np.exp(1j * k * x)
    waves = coeff[:, None] * phase_basis(omega_rel, nodes)
    k.flags.writeable = False
    waves.flags.writeable = False
    _FREE_BASIS.clear()
    _FREE_BASIS[spec] = (key, (k, waves, resample))
    return k, waves, resample


def free_flux(spec, x: float, times: TimeSeries) -> DistributionSeries:
    """Quantum probability current of the freely moving packet at position x.

    May be negative for purely positive-momentum packets (backflow); no
    clamping is applied anywhere in this module.
    """
    k, waves, resample = _free_waves(spec, x, times)
    b, a = np.stack([np.ones_like(k), k]) @ waves
    j = (spec.constants.hbar / (2.0 * math.pi * spec.mass)) * np.real(np.conj(b) * a)
    return DistributionSeries(t0=times.t0, dt=times.dt, values=resample(j),
                              meta={"position_m": x}, kind="flux")


def kijowski_density(spec, x: float, times: TimeSeries) -> DistributionSeries:
    """Axiomatic non-negative arrival density (geometric-mean kernel)."""
    k, waves, resample = _free_waves(spec, x, times)
    amp = np.sqrt(spec.constants.hbar * k / spec.mass) @ waves
    return DistributionSeries(t0=times.t0, dt=times.dt,
                              values=resample(np.abs(amp) ** 2 / (2.0 * math.pi)),
                              meta={"position_m": x}, kind="kijowski")


def emission_kernel(gamma: float, times: TimeSeries) -> DistributionSeries:
    """Photon-emission delay density: gamma * exp(-gamma t) for t >= 0."""
    if not (gamma > 0.0):
        raise ValueError("gamma must be > 0")
    t = times.times
    vals = np.where(t >= 0.0, gamma * np.exp(-gamma * np.clip(t, 0.0, None)), 0.0)
    return DistributionSeries(t0=times.t0, dt=times.dt, values=vals,
                              meta={"gamma_per_s": gamma}, kind="kernel")


def convolve(f: TimeSeries, kernel: TimeSeries) -> DistributionSeries:
    """Causal discrete convolution with trapezoidal end weights.

    Grids must share dt; the output keeps f's length and starts at
    f.t0 + kernel.t0.
    """
    if abs(f.dt - kernel.dt) > 1e-9 * f.dt:
        raise GridMismatch(f"dt differs: {f.dt} vs {kernel.dt}")
    n = len(f)
    m = len(kernel)
    if n * m > 4_000_000:
        nfft = 1 << (n + m - 1).bit_length()
        spec = np.fft.rfft(f.values, nfft) * np.fft.rfft(kernel.values, nfft)
        full = np.fft.irfft(spec, nfft)[:n]
    else:
        full = np.convolve(f.values, kernel.values)[:n]
    # Trapezoid end weights: halve the two boundary products of each
    # partial sum (kernel treated as zero beyond its sampled window).
    g = np.zeros(n)
    m = min(n, len(kernel))
    g[:m] = kernel.values[:m]
    full = full - 0.5 * f.values[0] * g - 0.5 * f.values * g[0]
    out = f.dt * full
    kind = getattr(f, "kind", "observed")
    if kind == "ideal":
        kind = "observed"
    return DistributionSeries(t0=f.t0 + kernel.t0, dt=f.dt, values=out,
                              meta=dict(f.meta), kind=kind)


def deconvolve(pi: TimeSeries, gamma: float, method: str = "fourier") -> DistributionSeries:
    """Remove the exponential emission delay from an observed density.

    time-domain: adds the scaled first derivative (central differences).
    fourier: multiplies the spectrum by (i nu + gamma)/gamma on a grid
    zero-padded to four times the series length.

    The result may legitimately go negative; it is never clamped.  A
    grid with dt * gamma >= 0.1 triggers UnderResolvedWarning.
    """
    if not (gamma > 0.0):
        raise ValueError("gamma must be > 0")
    if pi.dt * gamma >= 0.1:
        warnings.warn(
            f"dt*gamma = {pi.dt * gamma:.3g} >= 0.1: delay kernel under-resolved",
            UnderResolvedWarning,
            stacklevel=2,
        )
    vals = np.asarray(pi.values, dtype=float)
    n = len(vals)
    if method == "time-domain":
        deriv = np.gradient(vals, pi.dt, edge_order=2)
        out = vals + deriv / gamma
    elif method == "fourier":
        nfft = 4 * n
        spec = np.fft.rfft(vals, n=nfft)
        nu = 2.0 * math.pi * np.fft.rfftfreq(nfft, d=pi.dt)
        spec *= (1j * nu + gamma) / gamma
        out = np.fft.irfft(spec, n=nfft)[:n]
    else:
        raise ValueError(f"method must be 'time-domain' or 'fourier', got {method!r}")
    return DistributionSeries(t0=pi.t0, dt=pi.dt, values=out, meta=dict(pi.meta), kind="ideal")


def normalize(d: TimeSeries) -> DistributionSeries:
    """Rescale to unit trapezoidal integral; raw integral kept in metadata."""
    raw = float(np.trapezoid(np.real(d.values), dx=d.dt))
    scale_ref = float(np.abs(d.values).max()) * d.dt * len(d) if len(d) else 0.0
    if raw == 0.0 or abs(raw) < 1e-14 * scale_ref:
        raise ZeroIntegral("cannot normalize a series with vanishing integral")
    return DistributionSeries(t0=d.t0, dt=d.dt, values=np.asarray(d.values) / raw,
                              meta={**d.meta, "raw_integral": raw},
                              kind=getattr(d, "kind", "observed"))


def write_distribution_csv(d: DistributionSeries, stream, comments=()) -> None:
    """CSV with the distribution kind recorded in the '#' metadata lines."""
    from .series import write_csv

    tagged = DistributionSeries(t0=d.t0, dt=d.dt, values=d.values,
                                meta={**d.meta, "kind": d.kind}, kind=d.kind)
    write_csv(tagged, stream, comments=comments)


def read_distribution_csv(stream) -> DistributionSeries:
    from .series import read_csv

    series = read_csv(stream)
    kind = series.meta.get("kind", "observed")
    return DistributionSeries(t0=series.t0, dt=series.dt, values=series.values,
                              meta=series.meta, kind=kind)


def ideal_kernel_bracket(
    k: np.ndarray, kp: np.ndarray, gamma: float, mass: float, hbar: float
) -> np.ndarray:
    """Deconvolved detection kernel behind the beam for mode pair (k, k').

    [i gamma + (k^2 - k'^2) hbar / 2m] /
    [(k - k') + (i gamma m / 2 hbar) (k + k') / (k k')]

    Tends to the current kernel hbar (k + k')/2m as gamma -> 0 at fixed
    separation and as k' -> k at fixed gamma.
    """
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    num = 1j * gamma + (k * k - kp * kp) * hbar / (2.0 * mass)
    den = (k - kp) + (1j * gamma * mass / (2.0 * hbar)) * (k + kp) / (k * kp)
    return num / den
