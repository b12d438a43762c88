"""Stationary scattering states for the sharp-edged beam.

Closed-form treatment: the eight matching conditions at the beam edges
are solved directly for the reflection/transmission amplitudes and the
four interior mode coefficients, giving an evaluable two-component wave
for every incident wavenumber.

A solution is one list of ``Region``s of anchored modes, batched over
wavenumbers.  Both backends build it (``_sharp_regions`` here,
``transfer._slice_regions`` for sliced profiles), and one evaluator,
``_region_field``, serves the per-k ``evaluate_state`` and the evolving
packet of ``ConditionalPropagator``.  Inside the beam the modes are the
kernel's Newton basis, exact through gamma = 2 omega, where the two
interior modes coincide and the field has a Jordan term x exp(i kappa x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NonPhysicalAbsorption, SingularMatching
from .model import CONSTANTS, ValidatedConfig

ABSORPTION_BAND = 1e-8
TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class InternalEigensystem:
    """Eigenrates and eigenvectors of the internal coupling matrix (one pair at gamma = 2 omega)."""

    lambda_plus: complex
    lambda_minus: complex
    eigvec_plus: tuple[complex, complex]
    eigvec_minus: tuple[complex, complex]


def internal_eigensystem(gamma: float, omega: float) -> InternalEigensystem:
    """Diagonalize the internal two-level matrix (coupling omega, decay gamma).

    Eigenvectors are unnormalized with first component fixed to 1; they are
    undefined for omega = 0 (callers treat that as the uncoupled case).
    The rates are ``kernels.internal_rates``', accurate to rounding for
    any omega/gamma.
    """
    if omega <= 0.0:
        raise ValueError("internal_eigensystem requires omega > 0")
    if gamma < 0.0:
        raise ValueError("internal_eigensystem requires gamma >= 0")
    lam_p, lam_m = (complex(rate) for rate in kernels.internal_rates(gamma, omega)[:2])
    return InternalEigensystem(
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        eigvec_plus=(1.0 + 0j, 2.0 * lam_p / omega),
        eigvec_minus=(1.0 + 0j, 2.0 * lam_m / omega),
    )


@dataclass(frozen=True)
class ChannelWavenumbers:
    """Asymptotic and interior wavenumbers for one incident energy."""

    k: float
    q: complex
    k_plus: complex
    k_minus: complex


def channel_wavenumbers(
    energy: float, gamma: float, omega: float, mass: float
) -> ChannelWavenumbers:
    """Wavenumbers at energy E: real k, decaying-channel q, interior k+-.

    All complex roots are taken on the upper-half-plane branch (Im >= 0);
    for gamma = 0 the excited channel has q = k exactly.
    """
    hbar = CONSTANTS.hbar
    if not (energy > 0.0):
        raise ValueError(f"energy must be > 0, got {energy!r}")
    return _wavenumbers(math.sqrt(2.0 * mass * energy) / hbar, gamma, omega, mass, hbar)


def _wavenumbers(k: float, gamma: float, omega: float, mass: float,
                 hbar: float) -> ChannelWavenumbers:
    """``channel_wavenumbers`` at wavenumber k itself."""
    q = complex(kernels.channel_q(np.array([k]), gamma, mass, hbar)[0])
    if omega > 0.0:
        kp, km, _, _ = kernels.mode_wavenumbers(np.array([k]), gamma, omega, mass, hbar)
        kp, km = complex(kp[0]), complex(km[0])
    else:
        kp, km = complex(k), q
    return ChannelWavenumbers(k=k, q=q, k_plus=kp, k_minus=km)


@dataclass
class Region:
    """One spatial region of a scattering solution, as per-channel mode lists.

    A mode (coef, sign, delta, anchor, gap) adds to its channel inside [x1,
    x2], with y = x - anchor and kappa = sign * carrier + delta, a plane
    wave coef exp(i kappa y) (gap None) or a Newton mode coef N(y)
    (``_newton_wave``): N = (E+ - E-)/gap over the interior pair of its
    direction, E+ = exp(i kappa y), E- = exp(i (kappa - gap) y), dN/dy =
    i (E+ + (kappa - gap) N), and N = i y E+ at gap = 0 (gamma = 2 omega),
    the Jordan term.  sign is +1 or -1; coef, delta and gap are (nk,) arrays, one entry per
    incident wavenumber, and ``carrier`` is one float k0 for all of them
    (``KGrid.origin``; the wavenumber itself for a one-k solution).  The
    offsets delta are formed without subtracting carrier-size numbers
    (``kernels._mode_offsets`` and ``kernels._channel_offset``), so two
    waves of one direction differ in phase by exactly (delta_mu -
    delta_nu) y: the field evaluator rounds the carrier phase once per
    point (``kernels._wave``), and the overlap engine integrates products
    of same-direction waves with no carrier at all.  A solution is the
    list of regions from x1 = -inf to x2 = +inf, each starting where the
    previous one ends: the incident side, one region per constant-coupling
    slice (one for the sharp beam), the transmitted side.  Field evaluation (``_region_field``) and the overlap
    engine (``wavepacket._overlap_sums``) both read it.

    Invariant: every mode is bounded in its region: |exp(i kappa y)| <= 1
    for a plane wave and both E+- of a Newton mode at each finite
    endpoint, so |N| <= width * |coef|.  The overlap engine relies on it:
    it forms each mode's values on their own and sums products of them,
    which cannot overflow only because every factor is bounded.  The
    infinite endpoints are allowed when the corresponding pair exponents
    decay (excited channel with gamma > 0).
    """

    x1: float
    x2: float
    channel_modes: tuple[list, list]
    carrier: float


@dataclass(frozen=True)
class ScatteringSolution:
    """Matched stationary wave for one incident wavenumber: a one-k view of the regions.

    ``regions`` holds the wave as ``Region`` mode lists with arrays of
    length one; ``evaluate_state`` and ``matching_residual`` read them, and
    ``ConditionalPropagator`` integrates the same lists over all its
    wavenumbers.  R1, R2, T1 and T2 are the asymptotic amplitudes of the
    ``kernels`` conventions.  T2 is the x = 0 amplitude of
    exp(iqx); below ~0.1 m/s at L = 5 um it may leave the float range, as in
    ``sharp_edge_rows``, while the sharp beam's regions carry the
    transmitted excited wave anchored at the exit and stay finite.
    """

    k: float
    config: ValidatedConfig
    wavenumbers: ChannelWavenumbers
    R1: complex
    R2: complex
    T1: complex
    T2: complex
    regions: list[Region]


def sharp_edge_rows(k, config: ValidatedConfig, omega=None) -> np.ndarray:
    """Batched matching solve: (nk, 8) rows [R1, R2, T1, T2, a, b, c, d].

    ``omega`` gives one coupling per wavenumber (an array broadcasting
    against ``k``), so a whole (omega, v) scan is one call; by default every
    point takes ``config.omega``.  Columns 4-7 are the kernel's Newton
    coefficients (``kernels.sharp_edge_solve``).  Handles omega = 0 (free
    ground channel) per point; every coupled point, gamma = 2 omega
    included, is one kernel call.  A point's row does not depend on the
    other points of the batch.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    omega = np.broadcast_to(
        np.asarray(config.omega if omega is None else omega, dtype=float), k.shape
    )
    hbar = config.constants.hbar

    coupled = omega != 0.0
    if coupled.all():  # a map without an uncoupled column: no copies
        return kernels.sharp_edge_solve(k, config.gamma, omega, config.beam_width, config.mass, hbar)
    rows = np.zeros((k.shape[0], 8), dtype=complex)
    rows[:, 2] = 1.0  # T1: ground channel is free at omega = 0
    rows[:, 4] = 1.0  # interior ground plane wave
    rows[coupled] = kernels.sharp_edge_solve(
        k[coupled], config.gamma, omega[coupled], config.beam_width, config.mass, hbar
    )
    return rows


# --- region builders --------------------------------------------------------


def _exterior_regions(k0: float, offsets, R1, T1, reflected, transmitted, x_left, x_right):
    """Half-lines beyond the coupling; ``reflected``/``transmitted`` are the excited modes.

    The ground waves are the incident (1, +k, 0), the reflected (R1, -k, 0)
    and the transmitted (T1, +k, 0), with k = k0 + offsets.
    """
    ones = np.ones(offsets.shape, dtype=complex)
    left = Region(-math.inf, x_left, (
        [(ones, 1.0, offsets, 0.0, None), (R1, -1.0, -offsets, 0.0, None)], reflected), k0)
    right = Region(x_right, math.inf, ([(T1, 1.0, offsets, 0.0, None)], transmitted), k0)
    return left, right


def _newton_regions(k0: float, terms, coefficients, x1: float, x2: float) -> Region:
    """A finite region from its Newton coefficients (a, b, c, d) and the ``newton_terms``.

    The field is a v+ E+ + b (v E)[+,-] forward from x1 and c v+ E+ + d (v
    E)[+,-] backward from x2, v = (1, u), over (k+, k-): (E)[+,-] = N and (u
    E)[+,-] = du E+ + u- N, -1 times those over the backward (-k+, -k-).
    """
    _, _, d_p, _, u_p, u_m, dk, du, _, _, _ = terms
    a, b, c, d = coefficients
    channels = ([], [])
    for sign, anchor, plane, newton in ((1.0, x1, a, b), (-1.0, x2, c, -d)):
        channels[0].extend([(plane, sign, sign * d_p, anchor, None),
                            (newton, sign, sign * d_p, anchor, sign * dk)])
        channels[1].extend([(u_p * plane + sign * du * newton, sign, sign * d_p, anchor, None),
                            (u_m * newton, sign, sign * d_p, anchor, sign * dk)])
    return Region(x1, x2, channels, k0)


def _sharp_regions(k0: float, offsets: np.ndarray, config: ValidatedConfig):
    """Amplitudes (R1, R2, T1, T2) and regions of the sharp beam at wavenumbers k0 + offsets.

    The amplitudes are the rows of ``sharp_edge_rows``; the interior
    holds their Newton coefficients, columns 4-7 (``_newton_regions``).
    The kernel forms its phases across the beam from the same offsets and
    ``kernels.newton_mode``, so the regions match to rounding at every
    coupling.  The transmitted excited wave is T2_L exp(iq(x - L)), T2_L
    the kernel's excited value at x = L, with the kernel's offset d_q: it
    stays finite where exp(iqL) underflows and T2 does not.
    """
    L = config.beam_width
    if config.omega == 0.0:   # the free ground wave
        rows = sharp_edge_rows(k0 + offsets, config)
        left, right = _exterior_regions(k0, offsets, rows[:, 0], rows[:, 2], [], [], 0.0, L)
        interior = Region(0.0, L, ([(rows[:, 4], 1.0, offsets, 0.0, None)], []), k0)
        return tuple(rows[:, :4].T), [left, interior, right]
    hbar = config.constants.hbar
    rows, terms, t2_exit, d_q = kernels.sharp_edge_modes(
        k0, offsets, config.gamma, config.omega, L, config.mass, hbar)
    amplitudes = R1, R2, T1, _ = tuple(rows[:, :4].T)
    interior = _newton_regions(k0, terms, rows[:, 4:].T, 0.0, L)
    left, right = _exterior_regions(k0, offsets, R1, T1, [(R2, -1.0, -d_q, 0.0, None)],
                                    [(t2_exit, 1.0, d_q, L, None)], 0.0, L)
    return amplitudes, [left, interior, right]


def _solution_view(k: float, config: ValidatedConfig, amplitudes, regions,
                   what: str) -> ScatteringSolution:
    """One-k ScatteringSolution of a builder's output, checked before it is returned.

    Raises SingularMatching when anything the solution evaluates (the
    regions, R1, R2 and T1) is not finite, or when the matching residual
    exceeds 1e-6.
    """
    R1, R2, T1, T2 = (complex(a[0]) for a in amplitudes)
    coefs = [mode[0] for r in regions for modes in r.channel_modes for mode in modes]
    if not np.all(np.isfinite(np.concatenate([[R1, R2, T1], *coefs]))):
        raise SingularMatching(f"{what} is singular at k={k!r}, omega={config.omega!r}")
    sol = ScatteringSolution(
        k=float(k),
        config=config,
        wavenumbers=_wavenumbers(float(k), config.gamma, config.omega, config.mass,
                                 config.constants.hbar),
        R1=R1, R2=R2, T1=T1, T2=T2,
        regions=regions,
    )
    residual = matching_residual(sol)
    if residual > 1e-6:
        raise SingularMatching(
            f"{what} residual {residual:.2e} at k={k!r}; system ill-conditioned"
        )
    return sol


def solve_sharp_edge(k: float, config: ValidatedConfig) -> ScatteringSolution:
    """Matched stationary wave of the sharp beam for one incident wavenumber k > 0.

    The amplitudes are the row of ``sharp_edge_rows``, the regions
    ``_sharp_regions``'.
    """
    if not (k > 0.0):
        raise ValueError(f"k must be > 0, got {k!r}")
    if config.profile.kind != "sharp":
        raise ValueError("solve_sharp_edge requires a sharp-edged profile")
    amplitudes, regions = _sharp_regions(float(k), np.zeros(1), config)
    return _solution_view(k, config, amplitudes, regions, "matching")


# --- field evaluation -------------------------------------------------------


def _region_values(region: Region, weights, x: np.ndarray, derivative: bool):
    """Both channels of one region at x, and d/dx (or None), each (2, nx).

    Sums weights * coef times each mode (``Region``: plane waves from
    ``kernels._wave``, Newton modes from ``_newton_wave``), without the
    plane-wave normalization.
    """
    val = np.zeros((2, x.shape[0]), dtype=complex)
    der = np.zeros_like(val) if derivative else None
    for ch in (0, 1):
        for coef, sign, delta, anchor, gap in region.channel_modes[ch]:
            wc = weights * coef
            kappa = sign * region.carrier + delta
            if gap is None:
                waves = kernels._wave(region.carrier, sign, delta, x - anchor)
                slope = (1j * kappa * wc) @ waves if derivative else 0.0
            else:   # dN/dy = i (E+ + kappa- N)
                e_p, waves = _newton_wave(region.carrier, sign, delta, gap, x - anchor)
                slope = (1j * wc) @ e_p + (1j * (kappa - gap) * wc) @ waves if derivative else 0.0
            val[ch] += wc @ waves
            if derivative:
                der[ch] += slope
    return val, der


def _newton_wave(carrier: float, sign: float, delta, gap, y):
    """(E+, N) of a Newton mode (``Region``) at y, shaped and phased as ``kernels._wave``'s."""
    y = np.asarray(y)
    col = (Ellipsis,) + (None,) * y.ndim
    newton, plus_big, e_big, expm1 = kernels.newton_mode(
        kernels._carrier_phase(carrier, sign, y), delta[col], (delta - gap)[col], gap[col], y)
    return np.where(plus_big, e_big, e_big * (1.0 + expm1)), newton


def _region_field(regions: list[Region], weights, x, derivative: bool = False):
    """Field sum of weights * coef * exp(i kappa (x - anchor)) / sqrt(2 pi) at x.

    ``weights`` multiplies the coefficients per wavenumber: 1 for a
    stationary state, coeff * exp(-i omega t) for an evolving packet.
    Every x belongs to exactly one region: the incident half-line takes
    x <= its x2, the transmitted half-line x >= its x1, and a point on an
    inner boundary goes to the region that starts there.  Returns shape
    (2,) for scalar x, else (2, nx); with ``derivative`` a (value, d/dx)
    pair.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    index = np.searchsorted([r.x1 for r in regions[1:]], x, side="right")
    index[x <= regions[0].x2] = 0
    val = np.zeros((2, x.shape[0]), dtype=complex)
    der = np.zeros_like(val)
    for i in np.unique(index):
        sel = index == i
        v, d = _region_values(regions[i], weights, x[sel], derivative)
        val[:, sel] = v
        if derivative:
            der[:, sel] = d
    val /= TWO_PI_SQRT
    der /= TWO_PI_SQRT
    if scalar:
        val, der = val[:, 0], der[:, 0]
    return (val, der) if derivative else val


def evaluate_state(sol: ScatteringSolution, x, derivative: bool = False):
    """Evaluate the matched two-component wave (and optionally d/dx) at x.

    Reads the solution's regions, so both backends and every coupling
    evaluate alike.  Returns an array of shape (2, ...) or a
    ((2, ...), (2, ...)) tuple with ``derivative=True``.  Includes the
    1/sqrt(2 pi) plane-wave normalization.
    """
    return _region_field(sol.regions, 1.0, x, derivative)


def matching_residual(sol: ScatteringSolution) -> float:
    """Worst relative jump of components/derivatives across the region boundaries.

    Compares the exact one-sided limits of the two regions that meet at
    every boundary (both beam edges, and every slice edge of a profile);
    the scale for each comparison is the larger side (with k * value as the
    derivative floor so near-nodes do not inflate the relative error).
    """
    worst = 0.0
    for outer, inner in zip(sol.regions, sol.regions[1:]):
        edge = np.array([inner.x1])
        v_out, d_out = _region_values(outer, 1.0, edge, True)
        v_in, d_in = _region_values(inner, 1.0, edge, True)
        # Jumps are measured against the local field scale (largest
        # component magnitude at the edge, k-scaled for derivatives).
        scale_v = max(np.abs(v_out).max(), np.abs(v_in).max(), 1e-300)
        scale_d = max(np.abs(d_out).max(), np.abs(d_in).max(), sol.k * scale_v)
        worst = max(worst, np.abs(v_out - v_in).max() / scale_v,
                    np.abs(d_out - d_in).max() / scale_d)
    return float(worst)


def absorption(sol: ScatteringSolution) -> float:
    """Total detection probability A = 1 - |T1|^2 - |R1|^2, as ``absorption_status`` gives it.

    Clipped to [0, 1] within ABSORPTION_BAND; NaN for a non-finite value;
    raises NonPhysicalAbsorption for a finite one outside the band.
    """
    a, [status] = absorption_status(np.array([[sol.R1, sol.R2, sol.T1, sol.T2]]))
    if status == "nonphysical":
        raw = 1.0 - abs(sol.T1) ** 2 - abs(sol.R1) ** 2
        raise NonPhysicalAbsorption(f"absorption {raw!r} outside [0, 1] sanity band")
    return float(a[0])


def absorption_status(rows: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Absorption and a status per row of (nk, >=4) amplitude rows [R1, R2, T1, T2, ...].

    A = 1 - |T1|^2 - |R1|^2 is clipped to [0, 1] with an empty status when
    it lies within ABSORPTION_BAND of that range.  Otherwise A is NaN and
    the status is "singular" for a non-finite value, "nonphysical" for a
    finite one outside the band.
    """
    a = 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2
    singular = ~np.isfinite(a)
    nonphysical = ~singular & ((a < -ABSORPTION_BAND) | (a > 1.0 + ABSORPTION_BAND))
    status = np.where(singular, "singular", np.where(nonphysical, "nonphysical", ""))
    return np.where(singular | nonphysical, np.nan, np.clip(a, 0.0, 1.0)), status.tolist()


def semiclassical_state(k: float, config: ValidatedConfig, x) -> np.ndarray:
    """Straight-trajectory interior wave: internal Rabi evolution times a plane wave.

    Valid inside (0, L) for kinetic energies well above the coupling scale;
    couplings below gamma/2 continue analytically to hyperbolic form.
    """
    hbar = config.constants.hbar
    v = hbar * k / config.mass
    omega, gamma = config.omega, config.gamma
    x = np.asarray(x, dtype=float)
    op = np.sqrt(complex(omega * omega - 0.25 * gamma * gamma))
    theta = x * op / (2.0 * v)
    sin_term = x / (2.0 * v) * kernels.sinc(theta)   # sin(theta) / op
    ground = np.cos(theta) + 0.5 * gamma * sin_term
    excited = -1j * omega * sin_term
    envelope = np.exp(1j * k * x) * np.exp(-gamma * x / (4.0 * v)) / TWO_PI_SQRT
    return np.stack([envelope * ground, envelope * excited])


def semiclassical_T2(k: float, config: ValidatedConfig) -> complex:
    """Excited-channel transmission amplitude in the straight-trajectory limit."""
    hbar = config.constants.hbar
    v = hbar * k / config.mass
    L = config.beam_width
    omega, gamma = config.omega, config.gamma
    q = complex(kernels.channel_q(np.array([k]), gamma, config.mass, hbar)[0])
    op = np.sqrt(complex(omega * omega - 0.25 * gamma * gamma))
    theta = L * op / (2.0 * v)
    sin_term = L / (2.0 * v) * kernels.sinc(theta)   # sin(theta) / op
    return complex(
        np.exp(1j * (k - q) * L) * math.exp(-gamma * L / (4.0 * v)) * (-1j * omega) * sin_term
    )
