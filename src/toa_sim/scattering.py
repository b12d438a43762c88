"""Stationary scattering states for the sharp-edged beam.

Closed-form treatment: the eight matching conditions at the beam edges
are solved directly for the reflection/transmission amplitudes and the
four interior mode coefficients, giving an evaluable two-component wave
for every incident wavenumber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import NonPhysicalAbsorption, SingularMatching
from .model import ValidatedConfig

# Relative degeneracy threshold on |gamma - 2 omega| / (gamma + 2 omega).
EPS_DEGENERATE = 1e-9
# Relative offset used to evaluate the degenerate point as a two-sided limit.
DEGENERATE_PERTURBATION = 1e-5

ABSORPTION_BAND = 1e-8
TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


def _is_degenerate(gamma: float, omega):
    """True at the degenerate point gamma = 2 omega, to relative precision EPS_DEGENERATE.

    There the two interior modes coincide and the modal basis collapses;
    such points are evaluated as the two-sided limit over
    ``_degenerate_gammas``.  False for omega = 0.  An array of omegas gives
    the boolean mask of its degenerate points.
    """
    return np.abs(gamma - 2.0 * omega) < EPS_DEGENERATE * (gamma + 2.0 * omega)


def _degenerate_gammas(gamma: float) -> tuple[float, float]:
    """The two decay rates whose solutions average to the degenerate-point limit."""
    return gamma * (1.0 - DEGENERATE_PERTURBATION), gamma * (1.0 + DEGENERATE_PERTURBATION)


@dataclass(frozen=True)
class InternalEigensystem:
    """Eigenrates and eigenvectors of the internal coupling matrix."""

    lambda_plus: complex
    lambda_minus: complex
    eigvec_plus: tuple[complex, complex]
    eigvec_minus: tuple[complex, complex]
    degenerate: bool


def internal_eigensystem(gamma: float, omega: float) -> InternalEigensystem:
    """Diagonalize the internal two-level matrix (coupling omega, decay gamma).

    Eigenvectors are unnormalized with first component fixed to 1; they are
    undefined for omega = 0 (callers treat that as the uncoupled case).
    The ``degenerate`` flag marks gamma = 2 omega to relative precision
    EPS_DEGENERATE; flagged systems must be evaluated as a two-sided limit.
    """
    if omega <= 0.0:
        raise ValueError("internal_eigensystem requires omega > 0")
    if gamma < 0.0:
        raise ValueError("internal_eigensystem requires gamma >= 0")
    lam_p, lam_m = kernels.internal_rates(gamma, omega)
    return InternalEigensystem(
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        eigvec_plus=(1.0 + 0j, 2.0 * lam_p / omega),
        eigvec_minus=(1.0 + 0j, 2.0 * lam_m / omega),
        degenerate=bool(_is_degenerate(gamma, omega)),
    )


@dataclass(frozen=True)
class ChannelWavenumbers:
    """Asymptotic and interior wavenumbers for one incident energy."""

    k: float
    q: complex
    k_plus: complex
    k_minus: complex


def channel_wavenumbers(
    energy: float, gamma: float, omega: float, mass: float, hbar: float = None
) -> ChannelWavenumbers:
    """Wavenumbers at energy E: real k, decaying-channel q, interior k+-.

    All complex roots are taken on the upper-half-plane branch (Im >= 0);
    for gamma = 0 the excited channel has q = k exactly.
    """
    from .model import CONSTANTS

    if hbar is None:
        hbar = CONSTANTS.hbar
    if not (energy > 0.0):
        raise ValueError(f"energy must be > 0, got {energy!r}")
    k = math.sqrt(2.0 * mass * energy) / hbar
    q = complex(kernels.channel_q(np.array([k]), gamma, mass, hbar)[0])
    if omega > 0.0:
        kp, km, _, _ = kernels.mode_wavenumbers(np.array([k]), gamma, omega, mass, hbar)
        kp, km = complex(kp[0]), complex(km[0])
    else:
        kp, km = complex(k), q
    return ChannelWavenumbers(k=k, q=q, k_plus=kp, k_minus=km)


@dataclass(frozen=True)
class ScatteringSolution:
    """Matched stationary wave for one incident wavenumber.

    Interior coefficients (a, b) multiply exp(i k+- x); (c, d) multiply
    exp(-i k+- (x - L)), anchored at the right edge for stability.  The
    conventional coefficients of exp(-i k+- x) are exposed as C_pm / C_mm.
    For solutions produced by the transfer-matrix backend on non-uniform
    profiles, the interior is represented by per-slice edge states instead
    (``slice_edges``/``slice_omegas``/``slice_states``) and the modal
    coefficients refer to the equivalent single-slice form when available.
    """

    k: float
    config: ValidatedConfig
    wavenumbers: ChannelWavenumbers
    eigensystem: InternalEigensystem | None
    R1: complex
    R2: complex
    T1: complex
    T2: complex
    a: complex = 0j
    b: complex = 0j
    c: complex = 0j
    d: complex = 0j
    slice_edges: tuple[float, ...] | None = None
    slice_omegas: tuple[float, ...] | None = None
    slice_states: np.ndarray | None = None
    # Two-sided limit pair for the degenerate gamma = 2 omega point: the
    # field is the average of the two perturbed (well-conditioned) fields.
    degenerate_pair: tuple["ScatteringSolution", "ScatteringSolution"] | None = None

    @property
    def C_pp(self) -> complex:
        return self.a

    @property
    def C_mp(self) -> complex:
        return self.b

    @property
    def C_pm(self) -> complex:
        # c is anchored at L: C_pm exp(-i k+ x) = c exp(-i k+ (x - L))
        return self.c * np.exp(1j * self.wavenumbers.k_plus * self.config.beam_width)

    @property
    def C_mm(self) -> complex:
        return self.d * np.exp(1j * self.wavenumbers.k_minus * self.config.beam_width)

    @property
    def uses_slices(self) -> bool:
        return self.slice_states is not None


def _vectors_from_row(row: np.ndarray) -> dict[str, complex]:
    return {
        "R1": complex(row[0]),
        "R2": complex(row[1]),
        "T1": complex(row[2]),
        "T2": complex(row[3]),
        "a": complex(row[4]),
        "b": complex(row[5]),
        "c": complex(row[6]),
        "d": complex(row[7]),
    }


def sharp_edge_rows(k, config: ValidatedConfig, omega=None) -> np.ndarray:
    """Batched matching solve: (nk, 8) rows [R1, R2, T1, T2, a, b, c, d].

    ``omega`` gives one coupling per wavenumber (an array broadcasting
    against ``k``), so a whole (omega, v) scan is one call; by default every
    point takes ``config.omega``.  Handles omega = 0 (free ground channel)
    and the degenerate gamma = 2 omega point (two-sided limit average) per
    point, so it is safe over arbitrary parameter scans.  A point's row
    does not depend on the other points of the batch.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    omega = np.broadcast_to(
        np.asarray(config.omega if omega is None else omega, dtype=float), k.shape
    )
    hbar = config.constants.hbar

    def solve(sel, gamma):
        return kernels.sharp_edge_solve(
            k[sel], gamma, omega[sel], config.beam_width, config.mass, hbar
        )

    degenerate = _is_degenerate(config.gamma, omega)
    plain = (omega != 0.0) & ~degenerate
    if plain.all():
        return solve(slice(None), config.gamma)
    rows = np.zeros((k.shape[0], 8), dtype=complex)
    rows[:, 2] = 1.0  # T1: ground channel is free at omega = 0
    rows[:, 4] = 1.0  # interior ground plane wave
    if plain.any():
        rows[plain] = solve(plain, config.gamma)
    if degenerate.any():
        lo, hi = (solve(degenerate, g) for g in _degenerate_gammas(config.gamma))
        with np.errstate(invalid="ignore"):  # inf - inf: T2 out of range at low speed
            rows[degenerate] = 0.5 * (lo + hi)
    return rows


def _solve_sharp_single(
    k: float, config: ValidatedConfig, degenerate_pair=None
) -> ScatteringSolution:
    row = sharp_edge_rows(np.array([k]), config)[0]
    if not np.all(np.isfinite(row.view(float))):
        raise SingularMatching(
            f"matching row is not finite at k={k!r}, omega={config.omega!r}: "
            "singular system, or T2 beyond the float range at low speed"
        )
    hbar = config.constants.hbar
    energy = (hbar * k) ** 2 / (2.0 * config.mass)
    wn = channel_wavenumbers(energy, config.gamma, config.omega, config.mass, hbar)
    eig = internal_eigensystem(config.gamma, config.omega) if config.omega > 0.0 else None
    return ScatteringSolution(
        k=float(k),
        config=config,
        wavenumbers=wn,
        eigensystem=eig,
        degenerate_pair=degenerate_pair,
        **_vectors_from_row(row),
    )


def solve_sharp_edge(k: float, config: ValidatedConfig) -> ScatteringSolution:
    """Full matching solution for a single incident wavenumber k > 0.

    The amplitudes and interior coefficients are the row of
    ``sharp_edge_rows``.  At the degenerate point gamma = 2 omega the modal
    basis collapses, so the field is evaluated as the two-sided limit: the
    average of the fields of the two perturbed (well-conditioned) problems
    kept in ``degenerate_pair``.
    """
    if not (k > 0.0):
        raise ValueError(f"k must be > 0, got {k!r}")
    if config.profile.kind != "sharp":
        raise ValueError("solve_sharp_edge requires a sharp-edged profile")
    pair = None
    if _is_degenerate(config.gamma, config.omega):
        pair = tuple(
            _solve_sharp_single(k, replace(config, gamma=g))
            for g in _degenerate_gammas(config.gamma)
        )
    sol = _solve_sharp_single(k, config, pair)
    residual = matching_residual(sol)
    if residual > 1e-6:
        raise SingularMatching(
            f"matching residual {residual:.2e} at k={k!r}; system ill-conditioned"
        )
    return sol


def evaluate_state(sol: ScatteringSolution, x, derivative: bool = False):
    """Evaluate the matched two-component wave (and optionally d/dx) at x.

    Returns an array of shape (2, ...) or a ((2, ...), (2, ...)) tuple with
    ``derivative=True``.  Includes the 1/sqrt(2 pi) plane-wave normalization.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if sol.degenerate_pair is not None:
        lo, hi = sol.degenerate_pair
        vl, dl = _evaluate_sharp(lo, x)
        vh, dh = _evaluate_sharp(hi, x)
        val, der = 0.5 * (vl + vh), 0.5 * (dl + dh)
    elif sol.uses_slices:
        val, der = _evaluate_slices(sol, x)
    else:
        val, der = _evaluate_sharp(sol, x)
    val /= TWO_PI_SQRT
    der /= TWO_PI_SQRT
    if scalar:
        val, der = val[:, 0], der[:, 0]
    return (val, der) if derivative else val


def _region_left(sol: ScatteringSolution, x: np.ndarray):
    k, q = sol.k, sol.wavenumbers.q
    e_in = np.exp(1j * k * x)
    e_r = np.exp(-1j * k * x)
    e_q = np.exp(-1j * q * x)
    val = np.stack([e_in + sol.R1 * e_r, sol.R2 * e_q])
    der = np.stack([1j * k * (e_in - sol.R1 * e_r), -1j * q * sol.R2 * e_q])
    return val, der


def _region_right(sol: ScatteringSolution, x: np.ndarray):
    k, q = sol.k, sol.wavenumbers.q
    e_t = np.exp(1j * k * x)
    e_tq = np.exp(1j * q * x)
    val = np.stack([sol.T1 * e_t, sol.T2 * e_tq])
    der = np.stack([1j * k * sol.T1 * e_t, 1j * q * sol.T2 * e_tq])
    return val, der


def _region_interior(sol: ScatteringSolution, x: np.ndarray):
    cfg = sol.config
    L = cfg.beam_width
    k = sol.k
    if cfg.omega == 0.0:
        e_f = np.exp(1j * k * x)
        zero = np.zeros_like(e_f)
        return np.stack([e_f, zero]), np.stack([1j * k * e_f, zero])
    kp = sol.wavenumbers.k_plus
    km = sol.wavenumbers.k_minus
    u_p = sol.eigensystem.eigvec_plus[1]
    u_m = sol.eigensystem.eigvec_minus[1]
    ga = sol.a * np.exp(1j * kp * x)
    gb = sol.b * np.exp(1j * km * x)
    gc = sol.c * np.exp(-1j * kp * (x - L))
    gd = sol.d * np.exp(-1j * km * (x - L))
    val = np.stack([ga + gb + gc + gd, u_p * (ga + gc) + u_m * (gb + gd)])
    der = np.stack(
        [
            1j * (kp * ga + km * gb - kp * gc - km * gd),
            1j * (kp * u_p * ga + km * u_m * gb - kp * u_p * gc - km * u_m * gd),
        ]
    )
    return val, der


def _evaluate_sharp(sol: ScatteringSolution, x: np.ndarray):
    L = sol.config.beam_width
    val = np.zeros((2, x.shape[0]), dtype=complex)
    der = np.zeros((2, x.shape[0]), dtype=complex)
    left = x <= 0.0
    right = x >= L
    mid = ~(left | right)
    for mask, region in ((left, _region_left), (mid, _region_interior), (right, _region_right)):
        if np.any(mask):
            v, g = region(sol, x[mask])
            val[:, mask] = v
            der[:, mask] = g
    return val, der


def _evaluate_slices(sol: ScatteringSolution, x: np.ndarray):
    cfg = sol.config
    hbar = cfg.constants.hbar
    edges = np.asarray(sol.slice_edges)
    omegas = np.asarray(sol.slice_omegas)
    k = sol.k
    q = sol.wavenumbers.q
    val = np.zeros((2, x.shape[0]), dtype=complex)
    der = np.zeros((2, x.shape[0]), dtype=complex)

    left = x <= edges[0]
    right = x >= edges[-1]
    xl = x[left]
    e_in = np.exp(1j * k * xl)
    e_r = np.exp(-1j * k * xl)
    e_q = np.exp(-1j * q * xl)
    val[0, left] = e_in + sol.R1 * e_r
    der[0, left] = 1j * k * (e_in - sol.R1 * e_r)
    val[1, left] = sol.R2 * e_q
    der[1, left] = -1j * q * sol.R2 * e_q
    xr = x[right]
    e_t = np.exp(1j * k * xr)
    e_tq = np.exp(1j * q * xr)
    val[0, right] = sol.T1 * e_t
    der[0, right] = 1j * k * sol.T1 * e_t
    val[1, right] = sol.T2 * e_tq
    der[1, right] = 1j * q * sol.T2 * e_tq

    inside = ~(left | right)
    idx = np.nonzero(inside)[0]
    if idx.size:
        js = np.clip(np.searchsorted(edges, x[idx], side="right") - 1, 0, omegas.shape[0] - 1)
        for j in np.unique(js):
            sel = idx[js == j]
            P = kernels.slice_propagator(
                np.array([k]), float(omegas[j]), x[sel] - edges[j],
                cfg.gamma, cfg.mass, hbar,
            )[:, 0]
            y = P @ sol.slice_states[j]
            val[0, sel], der[0, sel] = y[:, 0], y[:, 1]
            val[1, sel], der[1, sel] = y[:, 2], y[:, 3]
    return val, der


def matching_residual(sol: ScatteringSolution) -> float:
    """Worst relative jump of components/derivatives across both edges.

    Compares exact one-sided limits of the piecewise representation; the
    scale for each comparison is the larger side (with k * value as the
    derivative floor so near-nodes do not inflate the relative error).
    """
    k = sol.k
    if sol.degenerate_pair is not None:
        return max(matching_residual(sub) for sub in sol.degenerate_pair)
    if sol.uses_slices:
        edges = (sol.slice_edges[0], sol.slice_edges[-1])
        inner = [
            (np.asarray(sol.slice_states[0]),),
            (np.asarray(sol.slice_states[-1]),),
        ]

        def inner_vd(i, edge):
            y = inner[i][0]
            return np.array([[y[0]], [y[2]]]), np.array([[y[1]], [y[3]]])

    else:
        edges = (0.0, sol.config.beam_width)

        def inner_vd(i, edge):
            return _region_interior(sol, np.array([edge]))

    worst = 0.0
    outer_regions = (_region_left, _region_right)
    for i, edge in enumerate(edges):
        xv = np.array([edge])
        v_out, d_out = outer_regions[i](sol, xv)
        v_in, d_in = inner_vd(i, edge)
        # Jumps are measured against the local field scale (largest
        # component magnitude at the edge, k-scaled for derivatives).
        scale_v = max(np.abs(v_out).max(), np.abs(v_in).max(), 1e-300)
        scale_d = max(np.abs(d_out).max(), np.abs(d_in).max(), k * scale_v)
        for comp in range(2):
            worst = max(worst, abs(v_out[comp, 0] - v_in[comp, 0]) / scale_v)
            worst = max(worst, abs(d_out[comp, 0] - d_in[comp, 0]) / scale_d)
    return float(worst)


def absorption(sol: ScatteringSolution) -> float:
    """Total detection probability A = 1 - |T1|^2 - |R1|^2 (clamped to [0, 1])."""
    return absorption_value(sol.R1, sol.T1)


def absorption_value(R1: complex, T1: complex) -> float:
    a = 1.0 - abs(T1) ** 2 - abs(R1) ** 2
    if a < -ABSORPTION_BAND or a > 1.0 + ABSORPTION_BAND:
        raise NonPhysicalAbsorption(f"absorption {a!r} outside [0, 1] sanity band")
    return min(max(a, 0.0), 1.0)


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


def _sin_over(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sin(theta)/z for theta = s*z, safe as z -> 0 (returns s * sinc)."""
    small = np.abs(theta) < 1e-8
    zs = np.where(small, 1.0, z)
    return np.where(small, (theta / zs) * (1.0 - theta * theta / 6.0), np.sin(theta) / zs)


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
    sin_term = _sin_over(np.full_like(x, op, dtype=complex), theta)
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
    sin_term = _sin_over(np.asarray(op, dtype=complex), np.asarray(theta))
    return complex(
        np.exp(1j * (k - q) * L) * math.exp(-gamma * L / (4.0 * v)) * (-1j * omega) * sin_term
    )
