"""Transfer-matrix scattering backend for arbitrary coupling profiles.

The profile is sliced into piecewise-constant segments; a 4x4 propagator
in the (phi1, phi1', phi2, phi2') value/derivative basis maps each slice,
so coupled and uncoupled segments compose in a single basis.  For the
sharp-edged profile this reduces to one slice and serves as the
independent cross-check of the closed-form solver.  A coupled slice holds
the sharp beam's Newton basis, exact through gamma = 2 omega_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptySupport
from .model import CONSTANTS, ValidatedConfig
from .scattering import (
    Region,
    ScatteringSolution,
    _exterior_regions,
    _newton_regions,
    _solution_view,
)

DEFAULT_SLICES = 256
SUPPORT_CUT = 1e-6


@dataclass(frozen=True)
class SliceDecomposition:
    """Piecewise-constant representation of a coupling profile.

    ``discretize`` makes a Gaussian's decomposition an exact palindrome:
    the slice widths and the couplings read the same backwards bit for bit,
    which lets ``kernels.transfer_solve`` compose half the stack.
    """

    edges: tuple[float, ...]    # n_slices + 1 strictly increasing positions (m)
    omegas: tuple[float, ...]   # constant coupling per slice (1/s)

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.omegas) + 1 or len(self.omegas) < 1:
            raise EmptySupport("decomposition needs at least one slice")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("slice edges must be strictly increasing")

    @property
    def n_slices(self) -> int:
        return len(self.omegas)


def discretize(profile, n_slices: int, *, config: ValidatedConfig) -> SliceDecomposition:
    """Slice a RabiProfile into equal-width midpoint-sampled segments.

    Sharp-edged profiles are represented exactly by a single slice.
    Gaussian support is truncated where the coupling falls below
    ``SUPPORT_CUT`` times its peak, and is sliced as an exact palindrome
    about the centre (``_mirrored_slices``): each edge lies within 4 ulps of
    ``np.linspace(lo, hi, n_slices + 1)``.  Tabulated profiles take the
    ``linspace`` edges.  The owning config gives the beam width and
    coupling scale.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    L = config.beam_width
    if profile.kind == "sharp":
        return SliceDecomposition(edges=(0.0, L), omegas=(config.omega,))
    if profile.kind == "gaussian":
        if profile.omega0 <= 0.0:
            raise EmptySupport("gaussian profile has zero amplitude")
        half = profile.width * math.sqrt(-2.0 * math.log(SUPPORT_CUT))
        lo = profile.center - half
        hi = profile.center + half
    else:  # tabulated
        xs = [x for x, _ in profile.samples]
        lo, hi = xs[0], xs[-1]
    if hi <= lo:
        raise EmptySupport("profile support is empty after truncation")
    edges = np.linspace(lo, hi, n_slices + 1)
    if profile.kind == "tabulated":
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas = profile.value(mids, beam_width=L, omega=config.omega)
    else:
        edges, omegas = _mirrored_slices(profile, edges, beam_width=L, omega=config.omega)
    return SliceDecomposition(edges=tuple(edges.tolist()), omegas=tuple(np.asarray(omegas).tolist()))


def _mirrored_slices(profile, edges: np.ndarray, *, beam_width: float, omega: float):
    """Edges and midpoint couplings of a Gaussian as an exact palindrome.

    The centre and the offsets of the first half of ``edges`` are rounded to
    multiples of u, the spacing of the largest |edge|; the second half's
    offsets are their negatives.  Every edge then lies on the u grid, so
    the slice widths are bitwise palindromic (and, for a support on one
    side of x = 0, sum exactly to it), and each edge stays within 4 u of
    ``edges``.  Couplings are evaluated at the first half's midpoints and
    mirrored.
    """
    n_slices = edges.shape[0] - 1
    u = math.ulp(max(abs(edges[0]), abs(edges[-1])))
    center = round(profile.center / u) * u
    n_eval = (n_slices + 1) // 2
    head = np.round((edges[:n_eval] - center) / u) * u
    middle = [0.0] if n_slices % 2 == 0 else []
    edges = center + np.concatenate([head, middle, -head[::-1]])
    mids = 0.5 * (edges[:n_eval] + edges[1 : n_eval + 1])
    head_omegas = np.asarray(profile.value(mids, beam_width=beam_width, omega=omega), dtype=float)
    omegas = np.concatenate([head_omegas, head_omegas[: n_slices // 2][::-1]])
    return edges, omegas


def slice_matrix(
    omega: float, width: float, energy: float, gamma: float, mass: float
) -> np.ndarray:
    """4x4 propagator of one constant-coupling slice at energy E.

    Acts on (phi1, phi1', phi2, phi2'); zero width gives the identity.
    """
    hbar = CONSTANTS.hbar
    if width < 0.0:
        raise ValueError("width must be >= 0")
    if not (energy > 0.0):
        raise ValueError("energy must be > 0")
    k = math.sqrt(2.0 * mass * energy) / hbar
    return kernels.slice_propagator(np.array([k]), omega, width, gamma, mass, hbar)[0]


def transfer_rows(k, decomp: SliceDecomposition, config: ValidatedConfig) -> np.ndarray:
    """Batched transfer-matrix amplitudes: (nk, 4) rows [R1, R2, T1, T2]."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return kernels.transfer_solve(
        k,
        np.asarray(decomp.edges),
        np.asarray(decomp.omegas),
        config.gamma,
        config.mass,
        config.constants.hbar,
    )


def _slice_regions(k0: float, offsets: np.ndarray, decomp: SliceDecomposition,
                   config: ValidatedConfig):
    """Amplitudes (R1, R2, T1, T2) and regions of the sliced profile at wavenumbers k0 + offsets.

    ``transfer_solve`` gives the amplitudes and the state at every slice
    edge.  A coupled slice holds the Newton basis over its width
    (``_newton_regions``), fitted to the state at its left edge, where the
    forward Newton mode is 0 with slope i; an uncoupled one the free ground
    wave (k+ = k) and the decaying excited wave (k- = q).  The excited
    half-lines start from the edge states, so they meet the outer slices
    whatever the rounding of exp(iqx) there.
    """
    edges = np.asarray(decomp.edges)
    omegas = np.asarray(decomp.omegas)
    hbar = config.constants.hbar
    nk = offsets.shape[0]
    amps, states = kernels.transfer_solve(np.full(nk, k0), edges, omegas, config.gamma,
                                          config.mass, hbar, return_states=True, offsets=offsets)
    # the uncoupled slices' modes (k+ = k, k- = q) and the excited half-lines' q
    k = k0 + offsets
    free_p, free_m = kernels._mode_offsets(k, offsets, config.gamma, 0.0, config.mass, hbar)[:2]
    d_q = kernels._channel_offset(k, offsets, config.gamma, config.mass, hbar)[1]
    # slopes in units of the power of two in (k0, 2 k0], as in transfer_solve
    unit = np.array([1.0, math.ldexp(1.0, math.frexp(k0)[1])] * 2)[:, None]
    slices = []
    for j, om in enumerate(omegas.tolist()):
        xa, xb = float(edges[j]), float(edges[j + 1])
        if om > 0.0:
            terms = kernels.newton_terms(k0, offsets, config.gamma, om, xb - xa, config.mass, hbar)
            _, _, d_p, d_m, u_p, u_m, _, du, ep, _, de = terms
            kp, km, back = k0 + d_p, k0 + d_m, ep + (k0 + d_m) * de
            # the kernel's columns (ground value, slope, excited value, slope)
            columns = [(1.0, 1j * kp, u_p, 1j * kp * u_p), (0.0, 1j, du, 1j * (kp * du + u_m)),
                       (ep, -1j * kp * ep, u_p * ep, -1j * kp * u_p * ep),
                       (de, -1j * back, du * ep + u_m * de, -1j * (du * kp * ep + u_m * back))]
        else:
            free = ((1.0, free_p, xa), (1.0, free_m, xa),
                    (-1.0, -free_p, xb), (-1.0, -free_m, xb))
            columns = []
            for mu, (sign, delta, anchor) in enumerate(free):
                wave = kernels._wave(k0, sign, delta, xa - anchor)
                pair = (wave, 1j * (sign * k0 + delta) * wave)
                columns.append(pair + (0.0, 0.0) if mu % 2 == 0 else (0.0, 0.0) + pair)
        basis = np.stack([np.stack(np.broadcast_arrays(*column), axis=-1) for column in columns], -1)
        coeffs = np.linalg.solve(basis / unit, states[:, j, :, None] / unit)
        a, b, c, d = coeffs[:, :, 0].T
        slices.append(_newton_regions(k0, terms, (a, b, c, d), xa, xb) if om > 0.0 else
                      Region(xa, xb, ([(a, 1.0, free_p, xa, None), (c, -1.0, -free_p, xb, None)],
                                      [(b, 1.0, free_m, xa, None), (d, -1.0, -free_m, xb, None)]),
                             k0))
    R1, _, T1, _ = amps.T
    left, right = _exterior_regions(
        k0, offsets, R1, T1, [(states[:, 0, 2], -1.0, -d_q, edges[0], None)],
        [(states[:, -1, 2], 1.0, d_q, edges[-1], None)], edges[0], edges[-1])
    return tuple(amps.T), [left, *slices, right]


def solve_profile(
    k: float, config: ValidatedConfig, n_slices: int = DEFAULT_SLICES
) -> ScatteringSolution:
    """Matched stationary wave of the configured profile via transfer matrices.

    A one-k view of ``_slice_regions``: one region per slice.
    """
    if not (k > 0.0):
        raise ValueError(f"k must be > 0, got {k!r}")
    decomp = discretize(config.profile, n_slices, config=config)
    amplitudes, regions = _slice_regions(float(k), np.zeros(1), decomp, config)
    return _solution_view(k, config, amplitudes, regions, "transfer matching")
