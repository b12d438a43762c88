"""Conditional wave-packet evolution and first-photon statistics.

The packet is expanded over stationary scattering states on a
Gauss-Legendre wavenumber grid.  Spatial integrals of the evolving state
(excited population, survival norm) are quadratic forms in overlap
matrices integrated exactly, region by region, with no spatial grid: that
is what makes millimetre-wide packets with picometre de Broglie
oscillations tractable.

The overlap engine (``_overlap_sums``) needs no (nk, nk) exponential.
Every wave is sign * k0 + delta with one carrier k0 and small offsets
delta, bounded inside its region (``Region``; region construction keeps
that, the engine does not check it).  Inside the beam a direction's field
is smooth once the carrier is out, so its Gram is a Gauss-Legendre
product, and the products across the carrier are short separable sums;
on the two half-lines the pair integrals are Cauchy blocks grouped by
denominator.  Every part enters the upper row tiles of its matrix at full
weight, and one pass over the row tiles adds the last parts and finishes
the matrix: half the diagonal block plus its conjugate transpose, the
block below the diagonal the tile's conjugate transpose.

The detection matrix is nearly rank-deficient (the excited channel lives
in the beam and a few decay lengths beside it), so it is held as the
rows F of a pivoted Cholesky factor read column by column from those
parts (``_compress``), and its time forms take O(r nk) per node.  Half-line
terms that run to infinity are never tiled; the ground channel's clips
of the half-lines are the only Cauchy tiles.

Each run of the engine builds one matrix.  The excited channel is
integrated once for both the detection and the norm matrix: with gamma >
0, a norm window that covers every finite region equals the detection
matrix (built first if it is missing, its factor's rows as low-rank
columns) plus the ground-channel Grams minus the excited Grams of the
half-line tails beyond the window; any other window is integrated region
by region.  When such a norm builds the detection matrix, the two
channels of each region of the beam hold the same waves with other
coefficients, so one pass evaluates the waves for both
(``_interior_products``): the excited rows go to the detection matrix,
the ground rows to the norm's buffer, each in the order a build of its
own gives them.  So each matrix follows from its inputs alone, to the
bit, whatever was built before it.  The survival loss rate -dN/dt is the
exact derivative of its quadratic form, so the first-photon route check
carries no time-step error.

Every time-domain output is a quadratic form in the phases
exp(-i omega_k t), with frequencies only at differences of the omegas, so
it is evaluated at the band-limited Chebyshev nodes of
``series.chebyshev_samples`` (about 150 for the paper's packets, not one
per output time) and carried to the requested times by one barycentric
map, exact to double rounding.  That map is kept for the last times and
node count, so the first-photon density and the free-atom references of
one packet share it, and the phases come from real cosines and sines
(``series.phase_basis``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels, transfer
from .errors import ConsistencyFailure, DomainTooSmall, NormDeficit, RegimeWarning
from .model import CONSTANTS, PhysicalConstants, ValidatedConfig
# Region is re-exported: the overlap engine integrates its mode lists.
from .scattering import Region, _region_field, _sharp_regions  # noqa: F401
from .series import TimeSeries, chebyshev_samples, phase_basis

KGRID_SPAN = 10.0    # half-width of each component's k window, in units of dk
ROUTE_TOL = 1e-3     # largest gamma*P2 vs -dN/dt discrepancy first_photon_density accepts
# Largest excess of the survival N(t) over the packet norm the k-grid
# carries that first_photon_density accepts.  On a grid that resolves the
# packet, N(t) is at most that norm up to the quadrature's own error, which
# ``default_kgrid`` holds below 1e-10 (its coverage invariant); ten times
# that leaves room for rounding (measured excess 4e-14) and still refuses
# the O(1) excess of aliased packet copies.
SURVIVAL_TOL = 1e-9
BOUNDARY_TOL = 1e-10  # largest edge density * width / norm boundary_density_ok accepts


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian momentum-space component of an incident packet.

    The wavenumber amplitude is a normalized Gaussian centered at
    m*mean_velocity/hbar with spread 1/(2*delta_x), carrying the quadratic
    spectral phase that makes the freely moving packet a minimal-
    uncertainty state centered at waist_position at waist_time.
    """

    mean_velocity: float          # m/s
    delta_x: float                # position-space width at the waist (m)
    waist_position: float = 0.0   # m
    waist_time: float = 0.0       # s
    weight: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not (self.mean_velocity > 0.0):
            raise NormDeficit("component mean velocity must be > 0")
        if not (self.delta_x > 0.0):
            raise NormDeficit("component delta_x must be > 0")


@dataclass(frozen=True, eq=False)
class PacketSpec:
    """Coherent superposition of Gaussian components (unit total norm)."""

    components: tuple[GaussianComponent, ...]
    mass: float
    constants: PhysicalConstants = CONSTANTS
    _norm: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not self.components:
            raise NormDeficit("packet needs at least one component")
        if not (self.mass > 0.0):
            raise NormDeficit("mass must be > 0")
        neg = 0.0
        for comp in self.components:
            kbar = self.mass * comp.mean_velocity / self.constants.hbar
            dk = 0.5 / comp.delta_x
            neg += abs(comp.weight) * math.sqrt(0.5 * math.erfc(kbar / (math.sqrt(2.0) * dk)))
        if neg * neg > 1e-12:
            raise NormDeficit(
                f"negative-momentum content bound {neg * neg:.2e} exceeds 1e-12"
            )
        gram = self._gram()
        w = np.array([c.weight for c in self.components])
        norm2 = float(np.real(w @ gram @ np.conj(w)))
        if norm2 <= 0.0:
            raise NormDeficit("packet norm vanished")
        object.__setattr__(self, "_norm", math.sqrt(norm2))

    def _gram(self) -> np.ndarray:
        """Closed-form overlaps of the raw component amplitudes.

        Written in wavenumbers centered on the pair mean so the quadratic
        exponents stay O((k_a - k_b)^2 / dk^2); the naive form cancels
        catastrophically at k/dk ~ 1e7.
        """
        hbar = self.constants.hbar
        n = len(self.components)
        gram = np.empty((n, n), dtype=complex)
        for i, ca in enumerate(self.components):
            for j, cb in enumerate(self.components):
                ka = self.mass * ca.mean_velocity / hbar
                kb = self.mass * cb.mean_velocity / hbar
                da = 0.5 / ca.delta_x
                db = 0.5 / cb.delta_x
                k_ref = 0.5 * (ka + kb)
                dka = k_ref - ka
                dkb = k_ref - kb
                dt = ca.waist_time - cb.waist_time
                dx = ca.waist_position - cb.waist_position
                a2 = (
                    -1.0 / (4.0 * da * da)
                    - 1.0 / (4.0 * db * db)
                    + 0.5j * hbar * dt / self.mass
                )
                a1 = (
                    -dka / (2.0 * da * da)
                    - dkb / (2.0 * db * db)
                    + 1j * hbar * dt * k_ref / self.mass
                    - 1j * dx
                )
                a0 = (
                    -dka * dka / (4.0 * da * da)
                    - dkb * dkb / (4.0 * db * db)
                    + 0.5j * hbar * dt * k_ref * k_ref / self.mass
                    - 1j * dx * k_ref
                )
                norm = (2.0 * math.pi * da * da) ** -0.25 * (2.0 * math.pi * db * db) ** -0.25
                gram[i, j] = norm * np.sqrt(np.pi / (-a2)) * np.exp(a0 - a1 * a1 / (4.0 * a2))
        return gram

    @property
    def normalized_weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components]) / self._norm


def _amplitude(spec: PacketSpec, origin: float, offsets: np.ndarray) -> np.ndarray:
    """Packet amplitude at wavenumbers origin + offsets (coherent sum, unit norm).

    The envelope argument k - kbar is formed as (origin - kbar) + offset;
    on a KGrid origin and kbar agree to parts per million, so the
    subtraction is exact, and the offsets are small by construction.
    """
    hbar = spec.constants.hbar
    k = origin + offsets
    out = np.zeros(k.shape, dtype=complex)
    for comp, w in zip(spec.components, spec.normalized_weights):
        kbar = spec.mass * comp.mean_velocity / hbar
        dk = 0.5 / comp.delta_x
        rel = (origin - kbar) + offsets
        envelope = (2.0 * math.pi * dk * dk) ** -0.25 * np.exp(-(rel * rel) / (4.0 * dk * dk))
        phase = np.exp(
            1j * hbar * k * k * comp.waist_time / (2.0 * spec.mass)
            - 1j * k * comp.waist_position
        )
        out += w * envelope * phase
    return out


def spectral_amplitude(spec: PacketSpec, k) -> np.ndarray:
    """Packet amplitude at any k; ``grid_amplitude`` is the exact-offset form on a KGrid."""
    return _amplitude(spec, 0.0, np.atleast_1d(np.asarray(k, dtype=float)))


def grid_amplitude(spec: PacketSpec, grid: KGrid) -> np.ndarray:
    """Packet amplitude on a KGrid with exact-offset envelope arguments."""
    return _amplitude(spec, grid.origin, grid.offsets)


@dataclass(frozen=True, eq=False)
class KGrid:
    """Positive-wavenumber quadrature grid covering the packet support.

    Nodes are carried as ``origin + offsets``: packet envelopes live some
    nine decades below the carrier wavenumber, so envelope arguments must
    be formed from the exact small offsets, never by subtracting two
    carrier-sized floats.
    """

    origin: float
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.nodes <= 0.0):
            raise NormDeficit("all quadrature nodes must be > 0")

    @property
    def nodes(self) -> np.ndarray:
        return self.origin + self.offsets

    def frequencies(self, mass: float, hbar: float) -> tuple[float, np.ndarray]:
        """(omega_ref, omega_rel): E_k / hbar = omega_ref + omega_rel, omega_rel of mean 0.

        k^2 - origin^2 = offsets (2 origin + offsets) keeps every frequency
        difference to rounding of itself.
        """
        excess = self.offsets * (2.0 * self.origin + self.offsets)
        rate = hbar / (2.0 * mass)
        return float(rate * (self.origin ** 2 + excess.mean())), rate * (excess - excess.mean())


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one solve per size."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def default_kgrid(spec: PacketSpec, n_nodes: int = 257) -> KGrid:
    """Gauss-Legendre panels over the union of component +-KGRID_SPAN*dk windows.

    The ten-sigma span keeps spectral truncation below 1e-10 at field
    level (eight sigma would already cost ~1e-7 in evolved amplitudes).
    Construction fails with NormDeficit when the grid captures less than
    1 - 1e-10 of the packet norm.
    """
    hbar = spec.constants.hbar
    intervals = []
    dk_min = math.inf
    for comp in spec.components:
        kbar = spec.mass * comp.mean_velocity / hbar
        dk = 0.5 / comp.delta_x
        dk_min = min(dk_min, dk)
        intervals.append((max(kbar - KGRID_SPAN * dk, 1e-12 * kbar), kbar + KGRID_SPAN * dk))
    intervals.sort()
    panels = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= panels[-1][1]:
            panels[-1][1] = max(panels[-1][1], hi)
        else:
            panels.append([lo, hi])
    total = sum(hi - lo for lo, hi in panels)
    # Node count floor: ~14 nodes per spectral width keeps the coverage
    # error of the narrowest component below the 1e-10 invariant.
    n_nodes = max(n_nodes, int(math.ceil(14.0 * total / dk_min)))
    origin = 0.5 * (panels[0][0] + panels[-1][1])
    offsets, weights = [], []
    for lo, hi in panels:
        n = max(32, int(round(n_nodes * (hi - lo) / total)))
        x, w = _gauss_legendre(n)
        center = 0.5 * (hi + lo) - origin
        offsets.append(0.5 * (hi - lo) * x + center)
        weights.append(0.5 * (hi - lo) * w)
    grid = KGrid(origin=origin, offsets=np.concatenate(offsets),
                 weights=np.concatenate(weights))
    coverage = float(np.sum(grid.weights * np.abs(grid_amplitude(spec, grid)) ** 2))
    if abs(coverage - 1.0) > 1e-10:
        raise NormDeficit(f"quadrature captures {coverage!r} of the packet norm")
    return grid


# --- overlap machinery ----------------------------------------------------

# Rows per tile of the half-lines' Cauchy groups, of the low-rank products
# and of the finishing.  With one stacked low-rank product per tile, the
# covering norms of the four arrival packets at nk = 641 built 4-5 % slower
# at 16 rows than at 32 and 3-4 % faster at 64 (9-10 of 12 paired runs
# each), about 0.4 ms; whole arrival operations at 64 were within their
# run-to-run spread of those at 32 (median ratios 0.95-1.00, 4-7 of 8
# pairs faster), so the tile stays at 32 rows.
OVERLAP_TILE = 32
# Largest spread rho = max|u| / min|d| of denominators d_j + u_i that the
# engine expands into separable factors (``_separable``), to n <= 8 orders:
# the pairs across the carrier.  About the centre of all forward waves of
# a region rho is 4e-7 ... 2e-4 on the benchmark's sharp packets (the
# plateau one, with k+ and k- 1.6e7 /m apart, the largest) and 7e-6 on the
# slices of the fig7 beam.
FAR_SPREAD = 1e-2
# Low-rank columns one output collects before a single product adds them
# (``_LowRank``).  The arrival packets collect 30-130, so one product per
# output; a 256-slice beam collects thousands, added 256 at a time.
LOW_RANK_COLUMNS = 256
# Largest |beta| of exp(i beta t), t in [-1, 1], that one Gauss-Legendre
# panel of an interior Gram integrates (84 nodes); a wider spread is cut
# into panels.
PANEL_SPREAD = 100.0
# Interior terms (regions) evaluated together: the 256 slices of a
# Gaussian beam in eight batches.
INTERIOR_BATCH = 32
# |u| = |alpha| width below which a Cauchy pair takes its form about x1
# (``_near_values``).  The quotient's numerator is a difference of endpoint
# products whose phases delta (x - anchor) round at eps times their size
# (130 rad on the ridge packet's covering window), so it is off by about
# that rounding over |u|: at a 1e-2 switch the covering norm at 641 nodes
# was 1.2e-12 (ridge) and 1.5e-12 (fig6) off a 30-digit sum, at 1 it is
# 2.3e-14 and 2.5e-14, the rounding of the phases themselves.
SERIES_SWITCH = 1.0
# Largest residual diagonal, relative to the largest diagonal, at which the
# pivoted Cholesky of a Gram stops (``_pivoted_cholesky``): 64 units of
# rounding.  At one unit it would not stop, since the updated diagonal
# itself rounds at a few units.
FACTOR_LEVEL = 64 * 2.0 ** -53


@dataclass
class _PairTerm:
    """One ordered (mu, nu) pair of one half-line Gram term, in the orientation of its group.

    The pair's block is left @ right / (i alpha) with alpha the group's
    denominator: ``left`` carries the term's weight, its endpoint signs,
    the pair's carrier phase at each endpoint and ``sign``, the factor
    between the pair's own alpha and the group's.  ``ends`` holds the
    weighted value of the left mode (with the carrier phase) and the
    conjugated value of the right mode at x1 (None on a half-line to
    -inf), for the form about x1.
    """

    left: np.ndarray    # (nk, m)
    right: np.ndarray   # (m, nk)
    ends: tuple | None
    sign: float
    width: float
    bound: float


@dataclass
class _PairGroup:
    """Pair terms that share the denominator i (kappa_a - conj(kappa_b)).

    ``i_kappa_a`` - ``i_kappa_b`` is that denominator with the carriers of
    the two waves taken out first (exact for two waves of one direction).
    ``left`` and ``right`` hold the factors of ``terms`` side by side, so
    that left @ right is the group's summed numerator.  ``near`` is
    (rows, cols, values): the elements of the upper row tiles nearer
    resonance than the widest series switch of the terms, rows in order,
    and their values (``_near_set``).
    """

    i_kappa_a: np.ndarray
    i_kappa_b: np.ndarray
    left: np.ndarray    # (nk, m)
    right: np.ndarray   # (m, nk)
    terms: list
    near: tuple


def _pair_groups(k0: float, terms) -> list[_PairGroup]:
    """The ordered pair terms of the half-lines' Gram terms, grouped by denominator.

    A term (modes, x1, x2, scale) stands for scale times the Gram of the
    channel ``modes`` (plane waves) over [x1, x2].  Every ordered pair (mu,
    nu) enters at full weight, so the summed blocks are the Hermitian Gram.
    Modes are keyed by the values of (sign, delta); a pair (-kappa_mu,
    -kappa_nu) has the denominator of (kappa_mu, kappa_nu) with its sign
    flipped, which its left factor takes.
    """
    distinct: list = []

    def key_of(sign, delta):
        for i, (s, d) in enumerate(distinct):
            if s == sign and (delta is d or np.array_equal(delta, d)):
                return i, 1
            if s == -sign and np.array_equal(delta, -d):
                return i, -1
        distinct.append((sign, delta))
        return len(distinct) - 1, 1

    grouped: dict = {}
    for modes, x1, x2, scale in terms:
        width = x2 - x1
        bound = SERIES_SWITCH / width  # 0 on a half-line: no form about x1 there
        points = [(x, s) for x, s in ((x2, 1.0), (x1, -1.0)) if not math.isinf(x)]
        signs = np.array([s for _, s in points])[:, None]
        xs = np.array([x for x, _ in points])
        # carrier-free values coef exp(i delta (x - anchor)) at the finite ends
        values = [coef * np.exp(1j * np.multiply.outer(xs - anchor, delta))
                  for coef, _, delta, anchor, _ in modes]
        keys = [key_of(mode[1], mode[2]) for mode in modes]
        for mu, (_, s_mu, _, a_mu, _) in enumerate(modes):
            for nu, (_, s_nu, _, a_nu, _) in enumerate(modes):
                (i, s), (j, t) = keys[mu], keys[nu]
                key, sign = min(((i, s, j, t), 1.0), ((i, -s, j, -t), -1.0))
                # the pair's carrier at the ends: exactly 1 for one direction and anchor
                phases = np.exp(1j * k0 * (s_mu * (xs - a_mu) - s_nu * (xs - a_nu)))
                left = ((scale * sign) * signs * phases[:, None] * values[mu]).T
                ends = None if math.isinf(x1) else (
                    scale * phases[-1] * values[mu][-1], np.conj(values[nu][-1]))
                grouped.setdefault(key, []).append(_PairTerm(
                    left, np.conj(values[nu]), ends, sign, width, bound))
    groups = []
    for (i, s, j, t), ts in grouped.items():
        (s_a, d_a), (s_b, d_b) = distinct[i], distinct[j]
        gap = (s * s_a - t * s_b) * k0   # 0 or +-2 k0
        i_kappa_a = 1j * (gap + s * d_a)
        i_kappa_b = 1j * (t * np.conj(d_b))
        groups.append(_PairGroup(
            i_kappa_a, i_kappa_b, np.concatenate([term.left for term in ts], axis=1),
            np.concatenate([term.right for term in ts]), ts, _near_set(i_kappa_a, i_kappa_b, ts)))
    return groups


def _near_set(i_kappa_a: np.ndarray, i_kappa_b: np.ndarray, terms) -> tuple:
    """(rows, cols, values) of a group's elements nearer resonance than its widest switch.

    The elements are those of the upper row tiles, the ones a tile pass
    evaluates (column at least the first row of the row's OVERLAP_TILE
    tile), with |i_kappa_a[i] - i_kappa_b[j]| < bound, the largest series
    switch of the terms (0 on a half-line to -inf or +inf, so none).  The
    candidates of row i are the i_kappa_b, sorted by imaginary part, within
    twice the bound of i_kappa_a[i] in it, so that rounding of the window
    ends drops none; the rows come out in order.  ``values`` sums the
    terms there (``_near_values``).
    """
    bound = max(term.bound for term in terms)
    order = np.argsort(i_kappa_b.imag, kind="stable")
    lo, hi = (np.searchsorted(i_kappa_b.imag[order], i_kappa_a.imag + reach)
              for reach in (-2.0 * bound, 2.0 * bound))
    counts = hi - lo
    rows = np.repeat(np.arange(counts.size), counts)
    cols = order[np.arange(rows.size) + np.repeat(lo + counts - np.cumsum(counts), counts)]
    upper = cols >= rows - rows % OVERLAP_TILE
    rows, cols = rows[upper], cols[upper]
    i_alpha = i_kappa_a[rows] - i_kappa_b[cols]
    near = np.abs(i_alpha) < bound
    rows, cols, i_alpha = rows[near], cols[near], i_alpha[near]
    return rows, cols, sum(_near_values(term, rows, cols, i_alpha) for term in terms)


def _near_values(term: _PairTerm, rows, cols, i_alpha) -> np.ndarray:
    """One term at near-resonant elements: the form about x1 or the quotient at its own width.

    Where |alpha| width < SERIES_SWITCH the difference quotient cancels,
    and the pair integral about x1, width f_mu(x1) conj(f_nu(x1)) (exp(u) -
    1)/u with u = i alpha width, replaces it; (exp(u) - 1)/u is taken as
    expm1(u)/u, 1 at u = 0 (within 5 ulps of a 40-digit value at |u| <= 1).
    """
    small = np.abs(i_alpha) < term.bound   # none on a half-line (bound 0)
    value = np.empty_like(i_alpha)
    far = ~small
    value[far] = np.einsum("im,mi->i", term.left[rows[far]],
                           term.right[:, cols[far]]) / i_alpha[far]
    if small.any():
        u = term.sign * i_alpha[small] * term.width
        ratio = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u != 0.0)
        value[small] = term.ends[0][rows[small]] * term.ends[1][cols[small]] * (term.width * ratio)
    return value


def _spread(a: np.ndarray, b: np.ndarray):
    """(rho, u, d) of 1/(a_i - b_j) = 1/(d_j + u_i) about the centre a_ref of the a.

    a_ref is the centre of the box the a span in the complex plane, u = a -
    a_ref and d = a_ref - b, and rho = max|u| / min|d|.  Leading axes of
    ``a`` and ``b`` are separate sets: the centre and rho are per set,
    over the last axis.
    """
    a_ref = 0.5 * (a.real.min(axis=-1) + a.real.max(axis=-1)) + 0.5j * (
        a.imag.min(axis=-1) + a.imag.max(axis=-1))
    u = a - a_ref[..., None]
    d = a_ref[..., None] - b
    with np.errstate(divide="ignore"):
        return np.abs(u).max(axis=-1) / np.abs(d).min(axis=-1), u, d


def _separable(a: np.ndarray, b: np.ndarray, min_order: int = 1):
    """Powers and inverses of 1/(a_i - b_j) as a short separable sum, or None.

    With u and d of ``_spread``, 1/(a_i - b_j) = 1/(d_j + u_i) =
    sum_{q<n} (-u_i)^q / d_j^(q+1) up to a relative rho^n (Beckermann &
    Townsend, SIAM J. Matrix Anal. Appl. 38, 1227 (2017)).  Where rho <=
    FAR_SPREAD in every set (pairs whose denominator crosses the carrier,
    about 2 i k0), n is the first order with rho^n <= 2^-53, at least
    ``min_order``, and the result is the powers (-u)^q and the inverses
    1/d^(q+1), the order first.
    """
    rho, u, d = _spread(a, b)
    rho = float(np.max(rho))
    if not rho <= FAR_SPREAD:
        return None
    n = max(min_order, 1 if rho == 0.0 else math.ceil(53.0 / -math.log2(rho)))
    powers = np.empty((n,) + u.shape, dtype=complex)
    inverses = np.empty((n,) + d.shape, dtype=complex)
    powers[0] = 1.0
    inverses[0] = 1.0 / d
    for q in range(1, n):
        np.multiply(powers[q - 1], -u, out=powers[q])
        np.multiply(inverses[q - 1], inverses[0], out=inverses[q])
    return powers, inverses


class _LowRank:
    """Hermitian low-rank contributions to an (nk, nk) matrix, waiting for a tile pass.

    A contribution is H = sum_c left_c right_c^T with H Hermitian, given as
    the (m, nk) rows ``left`` and ``right``; the rows are kept, not copied.
    Once LOW_RANK_COLUMNS columns are pending, a tile pass (``_tile_pass``)
    adds them to ``matrix``, allocated then; the rest wait for the pass that
    finishes it, or for the factorisation that reads them (``_compress``).
    Both read the pending rows as one stacked pair (``stacked``).
    """

    def __init__(self, nk: int):
        self.nk = nk
        self.matrix = None
        self.pending = []
        self.columns = 0

    def add(self, left: np.ndarray, right: np.ndarray) -> None:
        self.pending.append((left, right))
        self.columns += left.shape[0]
        if self.columns >= LOW_RANK_COLUMNS:
            _tile_pass(self)

    def add_far(self, left: np.ndarray, right: np.ndarray) -> None:
        """Add F + F^H for F = sum_c left_c right_c^T."""
        self.add(left, right)
        self.add(right.conj(), left.conj())

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The pending rows as one (m, nk) pair, empty parts dropped; it replaces them."""
        parts = [part for part in self.pending if part[0].shape[0]]
        if len(parts) != 1:
            empty = np.empty((0, self.nk), dtype=complex)
            parts = [tuple(np.concatenate([part[side] for part in parts] or [empty])
                           for side in (0, 1))]
        self.pending = parts
        return parts[0]


def _tile_pass(low_rank: _LowRank, cauchy=(), finish: bool = False, addends=()) -> np.ndarray:
    """Add the pending parts to the low-rank buffer's matrix by OVERLAP_TILE row tiles.

    Per row tile the matrix takes its parts from the tile's first row on,
    each at full weight: the pending low-rank rows, stacked into one pair
    (``_LowRank.stacked``), as one product, and for each Cauchy group of
    ``cauchy`` (``_PairGroup``) its numerator left @ right over its
    denominator, with the tile's slice of the group's near-resonant
    elements (``_PairGroup.near``) put in their place.  A fresh matrix is
    not zeroed: its first pass assigns the upper tiles, later passes add
    to them, and only the finishing writes below them.

    With ``finish`` the pass also finishes each tile while it is in cache:
    half the diagonal block plus its conjugate transpose (each part's
    diagonal block is in it once), plus sign times each (matrix, sign) of
    ``addends`` (finished matrices), and the conjugate transpose of the
    tile beyond its diagonal block written below it, in place.  So the
    matrix, which the pass returns, comes out exactly Hermitian with a real
    diagonal, and no (nk, nk) temporary.
    """
    nk = low_rank.nk
    left, right = low_rank.stacked()
    low_rank.pending = []
    low_rank.columns = 0
    fresh = low_rank.matrix is None
    if fresh:
        low_rank.matrix = np.empty((nk, nk), dtype=complex)
    matrix = low_rank.matrix
    starts = range(0, nk, OVERLAP_TILE)
    # each group's near elements, rows in order, cut at the row tiles
    cuts = [np.searchsorted(group.near[0], [*starts, nk]) for group in cauchy]
    buffers = np.empty((2, OVERLAP_TILE * nk), dtype=complex)
    # an exact resonance (alpha = 0) divides by zero before its value is put in
    with np.errstate(divide="ignore", invalid="ignore"):
        for tile, start in enumerate(starts):
            rows = slice(start, start + OVERLAP_TILE)
            n = min(OVERLAP_TILE, nk - start)
            product, ia = (buffer[:n * (nk - start)].reshape(n, -1) for buffer in buffers)
            upper = matrix[rows, start:]
            # the first part of a fresh tile is written into it, every other one added
            first = fresh
            if left.shape[0]:
                np.matmul(left[:, rows].T, right[:, start:], out=upper if first else product)
                if not first:
                    upper += product
                first = False
            for group, cut in zip(cauchy, cuts):
                into = upper if first else product
                np.matmul(group.left[rows], group.right[:, start:], out=into)
                np.subtract(group.i_kappa_a[rows, None], group.i_kappa_b[start:], out=ia)
                np.divide(into, ia, out=into)
                r, c, values = (part[cut[tile]:cut[tile + 1]] for part in group.near)
                into[r - start, c - start] = values
                if not first:
                    upper += product
                first = False
            if first:
                upper[...] = 0.0
            if finish:
                diagonal = upper[:, :n]
                diagonal += diagonal.conj().T
                diagonal *= 0.5
                for addend, sign in addends:
                    if sign > 0.0:
                        upper += addend[rows, start:]
                    else:
                        upper -= addend[rows, start:]
                np.conjugate(upper[:, n:].T, out=matrix[start + n:, rows])
    return matrix


def _gl_nodes(spread: float) -> int:
    """Gauss-Legendre nodes that integrate every exp(i beta t), |beta| <= spread, on [-1, 1].

    The n-node rule's error is f^(2n)(xi) 2^(2n+1) (n!)^4 / ((2n + 1)
    ((2n)!)^3); with |f^(2n)| <= spread^2n max|f| that is at most 2^-53
    of 2 max|f| at the returned n.
    """
    n = 1
    if spread > 0.0:
        log_spread = math.log(spread)
        while (2 * n * math.log(2.0) + 4 * math.lgamma(n + 1) + 2 * n * log_spread
               - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)) > -53.0 * math.log(2.0):
            n += 1
    return n


def _same_waves(terms, others) -> bool:
    """True if ``others`` hold the waves of ``terms``, term by term: coefficients aside, equal.

    Equal waves: each term's ends and scale, and each mode's sign, offset
    delta, anchor and gap (None for a plane wave).
    """
    def same(a, b):
        return a is b or (a is not None and b is not None and np.array_equal(a, b))

    return len(terms) == len(others) and all(
        term[1:] == other[1:] and len(term[0]) == len(other[0]) and all(
            mode[1] == twin[1] and mode[3] == twin[3] and same(mode[2], twin[2])
            and same(mode[4], twin[4]) for mode, twin in zip(term[0], other[0]))
        for term, other in zip(terms, others))


def _interior_products(k0: float, channels) -> None:
    """Add the Grams of interior terms to their low-rank buffers.

    ``channels`` holds (terms, low_rank) pairs.  A term (modes, x1, x2,
    scale) has finite ends.  With the carrier taken out, the field G(x) of
    each direction's modes (``Region``) is smooth, and its Gram is exactly
    G W G^H at the nodes and weights of a Gauss-Legendre rule
    (``_gauss_products``).  The products of the two directions carry the
    carrier twice, exp(2 i k0 x): their pair integrals [f_mu
    conj(f_nu)]_x1^x2 / (i alpha) have alpha about 2 k0 and become short
    separable sums (``_crossing``) about the centre of the forward waves.
    Where that does not separate (slow atoms, whose k+ and k- differ by
    much; near a closed channel, Re k+- -> 0), the channel is one field,
    the carrier included, under a wider rule.  Up to INTERIOR_BATCH terms
    with the same mode kinds and treatment are evaluated together, as
    (terms, nk, nodes) arrays.

    The two channels of a beam's region hold the same waves with other
    coefficients.  Where every channel's terms have the waves of the
    first's (``_same_waves``), the waves are evaluated once and combined
    with each channel's coefficients, and each buffer takes its rows in the
    order a pass over its own terms gives them; otherwise each channel is
    such a pass.
    """
    terms = channels[0][0]
    if not all(_same_waves(terms, others) for others, _ in channels[1:]):
        for channel in channels:
            _interior_products(k0, [channel])
        return
    low_ranks = [low_rank for _, low_rank in channels]
    buckets: dict = {}
    for index, term in enumerate(terms):
        kinds = tuple((mode[1], mode[4] is not None) for mode in term[0])
        buckets.setdefault(kinds, []).append(index)
    # a few dozen terms per batch bound the (terms, modes, nk) stacks
    batches = [(kinds, indices[start:start + INTERIOR_BATCH])
               for kinds, indices in buckets.items()
               for start in range(0, len(indices), INTERIOR_BATCH)]
    for kinds, batch in batches:
        signs, newton = (np.array(column) for column in zip(*kinds))
        # (channels, terms, modes, nk): one (terms, modes, nk) block per channel
        coef = np.array([[[mode[0] for mode in channel[i][0]] for i in batch]
                         for channel, _ in channels])
        modes_of = [terms[i][0] for i in batch]
        delta = np.array([[mode[2] for mode in modes] for modes in modes_of])
        gap = np.array([[0 * m[2] if m[4] is None else m[4] for m in modes] for modes in modes_of])
        anchor = np.array([[mode[3] for mode in modes] for modes in modes_of])
        x1, x2, scale = (np.array([terms[i][j] for i in batch], dtype=float) for j in (1, 2, 3))
        fwd, bwd = np.flatnonzero(signs > 0.0), np.flatnonzero(signs < 0.0)
        separable = np.ones(len(batch), dtype=bool)   # one direction: nothing crosses the carrier
        if fwd.size and bwd.size:   # both waves of a Newton pair, kappa and kappa - gap
            a, b = (np.concatenate([delta[:, m], delta[:, m] - gap[:, m]], 1) for m in (fwd, bwd))
            separable = _spread(1j * (k0 + a).reshape(len(batch), -1),
                                1j * (-k0 + np.conj(b)).reshape(len(batch), -1))[0] <= FAR_SPREAD
        for one_field in (False, True):
            chosen = ~separable if one_field else separable
            if not chosen.any():
                continue
            chosen_coef = coef[:, chosen]
            args = (delta[chosen], gap[chosen], anchor[chosen], x1[chosen], x2[chosen],
                    scale[chosen])
            if one_field:   # the carrier included
                _gauss_products(k0, signs, newton, chosen_coef, *args, low_ranks)
                continue
            if fwd.size and bwd.size:
                # 16 terms give at most 256 rows at the usual 2-4 orders
                for start in range(0, int(chosen.sum()), 16):
                    part = slice(start, start + 16)
                    _crossing(k0, fwd, bwd, newton, chosen_coef[:, part],
                              *(arg[part] for arg in args), low_ranks)
            for members in (fwd, bwd):
                if members.size:
                    _gauss_products(k0, signs[members], newton[members],
                                    chosen_coef[:, :, members],
                                    *(arg[:, members] for arg in args[:3]), *args[3:], low_ranks)


def _gauss_products(k0, signs, newton, coef, delta, gap, anchor, x1, x2, scale, low_ranks) -> None:
    """G W G^H of the fields of each term (``Region`` modes), by Gauss-Legendre.

    ``coef``: (C, T, M, nk), one (T, M, nk) block per buffer of
    ``low_ranks``; ``delta``, ``gap``: (T, M, nk), ``gap`` 0 for a plane
    wave; ``anchor``: (T, M); ``x1``, ``x2``, ``scale``: (T,); ``newton``:
    (M,).  Each wave is taken relative to the carrier of the first mode,
    sign_0 k0 (x - anchor_0), which cancels in G G^H.  The rule follows
    from the spread s of kappa_m - sign_0 k0 over the width, both waves of
    a Newton mode included (``_gl_nodes``), with one node more for a Newton
    mode: y times waves, its products' 2n-th derivatives on a panel mapped
    to [-1, 1] exceed s^2n by at most 2n s^(2n-1) + n^2 s^(2n-2), which the
    remainder of one more node absorbs.  It is cut into panels of at most
    PANEL_SPREAD.  The nodes of all terms with one rule are evaluated
    LOW_RANK_COLUMNS at a time, a plane wave at a Newton mode's kappa and
    anchor from that mode's larger wave, and each wave once for every
    block of coefficients.
    """
    lower = delta - gap
    partners = {m: p for m in np.flatnonzero(newton) for p in np.flatnonzero(~newton)
                if signs[p] == signs[m] and np.array_equal(anchor[:, p], anchor[:, m])
                and np.array_equal(delta[:, p], delta[:, m])}
    shift = (signs - signs[0])[None, :, None] * k0
    effective = np.concatenate([shift + delta, shift + lower], axis=1)
    re = effective.real.reshape(len(x1), -1)
    spread = 0.5 * (x2 - x1) * np.hypot(re.max(axis=1) - re.min(axis=1),
                                        2.0 * np.abs(effective.imag).reshape(len(x1), -1).max(axis=1))
    panels = np.maximum(1, np.ceil(spread / PANEL_SPREAD)).astype(int)
    nodes = np.array([_gl_nodes(s / p) + int(newton.any()) for s, p in zip(spread, panels)])
    for n_panels, n_nodes in set(zip(panels.tolist(), nodes.tolist())):
        chosen = np.flatnonzero((panels == n_panels) & (nodes == n_nodes))
        t_unit, w_unit = _gauss_legendre(n_nodes)
        # the composite rule on [-1, 1]: panel p is centred at (2p + 1 - P) / P
        t = (((2.0 * np.arange(n_panels) + 1.0 - n_panels)[:, None] + t_unit) / n_panels).ravel()
        half = 0.5 * (x2[chosen] - x1[chosen])
        x = (x1[chosen] + half)[:, None] + half[:, None] * t
        weight = (half * scale[chosen])[:, None] * np.tile(w_unit / n_panels, n_panels)
        term = np.repeat(chosen, t.size)
        x, weight = x.ravel(), weight.ravel()
        for start in range(0, x.size, LOW_RANK_COLUMNS):
            cols = slice(start, start + LOW_RANK_COLUMNS)
            t_m = term[cols]
            y = x[cols, None] - anchor[t_m]                                # (C, M)
            carrier = np.exp(1j * k0 * (signs * y - signs[0] * y[:, :1]))
            fields = [0j] * len(low_ranks)
            for m in range(signs.size):                                    # (C, nk)
                if m in partners.values():
                    continue
                plane = None
                if newton[m]:
                    wave, plus_big, e_big, expm1 = kernels.newton_mode(
                        carrier[:, m, None], delta[t_m, m], lower[t_m, m], gap[t_m, m],
                        y[:, m, None])
                    if m in partners:   # its plane wave E+, the larger wave or E_big exp(z)
                        plane = np.where(plus_big, e_big, e_big * (1.0 + expm1))
                else:
                    wave = np.exp(1j * delta[t_m, m] * y[:, m, None])
                    wave *= carrier[:, m, None]
                for c, block in enumerate(coef):
                    if plane is not None:
                        fields[c] = fields[c] + block[t_m, partners[m]] * plane
                    # the wave times its coefficients as wave *= coef formed it:
                    # numpy forms a product with a large fresh temporary of the
                    # same shape on the right in that temporary, operands
                    # swapped, and the complex product is not symmetric in its
                    # last bit
                    fields[c] = fields[c] + np.multiply(wave, block[t_m, m])
            for field, low_rank in zip(fields, low_ranks):
                low_rank.add(field * weight[cols, None], field.conj())


def _crossing(k0, fwd, bwd, newton, coef, delta, gap, anchor, x1, x2, scale, low_ranks) -> None:
    """Products of the forward and backward modes of each term, as separable factors.

    For forward waves (k0 + delta_a, modes ``fwd``) anchored at A and
    backward waves (-k0 + delta_b, modes ``bwd``) anchored at B, the pair
    integrals add up to sum over the ends x (+ at x2, - at x1) of
    exp(i k0 ((x - A) + (x - B))) sum_q L_q(x) R_q(x)^T, with L_q = sum_a
    f_a(x) (-u_a)^q and R_q = sum_b conj(f_b(x)) / d_b^(q+1) about the
    centre of the forward waves (``_separable``, two orders at least); the
    backward-forward products are their conjugate transpose.  A Newton
    mode's factors are divided differences over its pair, by Leibniz's
    rule: with (-u)[+,-] = -i, L_q = -i f+ (-u+)^(q-1) + L_(q-1) (-u-)
    from L_0 = N; with (1/d)[+,-] = i / (d+ d-), R_q = i conj(f+) /
    (d+^(q+1) d-) + R_(q-1) / d- from R_-1 = conj(N).  No division by the
    gap.  ``coef`` holds one (terms, modes, nk) block per buffer of
    ``low_ranks``; the waves and the factors are formed once for all.
    """
    n_terms, nk = x1.size, coef.shape[3]
    lower = delta - gap
    fwd_n, bwd_n = newton[fwd], newton[bwd]
    a = np.concatenate([delta[:, fwd], lower[:, fwd[fwd_n]]], axis=1)
    b = np.concatenate([delta[:, bwd], lower[:, bwd[bwd_n]]], axis=1)
    powers, inverses = _separable(1j * (k0 + a).reshape(n_terms, -1),
                                  1j * (-k0 + np.conj(b)).reshape(n_terms, -1), min_order=2)
    powers = powers.reshape(powers.shape[:2] + (-1, nk))
    inverses = inverses.reshape(inverses.shape[:2] + (-1, nk))
    # the factors at kappa- of the Newton pairs: -u- and 1/d-
    minus_u, inv_d = powers[1, :, fwd.size:], inverses[0, :, bwd.size:]
    powers, inverses = powers[:, :, :fwd.size], inverses[:, :, :bwd.size]
    # waves of one direction relative to its first anchor (exactly 1 where they share it)
    ref_a, ref_b = anchor[:, fwd[:1]], anchor[:, bwd[:1]]
    shift_a = np.exp(1j * k0 * (ref_a - anchor[:, fwd]))[:, :, None]
    shift_b = np.exp(-1j * k0 * (ref_b - anchor[:, bwd]))[:, :, None]
    # both ends at once, (2, terms, modes, nk): x2 (+) and x1 (-)
    ends = np.stack([x2, x1])
    y_a = (ends[:, :, None] - anchor[:, fwd])[..., None]
    y_b = (ends[:, :, None] - anchor[:, bwd])[..., None]
    e_a = np.exp(1j * delta[:, fwd] * y_a)
    e_b = np.exp(1j * delta[:, bwd] * y_b)
    n_a = kernels.newton_mode(
        1.0, delta[:, fwd[fwd_n]], lower[:, fwd[fwd_n]], gap[:, fwd[fwd_n]], y_a[:, :, fwd_n])[0]
    n_b = kernels.newton_mode(
        1.0, delta[:, bwd[bwd_n]], lower[:, bwd[bwd_n]], gap[:, bwd[bwd_n]], y_b[:, :, bwd_n])[0]
    phases = [end_sign * scale * np.exp(1j * k0 * ((x - ref_a[:, 0]) + (x - ref_b[:, 0])))
              for x, end_sign in zip(ends, (1.0, -1.0))]
    for block, low_rank in zip(coef, low_ranks):
        coef_a = shift_a * block[:, fwd]
        coef_b = shift_b * block[:, bwd]
        f_as = coef_a * e_a
        f_bs = np.conj(coef_b * e_b)
        l_ns = coef_a[:, fwd_n] * n_a
        r_ns = np.conj(coef_b[:, bwd_n] * n_b)
        left, right = [], []
        for phase, f_a, f_b, l_n, r_n in zip(phases, f_as, f_bs, l_ns, r_ns):
            for q in range(powers.shape[0]):
                if q:
                    l_n = -1j * f_a[:, fwd_n] * powers[q - 1][:, fwd_n] + l_n * minus_u
                r_n = 1j * f_b[:, bwd_n] * inverses[q][:, bwd_n] * inv_d + r_n * inv_d
                left.append(phase[:, None] * (
                    np.einsum("tmi,tmi->ti", f_a[:, ~fwd_n], powers[q][:, ~fwd_n])
                    + l_n.sum(axis=1)))
                right.append(np.einsum("tmi,tmi->ti", f_b[:, ~bwd_n], inverses[q][:, ~bwd_n])
                             + r_n.sum(axis=1))
        low_rank.add_far(np.concatenate(left), np.concatenate(right))


def _collect(k0: float, nk: int, half_lines, interiors):
    """The parts of the Hermitian sum of region Grams: a low-rank buffer and Cauchy groups.

    A term (modes, x1, x2, scale) stands for scale times integral_x1^x2 psi
    psi^H dx of the channel psi = sum of modes (waves sign * k0 + delta,
    ``Region``).

    ``interiors`` are terms over finite regions (the beam, its slices):
    Gauss-Legendre products of the carrier-free fields and separable
    factors for the products across the carrier (``_interior_products``),
    all of them low-rank Hermitian products that wait in the buffer
    (``_LowRank``).  ``interiors`` may also be that buffer itself, already
    holding their products from a pass shared with another matrix's terms.

    ``half_lines`` are the terms of the two half-lines, which
    ``ConditionalPropagator._overlap_terms`` passes together so that their
    (k, k) and (q, q) denominators are shared.  Each pair of modes
    integrates in closed form to [f_mu(x) f_nu(x)^H]_x1^x2 / (i alpha) with
    alpha = kappa_mu - conj(kappa_nu); an infinite endpoint contributes
    nothing, since the pair exponent decays there (the excited channel with
    gamma > 0).  The pairs are grouped by alpha (``_pair_groups``).  The
    group across the carrier, (k, -k), becomes separable factors in the
    low-rank buffer; the others are the returned Cauchy groups.
    """
    low_rank = interiors
    if not isinstance(low_rank, _LowRank):
        low_rank = _LowRank(nk)
        _interior_products(k0, [(interiors, low_rank)])
    cauchy = []
    for group in _pair_groups(k0, half_lines):
        factors = None if group.near[0].size else _separable(group.i_kappa_a, group.i_kappa_b)
        if factors is None:
            cauchy.append(group)
            continue
        powers, inverses = factors
        low_rank.add((powers[:, :, None] * group.left[None]).transpose(0, 2, 1).reshape(-1, nk),
                     (group.right[None] * inverses[:, None, :]).reshape(-1, nk))
    return low_rank, cauchy


def _compress(k0: float, nk: int, half_lines, interiors, scale: float = 0.0) -> np.ndarray:
    """The Gram of the terms as the rows F of a factor, F^T conj(F), or as itself.

    The terms (``_collect``) must sum to a positive semidefinite Gram, and
    their half-line terms must each run to -inf or +inf, so that no Cauchy
    group needs the form about x1.  A pivoted Cholesky (``_pivoted_cholesky``)
    reads the Gram's diagonal and the columns it pivots on from the parts:
    the pending low-rank products and the Cauchy groups in closed form or,
    where the buffer overflowed LOW_RANK_COLUMNS (sliced beams), the matrix
    its tile passes accumulated.  F, (r, nk), is returned while r is at
    most nk // 2 and at most the parts' own row count (low-rank rows and
    Cauchy numerator columns): beyond either, its time forms or its rows in
    a norm would cost more than the (nk, nk) matrix, which is then returned
    instead, finished by a tile pass of the same parts.  ``scale`` is a
    diagonal the factor's rounding level may be taken from instead
    (``_pivoted_cholesky``).
    """
    low_rank, cauchy = _collect(k0, nk, half_lines, interiors)
    if low_rank.matrix is not None:
        dense = _tile_pass(low_rank, cauchy, finish=True)
        factor = _pivoted_cholesky(dense.diagonal().real, lambda p: dense[:, p], nk // 2, scale)
        return dense if factor is None else factor
    left, right = low_rank.stacked()
    diagonal = np.einsum("ci,ci->i", left, right)
    for group in cauchy:
        diagonal += np.einsum("im,mi->i", group.left, group.right) / (
            group.i_kappa_a - group.i_kappa_b)

    def column(p):
        out = right[:, p] @ left
        for group in cauchy:
            out += (group.left @ group.right[:, p]) / (group.i_kappa_a - group.i_kappa_b[p])
        return out

    rows = left.shape[0] + sum(group.left.shape[1] for group in cauchy)
    factor = _pivoted_cholesky(diagonal.real, column, min(rows, nk // 2), scale)
    return _tile_pass(low_rank, cauchy, finish=True) if factor is None else factor


def _pivoted_cholesky(diagonal: np.ndarray, column, limit: int, scale: float = 0.0):
    """Rows F of a pivoted Cholesky factor, F^T conj(F) ~ the Hermitian PSD matrix A.

    ``diagonal`` is A's real diagonal and ``column(p)`` returns A[:, p].
    Each step pivots on the largest residual diagonal d_p and takes the row
    (A[:, p] - F^T conj(F[:, p])) / sqrt(d_p); it stops once every residual
    diagonal is at most FACTOR_LEVEL times the larger of A's largest
    diagonal and ``scale``, which bounds every residual element (Harbrecht,
    Peters & Schneider, Appl. Numer. Math. 62, 428 (2012)).
    None if that takes more than ``limit`` rows.
    """
    nk = diagonal.size
    level = FACTOR_LEVEL * max(scale, diagonal.max(initial=0.0))
    residual = diagonal.copy()
    rows = np.empty((limit, nk), dtype=complex)
    for rank in range(limit + 1):
        p = int(np.argmax(residual))
        if not residual[p] > level:
            return rows[:rank].copy()
        if rank == limit:
            return None
        row = rows[rank]
        np.subtract(column(p), rows[:rank, p].conj() @ rows[:rank], out=row)
        row *= 1.0 / math.sqrt(row[p].real)
        residual -= row.real ** 2 + row.imag ** 2


def _is_factor(gram: np.ndarray) -> bool:
    """True for the rows F of a factor from ``_compress``, False for an (nk, nk) matrix."""
    return gram.shape[0] < gram.shape[1]


def _diagonal(gram: np.ndarray) -> np.ndarray:
    """The real diagonal of a Gram from ``_compress``."""
    return (gram.real ** 2 + gram.imag ** 2).sum(axis=0) if _is_factor(gram) else (
        gram.diagonal().real)


def _overlap_sums(k0: float, nk: int, half_lines, interiors, grams=()) -> np.ndarray:
    """The Hermitian sum of region Grams, plus sign times each (gram, sign) of ``grams``.

    The terms are those of ``_collect``; a gram is one of ``_compress``.  A
    half-line term that runs to -inf or +inf is compressed too (those of
    each sign together) to the rounding level of the largest diagonal of
    ``grams``, which these tails join.  A factor enters as low-rank rows, a
    matrix as an addend; what is left of the half-lines, finite clips of
    them, are Cauchy groups, evaluated with the low-rank remainder in the
    one pass over row tiles (``_tile_pass``) that finishes the (nk, nk)
    matrix.  It comes out exactly Hermitian.
    """
    clips, tails = [], []
    for term in half_lines:
        (clips if math.isfinite(term[1]) and math.isfinite(term[2]) else tails).append(term)
    grams = list(grams)
    level = max([_diagonal(gram).max(initial=0.0) for gram, sign in grams if sign > 0.0],
                default=0.0)
    for sign in (1.0, -1.0):
        terms = [(modes, x1, x2, sign * scale) for modes, x1, x2, scale in tails
                 if sign * scale > 0.0]
        if terms:
            grams.append((_compress(k0, nk, terms, (), level), sign))
    low_rank, cauchy = _collect(k0, nk, clips, interiors)
    for gram, sign in grams:
        if _is_factor(gram):
            low_rank.add(sign * gram, gram.conj())
    addends = [(gram, sign) for gram, sign in grams if not _is_factor(gram)]
    return _tile_pass(low_rank, cauchy, finish=True, addends=addends)


def _region_gram(modes, x1: float, x2: float, region: Region) -> np.ndarray:
    """integral_x1^x2 psi psi^H dx of the channel psi = sum of modes, (nk, nk).

    [x1, x2] lies in ``region``, whose carrier the modes take.  The
    one-term call of ``_overlap_sums``, routed as the propagator routes the
    region: a half-line term for any part of a region with an infinite end,
    an interior term otherwise; exactly Hermitian.
    """
    term = [(modes, x1, x2, 1.0)]
    half_line = math.isinf(region.x1) or math.isinf(region.x2)
    return _overlap_sums(region.carrier, modes[0][0].shape[0],
                         *((term, ()) if half_line else ((), term)))


def _norm_window(x_min: float, x_max: float) -> tuple[float, float]:
    """The window [x_min, x_max] as its cache key, if both ends are finite and ordered."""
    window = (float(x_min), float(x_max))
    if not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
        raise DomainTooSmall(f"norm window [{x_min!r}, {x_max!r}] is not a finite interval")
    return window


class ConditionalPropagator:
    """Precomputed spectral solution set for one packet/config pair.

    Exposes the evolving state, survival norm, excited population and the
    observed/ideal photon densities, all through closed-form overlaps.
    """

    def __init__(
        self,
        spec: PacketSpec,
        config: ValidatedConfig,
        grid: KGrid | None = None,
        backend: str = "analytic",
        n_slices: int = transfer.DEFAULT_SLICES,
    ):
        if abs(spec.mass - config.mass) > 1e-12 * config.mass:
            raise ValueError("packet and config masses differ")
        self.spec = spec
        self.config = config
        self.grid = grid if grid is not None else default_kgrid(spec)
        self.backend = backend
        hbar = config.constants.hbar
        k = self.grid.nodes
        self.k = k
        self.psi = grid_amplitude(spec, self.grid)
        self.coeff = self.grid.weights * self.psi
        self.omega_ref, self.omega_rel = self.grid.frequencies(config.mass, hbar)

        if backend == "analytic":
            if config.profile.kind != "sharp":
                raise ValueError("analytic backend requires a sharp-edged profile")
            self.amplitudes, self.regions = _sharp_regions(self.grid.origin, self.grid.offsets,
                                                           config)
        elif backend == "transfer":
            decomp = transfer.discretize(config.profile, n_slices, config=config)
            self.amplitudes, self.regions = transfer._slice_regions(
                self.grid.origin, self.grid.offsets, decomp, config)
        else:
            raise ValueError(f"backend must be 'analytic' or 'transfer', got {backend!r}")

        # the detection matrix, or its factor (``_detection``)
        self._detection_matrix = None
        self._norm_matrix_cache: dict = {}
        self._last_samples = None

    # -- matrices -------------------------------------------------------

    def detection_matrix(self) -> np.ndarray:
        """Gram matrix of the excited components over the whole line.

        Where the detection matrix is held as a factor F (``_detection``)
        it is formed on each call as F^T conj(F), exactly Hermitian.
        """
        detection = self._detection()
        if not _is_factor(detection):
            return detection
        return _overlap_sums(self.grid.origin, self.k.shape[0], (), (), [(detection, 1.0)])

    def _detection(self) -> np.ndarray:
        """The detection matrix as ``_compress`` gives it, built once.

        The excited channel lives in the beam and a few decay lengths
        beside it, so on the paper's packets that is a factor F, (r, nk),
        with r far below nk; a packet that resolves many decay lengths of
        it (fast atoms, narrow packets) keeps the (nk, nk) matrix.
        """
        if self.config.gamma <= 0.0:
            raise ValueError("detection matrix requires gamma > 0")
        if self._detection_matrix is None:
            self._build_detection(())
        return self._detection_matrix

    def _build_detection(self, interiors) -> _LowRank:
        """Build the detection matrix (``_detection``) with a covering norm's interior terms.

        The norm's ground channel and the detection matrix's excited channel
        hold the same waves in every region of the beam, so one pass
        (``_interior_products``) evaluates them for both: the excited rows
        go to the detection matrix, the ground rows to the returned buffer,
        which the norm's build takes for its ``interiors``.  Each gets its
        rows as a build of its own would, so neither matrix depends on
        which was asked for first.
        """
        nk = self.k.shape[0]
        half_lines, excited, _ = self._overlap_terms()
        channels = [(excited, _LowRank(nk)), (interiors, _LowRank(nk))]
        _interior_products(self.grid.origin, channels)
        self._detection_matrix = _compress(self.grid.origin, nk, half_lines, channels[0][1])
        return channels[1][1]

    def norm_matrix(self, x_min: float, x_max: float) -> np.ndarray:
        """Gram matrix of both components restricted to [x_min, x_max].

        With gamma > 0, a window that covers every finite region holds all
        of the excited channel except the half-line tails beyond it, so the
        matrix is the detection matrix (``_detection``, built and cached
        first if missing), plus the ground-channel Grams, minus the excited
        Gram of each tail: the excited pairs are integrated once for both
        matrices.  Any other window, and gamma = 0, integrates both channels
        over the window region by region.  Either way the path depends on
        the window alone, not on which matrices were built before.

        The window is the cache key as given; DomainTooSmall is raised
        unless both ends are finite and x_min < x_max.
        """
        window = _norm_window(x_min, x_max)
        if window not in self._norm_matrix_cache:
            half_lines, interiors, covering = self._overlap_terms(window)
            if covering and self._detection_matrix is None:
                interiors = self._build_detection(interiors)
            grams = [(self._detection(), 1.0)] if covering else []
            self._norm_matrix_cache[window] = _overlap_sums(
                self.grid.origin, self.k.shape[0], half_lines, interiors, grams)
        return self._norm_matrix_cache[window]

    def _overlap_terms(self, window=None):
        """(half_lines, interiors, covering): the engine's terms of one matrix.

        Without ``window`` the terms of the detection matrix (the excited
        channel over the line); with it those of the norm on ``window``,
        which, if ``covering``, leave the excited channel to the detection
        matrix except its tails beyond the window, at scale -1.  Every
        scale carries the 1 / (2 pi) of the wavenumber measure.
        """
        regions = self.regions
        covering = window is not None and self.config.gamma > 0.0 and (
            window[0] <= regions[0].x2 and window[1] >= regions[-1].x1)
        scale = 1.0 / (2.0 * math.pi)
        half_lines, interiors = [], []
        for index, region in enumerate(regions):
            ground, excited = region.channel_modes
            terms = []
            if window is None:
                if excited:
                    terms.append((excited, region.x1, region.x2, scale))
            else:
                x_min, x_max = window
                if covering:
                    if excited and math.isinf(region.x1):
                        terms.append((excited, -math.inf, x_min, -scale))
                    if excited and math.isinf(region.x2):
                        terms.append((excited, x_max, math.inf, -scale))
                    excited = []
                lo = max(x_min, region.x1)
                hi = min(x_max, region.x2)
                if hi > lo:
                    terms += [(modes, lo, hi, scale) for modes in (ground, excited) if modes]
            # the two half-lines share their (k, k) and (q, q) denominators
            (interiors if 0 < index < len(regions) - 1 else half_lines).extend(terms)
        return half_lines, interiors, covering

    def _quadratic(self, gram: np.ndarray, times) -> np.ndarray:
        """Rows Re v^H G^T v and 2 Im sum_k omega_k conj(v_k) (G^T v)_k at times.

        v = coeff * exp(-i omega t) is the state vector in the mode basis,
        and G an (nk, nk) matrix or the Gram F^T conj(F) of a factor F, (r,
        nk), from ``_compress``.  For a Hermitian G the second row is -d/dt
        of the first.  Both oscillate only at differences of the omegas, so
        they are formed at the band-limited nodes of
        ``series.chebyshev_samples`` and resampled to the times through one
        shared map.  For a factor, with g = F v and h = F (omega v), they are
        sum_l |g_l|^2 and 2 Im sum_l g_l conj(h_l): one (2r, nk) product per
        node, not an (nk, nk) one.
        """
        phases, resample = self._samples(times)
        out = np.empty((2, phases.shape[1]))
        if _is_factor(gram):
            g, h = np.split(np.concatenate([gram, gram * self.omega_rel]) @ phases, 2)
            out[0] = np.einsum("ij,ij->j", g.real, g.real) + np.einsum("ij,ij->j", g.imag, g.imag)
            out[1] = 2.0 * (np.einsum("ij,ij->j", g.imag, h.real)
                            - np.einsum("ij,ij->j", g.real, h.imag))
            return resample(out)
        chunk = max(1, int(4e6 // max(self.k.shape[0], 1)))
        for start in range(0, phases.shape[1], chunk):
            part = slice(start, start + chunk)
            v = phases[:, part]
            terms = gram.T @ v
            # conj(terms) v = conj(terms conj(v)) in place, and the imaginary
            # parts summed where they lie: no temporary of the block's size,
            # which keeps the peak of a measurement low
            np.conjugate(terms, out=terms)
            terms *= v
            out[0, part] = terms.real.sum(axis=0)
            out[1, part] = -2.0 * np.einsum("i,ij->j", self.omega_rel, terms.imag)
        return resample(out)

    def _samples(self, times):
        """Phase basis and resampler of ``times``, kept for the last times asked.

        The basis is v = coeff * exp(-i omega t) at the nodes of
        ``chebyshev_samples``, (nk, nodes).  ``first_photon_density`` forms
        the detection and the norm forms on the same times, so the nodes,
        the resampler and the basis are made once.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self._last_samples is None or not np.array_equal(self._last_samples[0], times):
            times = times.copy()
            nodes, resample = chebyshev_samples(times, np.ptp(self.omega_rel))
            self._last_samples = (times, self._phases(nodes), resample)
        return self._last_samples[1:]

    def _phases(self, nodes: np.ndarray) -> np.ndarray:
        """coeff * exp(-i omega t) at the nodes, (nk, nodes), from ``series.phase_basis``."""
        v = phase_basis(self.omega_rel, nodes)
        v *= self.coeff[:, None]
        return v

    # -- physics --------------------------------------------------------

    def state(self, x, t: float) -> np.ndarray:
        """Conditional wave function Psi(x, t), shape (2,) or (2, nx)."""
        phases = self.coeff * np.exp(
            -1j * (self.omega_rel + self.omega_ref) * float(t)
        )
        return _region_field(self.regions, phases, x)

    def excited_population(self, times) -> np.ndarray:
        return self._quadratic(self._detection(), times)[0]

    def photon_density(self, times) -> np.ndarray:
        """First-photon density gamma * P2(t)."""
        return self.config.gamma * self.excited_population(times)

    def ideal_density(self, times) -> np.ndarray:
        """Exact spectral deconvolution of the photon density, gamma P2 + dP2/dt.

        Each interference pair oscillates at a single known frequency, so
        the delay kernel divides out exactly, with no time grid involved:
        pair (mu, nu) is multiplied by gamma - i (omega_mu - omega_nu).
        Summed, that is gamma P2 plus the derivative of P2, whose negative
        is the second row of P2's quadratic form (``_quadratic``).
        """
        p2, rate = self._quadratic(self._detection(), times)
        return self.config.gamma * p2 - rate

    def ridge_density(self, times) -> np.ndarray:
        """Behind-the-beam approximation of the photon density.

        Assumes full excitation at the exit edge; the mode-pair exponent
        q - q'* is replaced by its printed near-axis expansion both in the
        denominator and in the decay factor.
        """
        gamma = self.config.gamma
        mass = self.config.mass
        hbar = self.config.constants.hbar
        L = self.config.beam_width
        k = self.k
        alpha = np.subtract.outer(k, k) + (
            0.5j * gamma * mass / hbar
        ) * np.add.outer(k, k) / np.multiply.outer(k, k)
        kernel = (gamma / (2.0 * math.pi)) * 1j * np.exp(1j * alpha * L) / alpha
        return self._quadratic(kernel, times)[0]

    def ideal_ridge_density(self, times) -> np.ndarray:
        """Deconvolved ridge approximation (the closed bracket kernel)."""
        from .distributions import ideal_kernel_bracket

        mass = self.config.mass
        hbar = self.config.constants.hbar
        L = self.config.beam_width
        k = self.k
        kk = np.broadcast_arrays(k[:, None], k[None, :])
        bracket = ideal_kernel_bracket(kk[0], kk[1], self.config.gamma, mass, hbar)
        kernel = (
            np.exp(1j * np.subtract.outer(k, k) * L) * bracket / (2.0 * math.pi)
        )
        return self._quadratic(kernel, times)[0]

    def norm(self, t, x_min: float, x_max: float) -> np.ndarray:
        return self._quadratic(self.norm_matrix(x_min, x_max), t)[0]

    def norm_and_rate(self, t, x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Survival N(t) on [x_min, x_max] and its exact loss rate -dN/dt.

        With w = N^T v and dv/dt = -i omega v, the Hermitian norm matrix
        gives -dN/dt = 2 Im sum_k omega_k conj(v_k) w_k: the derivative of
        the quadratic form itself, free of any time grid, from the same
        product as N(t).
        """
        return tuple(self._quadratic(self.norm_matrix(x_min, x_max), t))

    def default_domain(self, t: float) -> tuple[float, float]:
        """Spatial window guaranteed to hold the surviving state at time t.

        Covers the freely advanced packet and its mirror image at ten
        spreading widths plus the excited decay tail behind the beam
        (thirty decay lengths, so truncated mass stays below 1e-10).
        """
        cfg = self.config
        hbar = cfg.constants.hbar
        lo = math.inf
        hi = -math.inf
        vmax = 0.0
        for comp in self.spec.components:
            sigma0 = comp.delta_x
            tau = 2.0 * self.spec.mass * sigma0 * sigma0 / hbar
            sigma = sigma0 * math.sqrt(1.0 + ((t - comp.waist_time) / tau) ** 2)
            center = comp.waist_position + comp.mean_velocity * (t - comp.waist_time)
            lo = min(lo, center - 10.0 * sigma, -abs(center) - 10.0 * sigma)
            hi = max(hi, abs(center) + 10.0 * sigma)
            vmax = max(vmax, comp.mean_velocity)
        if cfg.gamma > 0.0:
            tail = 30.0 * vmax / cfg.gamma
        else:
            tail = 10.0 * cfg.beam_width
        return lo - tail, max(hi, cfg.beam_width) + tail

    def boundary_density_ok(self, t: float, x_min: float, x_max: float) -> bool:
        norm = float(self.norm(np.array([t]), x_min, x_max)[0])
        psi_lo = self.state(np.array([x_min]), t)
        psi_hi = self.state(np.array([x_max]), t)
        width = x_max - x_min
        boundary = float(
            (np.abs(psi_lo) ** 2 + np.abs(psi_hi) ** 2).sum()
        ) * width
        return boundary <= BOUNDARY_TOL * max(norm, 1e-300)


# --- module-level operations (thin wrappers) ------------------------------


def conditional_evolve(
    spec: PacketSpec,
    config: ValidatedConfig,
    grid: KGrid | None,
    x,
    t: float,
    backend: str = "analytic",
) -> np.ndarray:
    """Conditional state of the undetected atom at position(s) x, time t."""
    prop = ConditionalPropagator(spec, config, grid, backend=backend)
    return prop.state(x, t)


def no_detection_probability(
    spec: PacketSpec,
    config: ValidatedConfig,
    grid: KGrid | None,
    t: float,
    spatial_domain: tuple[float, float] | None = None,
    backend: str = "analytic",
) -> float:
    """Survival probability of the undetected atom at time t.

    The integral over the spatial domain is exact (closed-form overlaps);
    DomainTooSmall is raised when the domain fails the boundary-density
    check, i.e. it visibly truncates the state.
    """
    prop = ConditionalPropagator(spec, config, grid, backend=backend)
    if spatial_domain is None:
        spatial_domain = prop.default_domain(t)
    x_min, x_max = spatial_domain
    if not prop.boundary_density_ok(t, x_min, x_max):
        raise DomainTooSmall(
            f"domain [{x_min!r}, {x_max!r}] truncates the state at t={t!r}"
        )
    return float(prop.norm(np.array([t]), x_min, x_max)[0])


def first_photon_density(
    spec: PacketSpec,
    config: ValidatedConfig,
    grid: KGrid | None,
    times: TimeSeries,
    backend: str = "analytic",
) -> TimeSeries:
    """Observed first-photon density on the given uniform time grid.

    Computed as gamma times the excited population; an independent route
    (the exact time derivative of the survival norm over a fixed covering
    domain, ``norm_and_rate``) is compared against it and the integrated
    discrepancy is reported in ``meta['route_discrepancy']``.  The ideal
    (deconvolved) density gamma P2 + dP2/dt comes from the same product as
    gamma P2 and is ``meta['ideal_density']`` (an array on the same times,
    bitwise ``ideal_density``).  The two
    routes agree through the continuity equation of the conditional
    dynamics, not through the time grid, so the discrepancy measures the
    overlap matrices and the window, whatever dt is.  Disagreement beyond
    ``ROUTE_TOL`` (relative, integrated) raises ConsistencyFailure, and so
    does a survival above the packet norm by more than ``SURVIVAL_TOL``,
    which only a k-grid too coarse for the window produces.
    """
    if not (config.gamma > 0.0):
        raise ValueError("first_photon_density requires gamma > 0")
    prop = ConditionalPropagator(spec, config, grid, backend=backend)
    t = times.times
    lo0, hi0 = prop.default_domain(float(t[0]))
    lo1, hi1 = prop.default_domain(float(t[-1]))
    x_min, x_max = min(lo0, lo1), max(hi0, hi1)
    # the phase basis and its map first: they outlive the matrices'
    # temporaries (the free-atom references reuse the map), so they are
    # allocated below them and leave the heap free to shrink after them
    prop._samples(t)
    # the covering norm builds the detection matrix, which gamma P2 reuses
    survival, dn = prop.norm_and_rate(t, x_min, x_max)
    # gamma P2 and -dP2/dt from one product: Pi_id = gamma P2 - (-dP2/dt)
    p2, p2_rate = prop._quadratic(prop._detection(), t)
    pi = config.gamma * p2
    denom = float(np.trapezoid(np.abs(pi), dx=times.dt))
    if denom > 0.0:
        discrepancy = float(np.trapezoid(np.abs(pi - dn), dx=times.dt)) / denom
    else:
        discrepancy = 0.0
    if discrepancy > ROUTE_TOL:
        raise ConsistencyFailure(
            f"gamma*P2 vs -dN/dt disagree by {discrepancy:.2e} (integrated, relative)"
        )
    packet_norm = float(np.vdot(prop.psi, prop.coeff).real)
    peak = float(survival.max())
    if peak > packet_norm + SURVIVAL_TOL:
        raise ConsistencyFailure(
            f"survival {peak:.6g} exceeds the packet norm {packet_norm:.6g}: "
            f"{prop.k.shape[0]} k-nodes alias the packet over its {x_max - x_min:.3g} m "
            "window; use more nodes (--k-nodes)"
        )
    return TimeSeries(
        t0=times.t0,
        dt=times.dt,
        values=pi,
        meta={"route_discrepancy": discrepancy, "kind": "observed",
              "survival_start": float(survival[0]), "survival_end": float(survival[-1]),
              "ideal_density": pi - p2_rate},
    )


def ridge_photon_density(
    spec: PacketSpec,
    config: ValidatedConfig,
    times: TimeSeries,
    grid: KGrid | None = None,
) -> TimeSeries:
    """Photon density in the full-excitation (ridge) approximation.

    Validity is the caller's concern; a RegimeWarning is attached when the
    strong-driving/semiclassical inequality chain fails for the packet's
    mean velocity.
    """
    from .regimes import classify

    prop = ConditionalPropagator(spec, config, grid)
    vbar = max(c.mean_velocity for c in spec.components)
    report = classify(config, vbar)
    if not report.ideal_chain_ok:
        warnings.warn(
            "ridge approximation used outside its validity inequality chain",
            RegimeWarning,
            stacklevel=2,
        )
    vals = prop.ridge_density(times.times)
    return TimeSeries(t0=times.t0, dt=times.dt, values=vals,
                      meta={"kind": "observed", "approximation": "ridge"})
