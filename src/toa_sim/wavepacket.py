"""Conditional wave-packet evolution and first-photon statistics.

The packet is expanded over stationary scattering states on a
Gauss-Legendre wavenumber grid.  Spatial integrals of the evolving state
(excited population, survival norm) are quadratic forms in analytically
integrated overlap matrices: every piece of a stationary state is a plane
wave or a decaying exponential, so region overlaps have closed forms and
no spatial grid is ever needed.  That is what makes millimetre-wide
packets with picometre de Broglie oscillations tractable.

The overlap engine (``_overlap_sums``) needs no (nk, nk) exponential:
every mode is anchored so that it is bounded by its coefficient inside
its region (the ``Region`` invariant), so a pair integral is a
difference of outer products of per-node endpoint values over the Cauchy
denominator i (kappa_mu - conj(kappa_nu)).  Region construction must keep
that invariant; the engine does not check it.  Within each region the
engine groups the pair terms of every matrix it builds by that
denominator: the ground and excited channels share their interior
wavenumbers, a pair (-kappa_mu, -kappa_nu) only flips its sign, and the
(nu, mu) form of a pair is the conjugate transpose of its (mu, nu) form.
The groups whose denominator crosses the carrier (about 2 i k0, so that
1/(a_i - b_j) is a short exact series in a_i - a_ref) become separable
factors, and each matrix takes all of them as one low-rank matrix
product.  The other groups run over fixed row tiles: per tile and group
the engine inverts the denominator once, and per matrix it forms the
group's summed numerator as one stacked matrix product and adds numerator
times inverse into a region accumulator and then into that matrix's upper
half, which is completed once, half + half^H.  Near-resonant elements are
evaluated again term by term, each as a series or a quotient at its own
width.

``ConditionalPropagator.overlap_matrices`` builds the detection and norm
matrices in one such pass.  The excited channel is integrated once for
both: once the detection matrix is built (or alongside it), a norm window
that covers every finite region equals the detection matrix plus the
ground-channel Grams minus the excited Grams of the half-line tails
beyond the window.  The survival loss rate -dN/dt is the exact
derivative of its quadratic form, so the first-photon route check carries
no time-step error.

Every time-domain output is a quadratic form in the phases
exp(-i omega_k t), with frequencies only at differences of the omegas, so
it is evaluated at the band-limited Chebyshev nodes of
``series.chebyshev_samples`` (about 150 for the paper's packets, not one
per output time) and carried to the requested times by one barycentric
map, exact to double rounding.
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
from .scattering import Region, _channel, _region_field, _sharp_regions, _wave  # noqa: F401
from .series import TimeSeries, chebyshev_samples

KGRID_SPAN = 10.0    # half-width of each component's k window, in units of dk
ROUTE_TOL = 1e-3     # largest gamma*P2 vs -dN/dt discrepancy first_photon_density accepts
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

# Rows per tile of the overlap engine: a (32, nk) complex tile keeps the
# denominator, the numerator and the output rows in cache.  At nk = 641,
# 32 rows ran 3 % behind 16 and ahead of 64, 128 and untiled (by 13 %);
# 16 rows cost 15 % more on a 256-slice beam, whose many small regions
# pay per tile.
OVERLAP_TILE = 32
# Largest spread rho = max|u| / min|d| of a group's denominators d_j + u_i
# that the engine expands into separable factors (``_far_factors``): the
# pairs across the carrier, at rho = 3e-9 ... 6e-6 on the paper's packets.
FAR_SPREAD = 1e-4
# Far-factor columns one output collects before a single (nk, K) @ (K, nk)
# product adds them.  A 256-slice beam at 280 nodes holds about 8000 per
# output (37 MB per factor if held at once); with 64 the build's peak stays
# at the tiled engine's (256 cost 3 MB more for a few per cent of speed).
# The arrival packets collect 20-40, so one product per output.
FAR_COLUMNS = 64
# Rows per block of the Hermitian completion.
MIRROR_BLOCK = 128


def _can_resonate(kappa_mu: np.ndarray, kappa_nu: np.ndarray, bound: float) -> bool:
    """False when every |kappa_mu[i] - conj(kappa_nu[j])| is >= bound.

    Decided from the ranges of the real and imaginary parts in O(nk), so
    pairs that are never near resonance skip the (nk, nk) mask.
    """
    re_lo = kappa_mu.real.min() - kappa_nu.real.max()
    re_hi = kappa_mu.real.max() - kappa_nu.real.min()
    im_lo = kappa_mu.imag.min() + kappa_nu.imag.min()
    im_hi = kappa_mu.imag.max() + kappa_nu.imag.max()
    return re_lo < bound and re_hi > -bound and im_lo < bound and im_hi > -bound


@dataclass
class _PairTerm:
    """One mu <= nu pair of one Gram term, in the orientation of its group.

    The pair's block is left @ right / (i alpha) with alpha the group's
    denominator: ``left`` carries the term's scale, its endpoint signs and
    ``sign``, the factor between the pair's own alpha and the group's.
    ``ends`` holds the scaled value of the left mode and the conjugated
    value of the right mode at x1 (None on a half-line to -inf), for the
    series.
    """

    left: np.ndarray    # (nk, m)
    right: np.ndarray   # (m, nk)
    ends: tuple | None
    sign: float
    width: float
    bound: float


@dataclass
class _PairGroup:
    """Pair terms of one region that share the denominator i (kappa_a - conj(kappa_b)).

    ``stacks`` holds per output (out, left, right, terms): the terms'
    factors side by side, so that left @ right is the output's summed
    numerator.  ``resonates`` is False when no element can come within
    the widest series switch of the terms, ``bound``.  ``diagonal`` is
    True when every term pairs a mode with itself, so that every output's
    block is Hermitian.
    """

    i_kappa_a: np.ndarray
    i_kappa_b: np.ndarray   # i conj(kappa_b)
    bound: float
    resonates: bool
    stacks: list
    diagonal: bool


def _pair_groups(terms) -> list[_PairGroup]:
    """The mu <= nu pair terms of one region's Gram terms, grouped by denominator.

    A term (out, modes, x1, x2, scale) stands for scale times the Gram of
    the channel ``modes`` over [x1, x2], added to output ``out``; a mode
    with a carrier split (``scattering._channel``) takes its endpoint values
    from ``split_exp``.  Pairs are keyed by the values of their two kappas.
    A pair (-kappa_mu, -kappa_nu) has the denominator of (kappa_mu,
    kappa_nu) with its sign flipped, which its left factor takes; the (nu,
    mu) form of a pair is the conjugate transpose of its (mu, nu) form, so
    the completion half + half^H lets either form join a group.
    """
    distinct: list[np.ndarray] = []

    def key_of(kappa):
        for i, other in enumerate(distinct):
            if kappa is other or np.array_equal(kappa, other):
                return i, 1
            if np.array_equal(kappa, -other):
                return i, -1
        distinct.append(kappa)
        return len(distinct) - 1, 1

    grouped: dict = {}
    mixed = set()  # keys of groups holding a pair of two different modes
    for out, modes, x1, x2, scale in terms:
        width = x2 - x1
        bound = 1e-4 / width  # 0 on a half-line: no series there
        points = [(x, s) for x, s in ((x2, 1.0), (x1, -1.0)) if not math.isinf(x)]
        signs = np.array([s for _, s in points])[:, None]
        ends, keys = [], []
        for coef, kappa, anchor, *split in modes:
            split = split[0] if split else None
            values = np.stack([coef * _wave(kappa, split, x - anchor) for x, _ in points])
            f1 = None if math.isinf(x1) else values[-1]
            ends.append(((values * signs).T, values.conj(), f1))
            keys.append(key_of(kappa))
        for mu in range(len(modes)):
            for nu in range(mu, len(modes)):
                (i, s), (j, t) = keys[mu], keys[nu]
                key, a, b, sign = min(
                    ((i, s, j, t), mu, nu, 1.0), ((i, -s, j, -t), mu, nu, -1.0),
                    ((j, t, i, s), nu, mu, 1.0), ((j, -t, i, -s), nu, mu, -1.0),
                    key=lambda form: form[0])
                # a diagonal pair enters the half once, halved
                weight = 0.5 * scale if nu == mu else scale
                if nu != mu:
                    mixed.add(key)
                left_a, _, f1_a = ends[a]
                _, right_b, f1_b = ends[b]
                grouped.setdefault(key, {}).setdefault(out, []).append(_PairTerm(
                    (weight * sign) * left_a, right_b,
                    None if f1_a is None else (weight * f1_a, np.conj(f1_b)),
                    sign, width, bound))
    groups = []
    for (i, s, j, t), outputs in grouped.items():
        kappa_a, kappa_b = s * distinct[i], t * distinct[j]
        bound = max(term.bound for ts in outputs.values() for term in ts)
        groups.append(_PairGroup(
            1j * kappa_a, 1j * np.conj(kappa_b), bound,
            bound > 0.0 and _can_resonate(kappa_a, kappa_b, bound),
            [(out, np.concatenate([term.left for term in ts], axis=1),
              np.concatenate([term.right for term in ts]), ts)
             for out, ts in outputs.items()],
            (i, s, j, t) not in mixed))
    return groups


def _near_values(term: _PairTerm, rows, cols, i_alpha) -> np.ndarray:
    """One term at near-resonant elements: the series or the quotient at its own width.

    Where |alpha| width < 1e-4 the difference quotient cancels, and the
    series about x1 of width (exp(u) - 1)/u, u = i alpha width, replaces it.
    """
    value = np.einsum("im,mi->i", term.left[rows], term.right[:, cols]) / i_alpha
    if term.bound > 0.0:
        series = np.abs(i_alpha) < term.bound
        if series.any():
            u = term.sign * i_alpha[series] * term.width
            value[series] = term.ends[0][rows[series]] * term.ends[1][cols[series]] * (
                term.width * (1.0 + u / 2.0 + u * u / 6.0 + u * u * u / 24.0))
    return value


def _far_factors(group: _PairGroup):
    """Powers of the separable expansion of a well-separated group, or None.

    With a = i kappa_a, b = i conj(kappa_b), a_ref the centre of the a,
    u = a - a_ref (exact where a and a_ref share a binade) and d = a_ref - b,
    1/(a_i - b_j) = 1/(d_j + u_i) = sum_{q<n} (-u_i)^q / d_j^(q+1) up to a
    relative rho^n, rho = max|u| / min|d| (Beckermann & Townsend, SIAM J.
    Matrix Anal. Appl. 38, 1227 (2017)).  Where rho <= FAR_SPREAD (pairs
    whose denominator crosses the carrier, about 2 i k0) and no element is
    near resonance, n is the first order with rho^n <= 2^-56, and the
    result is the (nk, n) powers (-u)^q and the (n, nk) inverses
    1/d^(q+1): an output's block left @ right / (i alpha) is then the sum
    over q of (powers[:, q] left) @ (right inverses[q]).
    """
    a, b = group.i_kappa_a, group.i_kappa_b
    a_ref = complex(0.5 * (a.real.min() + a.real.max()), 0.5 * (a.imag.min() + a.imag.max()))
    u = a - a_ref
    d = a_ref - b
    with np.errstate(divide="ignore"):
        rho = np.abs(u).max() / np.abs(d).min()
    if group.resonates or not rho <= FAR_SPREAD:
        return None
    n = 1 if rho == 0.0 else math.ceil(56.0 / -math.log2(rho))
    powers = np.empty((a.shape[0], n), dtype=complex)
    inverses = np.empty((n, b.shape[0]), dtype=complex)
    powers[:, 0] = 1.0
    inverses[0] = 1.0 / d
    for q in range(1, n):
        np.multiply(powers[:, q - 1], -u, out=powers[:, q])
        np.multiply(inverses[q - 1], inverses[0], out=inverses[q])
    return powers, inverses


class _FarProducts:
    """Far factors of one output, added to its half by one product per FAR_COLUMNS columns.

    Each group's factors wait as they are, (powers, left, inverses, right);
    once FAR_COLUMNS columns are pending, a flush writes the column pairs
    (powers[:, q] left[:, c], right[c] inverses[q]) into two (K, nk)
    arrays and adds their product to the half in OVERLAP_TILE row blocks,
    with no (nk, nk) temporary.
    """

    def __init__(self, half: np.ndarray):
        self.half = half
        self.pending = []
        self.columns = 0

    def add(self, powers: np.ndarray, left: np.ndarray, inverses: np.ndarray,
            right: np.ndarray) -> None:
        self.pending.append((powers, left, inverses, right))
        self.columns += powers.shape[1] * left.shape[1]
        if self.columns >= FAR_COLUMNS:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        left_t = np.empty((self.columns, self.half.shape[0]), dtype=complex)
        right_all = np.empty((self.columns, self.half.shape[1]), dtype=complex)
        col = 0
        for powers, left, inverses, right in self.pending:
            for q in range(powers.shape[1]):
                cols = slice(col, col + left.shape[1])
                np.multiply(left.T, powers[:, q], out=left_t[cols])
                np.multiply(right, inverses[q], out=right_all[cols])
                col = cols.stop
        for start in range(0, self.half.shape[0], OVERLAP_TILE):
            rows = slice(start, start + OVERLAP_TILE)
            self.half[rows] += left_t[:, rows].T @ right_all
        self.pending = []
        self.columns = 0


def _complete_hermitian(half: np.ndarray, divisor: float = 1.0,
                        addend: np.ndarray | None = None) -> np.ndarray:
    """(half + half^H) / divisor + addend in place, by MIRROR_BLOCK blocks; returns half.

    One pass with no (nk, nk) temporary, giving the values of the three
    passes half += half^H, half /= divisor, half += addend.  Each block on or
    above the diagonal takes the sum and the division, and the block
    below is its conjugate transpose, since l + conj(u) = conj(u + conj(l))
    exactly.  numpy divides a complex by a real number as the product of
    both parts with its reciprocal, which the float view forms directly.
    """
    nk = half.shape[0]
    scale = 1.0 / divisor
    for i in range(0, nk, MIRROR_BLOCK):
        bi = slice(i, i + MIRROR_BLOCK)
        for j in range(i, nk, MIRROR_BLOCK):
            bj = slice(j, j + MIRROR_BLOCK)
            upper = half[bi, bj]
            upper += half[bj, bi].conj().T
            parts = upper.view(float)
            parts *= scale
            if j > i:
                half[bj, bi] = upper.conj().T
                if addend is not None:
                    half[bj, bi] += addend[bj, bi]
            if addend is not None:
                upper += addend[bi, bj]
    return half


def _overlap_sums(nk: int, region_terms, n_out: int) -> list[np.ndarray]:
    """Halves of Hermitian sums of region Grams, one (nk, nk) array per output.

    ``region_terms`` holds each region's Gram terms (out, modes, x1, x2,
    scale): scale times integral_x1^x2 psi psi^H dx of the channel psi =
    sum of modes, added to output ``out``.  The sum is the completion
    half + half^H of the returned half (``_complete_hermitian``), which
    makes every output exactly Hermitian.  Each pair of modes integrates
    in closed form to [f_mu(x) f_nu(x)^H]_x1^x2 / (i alpha) with f = coef
    exp(i kappa (x - anchor)) and alpha = kappa_mu - conj(kappa_nu); an
    infinite endpoint contributes nothing, since the pair exponent decays
    there (the excited channel with gamma > 0).  Within each entry of
    ``region_terms`` the pairs of every term are grouped by alpha
    (``_pair_groups``).  The regions are streamed: one region's groups are
    built, used and dropped before the next region's.

    A group whose denominators are well separated (``_far_factors``: the
    pairs across the carrier) becomes exact separable factors, which wait
    in a per-output buffer (``_FarProducts``) until one matmul per
    FAR_COLUMNS columns adds them, after the region's tiles.  The other
    groups run over fixed row tiles: per tile and group the engine forms
    i alpha once and inverts it in place, and per output it forms the
    stacked numerator of the group's terms as one (tile, m) @ (m, nk)
    product and adds numerator times inverse into the region's tile
    accumulator (which the first group's product starts).  Elements nearer
    resonance than the group's widest series switch are evaluated again
    term by term (``_near_values``).  Only the summed tile joins the
    output's half: near gamma = 2 omega the interior blocks cancel to
    about 1e-3 of their size, and that sum then rounds as the region's own
    Gram does.

    A region whose tiled groups all pair each mode with itself (the
    half-lines, whose (k, k) and (q, q) groups ``_build_overlaps`` passes
    as one entry) has Hermitian tiles, so it forms only the columns from
    each tile's first row: the diagonal sub-block as a full tile would
    hold it, the columns beyond it doubled, and the completion mirrors
    them.  A region with any other tiled group (the beam interior, every
    slice) keeps full tiles, so that its cancellation stays inside its
    own accumulator.
    """
    halves = [np.zeros((nk, nk), dtype=complex) for _ in range(n_out)]
    far = [_FarProducts(half) for half in halves]
    i_alpha = np.empty(OVERLAP_TILE * nk, dtype=complex)
    num = np.empty_like(i_alpha)
    sums = np.empty(n_out * OVERLAP_TILE * nk, dtype=complex)
    for terms in region_terms:
        direct, separable = [], []
        for group in _pair_groups(terms):
            factors = _far_factors(group)
            if factors is None:
                direct.append(group)
            else:
                separable.append((group, factors))
        upper = all(group.diagonal for group in direct)
        # an exact resonance (alpha = 0) is always near: its inverse is replaced
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, nk if direct else 0, OVERLAP_TILE):
                rows = slice(start, start + OVERLAP_TILE)
                first = start if upper else 0  # first column formed
                shape = (min(OVERLAP_TILE, nk - start), nk - first)
                size = shape[0] * shape[1]
                ia = i_alpha[:size].reshape(shape)
                tile = num[:size].reshape(shape)
                acc = sums[:n_out * size].reshape(n_out, *shape)
                begun = []  # outputs whose accumulator holds this tile's first group
                for group in direct:
                    np.subtract(group.i_kappa_a[rows, None], group.i_kappa_b[first:], out=ia)
                    near = None
                    if group.resonates:
                        r, c = np.nonzero(np.abs(ia) < group.bound)
                        if r.size:
                            near = (r, c, ia[r, c])
                    np.divide(1.0, ia, out=ia)
                    for out, left, right, ts in group.stacks:
                        part = tile if out in begun else acc[out]
                        np.matmul(left[rows], right[:, first:], out=part)
                        part *= ia
                        if near is not None:
                            r, c, ia_near = near
                            part[r, c] = sum(_near_values(t, r + start, c + first, ia_near)
                                             for t in ts)
                        if part is tile:
                            acc[out] += tile
                        else:
                            begun.append(out)
                for out in begun:
                    if upper:
                        acc[out][:, shape[0]:] *= 2.0
                    halves[out][rows, first:] += acc[out]
        for group, (powers, inverses) in separable:
            for out, left, right, _ in group.stacks:
                far[out].add(powers, left, inverses, right)
    for products in far:
        products.flush()
    return halves


def _region_gram(modes, x1: float, x2: float) -> np.ndarray:
    """integral_x1^x2 psi psi^H dx of the channel psi = sum of modes, (nk, nk).

    The one-term call of ``_overlap_sums``; exactly Hermitian.
    """
    return _complete_hermitian(
        _overlap_sums(modes[0][0].shape[0], [[(0, modes, x1, x2, 1.0)]], 1)[0])


def _window_key(x_min: float, x_max: float) -> tuple[float, float]:
    """Cache key of a norm window."""
    return (round(x_min, 12), round(x_max, 12))


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
        n_slices: int = 256,
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
        self.q = kernels.channel_q(k, config.gamma, config.mass, hbar)
        self.psi = grid_amplitude(spec, self.grid)
        self.coeff = self.grid.weights * self.psi
        omega = hbar * k * k / (2.0 * config.mass)
        self.omega_ref = float(omega.mean())
        self.omega_rel = omega - self.omega_ref

        if backend == "analytic":
            if config.profile.kind != "sharp":
                raise ValueError("analytic backend requires a sharp-edged profile")
            self.amplitudes, self.regions = _sharp_regions(k, config)
        elif backend == "transfer":
            decomp = transfer.discretize(config.profile, n_slices, config=config)
            self.amplitudes, self.regions = transfer._slice_regions(k, decomp, config)
        else:
            raise ValueError(f"backend must be 'analytic' or 'transfer', got {backend!r}")

        self._detection_matrix = None
        self._norm_matrix_cache: dict = {}
        self._last_samples = None

    # -- matrices -------------------------------------------------------

    def detection_matrix(self) -> np.ndarray:
        """Gram matrix of the excited components over the whole line."""
        if self.config.gamma <= 0.0:
            raise ValueError("detection matrix requires gamma > 0")
        if self._detection_matrix is None:
            self._build_overlaps(detection=True)
        return self._detection_matrix

    def norm_matrix(self, x_min: float, x_max: float) -> np.ndarray:
        """Gram matrix of both components restricted to [x_min, x_max].

        A window that covers every finite region holds all of the excited
        channel except the half-line tails beyond it, so once the detection
        matrix is built, the matrix is that detection matrix, plus the
        ground-channel Grams, minus the excited Gram of each tail: the
        excited pairs are integrated once for both matrices.  Before it is
        built (a caller that only needs the norm), the excited channel is
        integrated over the window like the ground channel, and no
        detection matrix is formed.  The two paths agree to rounding.
        """
        key = _window_key(x_min, x_max)
        if key not in self._norm_matrix_cache:
            self._build_overlaps(window=(x_min, x_max))
        return self._norm_matrix_cache[key]

    def overlap_matrices(self, x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Detection matrix and norm matrix on [x_min, x_max], built in one pass.

        Both matrices come from one run of the overlap engine, so pairs of
        the two that share a denominator share its inverse.  They are the
        matrices ``detection_matrix`` and ``norm_matrix`` return, and are
        cached as theirs.
        """
        if self.config.gamma > 0.0 and _window_key(x_min, x_max) not in self._norm_matrix_cache:
            self._build_overlaps(detection=self._detection_matrix is None,
                                 window=(x_min, x_max))
        return self.detection_matrix(), self.norm_matrix(x_min, x_max)

    def _build_overlaps(self, detection: bool = False, window=None) -> None:
        """Build the detection matrix and/or the norm matrix on ``window`` in one engine pass."""
        regions = self.regions
        shared = window is not None and (
            detection or self._detection_matrix is not None
        ) and window[0] <= regions[0].x2 and window[1] >= regions[-1].x1
        norm_out = int(detection)
        region_terms = []
        for region in regions:
            ground, excited = _channel(region, 0), _channel(region, 1)
            terms = []
            if detection and excited:
                terms.append((0, excited, region.x1, region.x2, 1.0))
            if window is not None:
                x_min, x_max = window
                if shared:
                    if excited and math.isinf(region.x1):
                        terms.append((norm_out, excited, -math.inf, x_min, -1.0))
                    if excited and math.isinf(region.x2):
                        terms.append((norm_out, excited, x_max, math.inf, -1.0))
                    excited = []
                lo = max(x_min, region.x1)
                hi = min(x_max, region.x2)
                if hi > lo:
                    terms += [(norm_out, modes, lo, hi, 1.0) for modes in (ground, excited)
                              if modes]
            region_terms.append(terms)
        # the two half-lines share their (k, k) and (q, q) denominators
        region_terms = [region_terms[0] + region_terms[-1]] + region_terms[1:-1]
        halves = _overlap_sums(self.k.shape[0], region_terms, norm_out + (window is not None))
        if detection:
            self._detection_matrix = _complete_hermitian(halves[0], 2.0 * math.pi)
        if window is not None:
            self._norm_matrix_cache[_window_key(*window)] = _complete_hermitian(
                halves[-1], 2.0 * math.pi, self._detection_matrix if shared else None)

    def _forms(self, matrix: np.ndarray, times) -> np.ndarray:
        """Rows Re v^H matrix^T v and 2 Im sum_k omega_k conj(v_k) (matrix^T v)_k at times.

        v = coeff * exp(-i omega t) is the state vector in the mode basis.
        For a Hermitian matrix the second row is -d/dt of the first.  Both
        oscillate only at differences of the omegas, so they are formed at
        the band-limited nodes of ``series.chebyshev_samples`` and resampled
        to the times through one shared map.
        """
        phases, resample = self._samples(times)
        out = np.empty((2, phases.shape[1]))
        chunk = max(1, int(4e6 // max(self.k.shape[0], 1)))
        for start in range(0, phases.shape[1], chunk):
            part = slice(start, start + chunk)
            v = phases[:, part]
            terms = matrix.T @ v
            terms *= np.conj(v)
            out[0, part] = terms.real.sum(axis=0)
            out[1, part] = 2.0 * (self.omega_rel @ terms.imag)
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
        """coeff * exp(-i omega t) at the nodes, (nk, nodes)."""
        v = np.exp(-1j * np.outer(self.omega_rel, nodes))
        v *= self.coeff[:, None]
        return v

    def _quadratic(self, matrix: np.ndarray, times: np.ndarray) -> np.ndarray:
        return self._forms(matrix, times)[0]

    # -- physics --------------------------------------------------------

    def state(self, x, t: float) -> np.ndarray:
        """Conditional wave function Psi(x, t), shape (2,) or (2, nx)."""
        phases = self.coeff * np.exp(
            -1j * (self.omega_rel + self.omega_ref) * float(t)
        )
        return _region_field(self.regions, phases, x)

    def excited_population(self, times) -> np.ndarray:
        return self._quadratic(self.detection_matrix(), times)

    def photon_density(self, times) -> np.ndarray:
        """First-photon density gamma * P2(t)."""
        return self.config.gamma * self.excited_population(times)

    def ideal_density(self, times) -> np.ndarray:
        """Exact spectral deconvolution of the photon density.

        Each interference pair oscillates at a single known frequency, so
        the delay kernel divides out exactly, with no time grid involved.
        """
        gamma = self.config.gamma
        d2 = self.detection_matrix()
        dw = np.subtract.outer(self.omega_rel, self.omega_rel)
        return self._quadratic(d2 * (gamma - 1j * dw), times)

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
        return self._quadratic(kernel, times)

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
        return self._quadratic(kernel, times)

    def norm(self, t, x_min: float, x_max: float) -> np.ndarray:
        return self._quadratic(self.norm_matrix(x_min, x_max), t)

    def norm_and_rate(self, t, x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Survival N(t) on [x_min, x_max] and its exact loss rate -dN/dt.

        With w = N^T v and dv/dt = -i omega v, the Hermitian norm matrix
        gives -dN/dt = 2 Im sum_k omega_k conj(v_k) w_k: the derivative of
        the quadratic form itself, free of any time grid, from the same
        product as N(t).
        """
        return tuple(self._forms(self.norm_matrix(x_min, x_max), t))

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
        psi_lo = self.state(np.array([x_min]), t)
        psi_hi = self.state(np.array([x_max]), t)
        norm = float(self.norm(np.array([t]), x_min, x_max)[0])
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
    discrepancy is reported in ``meta['route_discrepancy']``.  The two
    routes agree through the continuity equation of the conditional
    dynamics, not through the time grid, so the discrepancy measures the
    overlap matrices and the window, whatever dt is.  Disagreement beyond
    ``ROUTE_TOL`` (relative, integrated) raises ConsistencyFailure.
    """
    if not (config.gamma > 0.0):
        raise ValueError("first_photon_density requires gamma > 0")
    prop = ConditionalPropagator(spec, config, grid, backend=backend)
    t = times.times
    lo0, hi0 = prop.default_domain(float(t[0]))
    lo1, hi1 = prop.default_domain(float(t[-1]))
    x_min, x_max = min(lo0, lo1), max(hi0, hi1)
    prop.overlap_matrices(x_min, x_max)
    pi = prop.photon_density(t)
    survival, dn = prop.norm_and_rate(t, x_min, x_max)
    denom = float(np.trapezoid(np.abs(pi), dx=times.dt))
    if denom > 0.0:
        discrepancy = float(np.trapezoid(np.abs(pi - dn), dx=times.dt)) / denom
    else:
        discrepancy = 0.0
    if discrepancy > ROUTE_TOL:
        raise ConsistencyFailure(
            f"gamma*P2 vs -dN/dt disagree by {discrepancy:.2e} (integrated, relative)"
        )
    return TimeSeries(
        t0=times.t0,
        dt=times.dt,
        values=pi,
        meta={"route_discrepancy": discrepancy, "kind": "observed",
              "survival_start": float(survival[0]), "survival_end": float(survival[-1])},
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
