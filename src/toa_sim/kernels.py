"""Numerical kernels, vectorised over the incident wavenumber with numpy.

The hot paths of parameter scans (batched sharp-edge matching solves and
transfer-matrix composition over slices) live here, with the branch-free
helpers the higher-level modules share and the one convention every
stationary wave follows: its phase is the carrier phase, rounded once,
times exp(i delta y) (``_wave``), with offsets delta = kappa - k0 that
take no difference of carrier-size numbers (``_mode_offsets``,
``_channel_offset``).  ``BACKEND_NAME`` is what run environments record.

Conventions.  A two-level atom with spontaneous decay rate ``gamma`` on
the excited channel crosses a coupling region.  For a stationary state of
real energy E = (hbar k)^2 / 2m incident from the left in the ground
channel, the wave is

  x <= 0 : (exp(ikx) + R1 exp(-ikx),  R2 exp(-iqx))
  x >= L : (T1 exp(ikx),              T2 exp(iqx))

with q^2 = k^2 + i gamma m / hbar, Im q > 0.  Inside a constant-coupling
slice the two decoupled modes have wavenumbers k+- with
k+-^2 = k^2 - 2 m lam+- / hbar, Im k+- > 0, where lam+- are the complex
eigenrates of the internal coupling matrix.  Interior coefficients of the
growing exponentials are stored anchored at the right edge (coefficient
of exp(-i k+- (x - L))) so no assembled matrix entry can overflow.

The sharp-edge matching problem has eight conditions (value and
derivative of both channels at x = 0 and x = L).  The four value
conditions give R1, R2, T1 and T2 exp(iqL) explicitly in the interior
coefficients, so ``sharp_edge_solve`` eliminates them and solves only a
4x4 system per wavenumber; it takes one coupling per wavenumber, so a
whole (omega, v) scan is a single batched call.
"""

from __future__ import annotations

import sys

import numpy as np

BACKEND_NAME = "python"
# an alias of this module: perfbench/run.py reads kernels.active.BACKEND_NAME
active = sys.modules[__name__]
# Wavenumbers per batched sharp-edge solve; its working arrays take about
# 0.5 kB per wavenumber, and 2048 was also the fastest block on a 2-core VM.
SHARP_BLOCK = 2048


def sqrt_upper(z: np.ndarray) -> np.ndarray:
    """Complex square root with Im >= 0 (and Re >= 0 on the real line)."""
    s = np.sqrt(np.asarray(z, dtype=complex))
    flip = (s.imag < 0.0) | ((s.imag == 0.0) & (s.real < 0.0))
    return np.where(flip, -s, s)


def _rate_over_hbar(c: float, z: np.ndarray, hbar: float) -> np.ndarray:
    """c * z / hbar, each part divided by hbar and so correctly rounded.

    numpy's complex-by-real division multiplies by a rounded 1/hbar.
    """
    out = np.empty(z.shape, dtype=complex)
    out.real = c * z.real / hbar
    out.imag = c * z.imag / hbar
    return out


def internal_rates(gamma: float, omega):
    """Eigenrates (lam+, lam-) of the internal coupling matrix and lam+ - lam-.

    Principal branch of the discriminant disc, continuous across
    gamma = 2 omega; ``omega`` is a scalar or an array.  lam- =
    -i (gamma + disc)/4 is the root of larger magnitude and lam+ comes from
    the product of the roots, lam+ lam- = -omega^2/4, so it does not cancel
    when omega << gamma; lam+ - lam- = i disc/2 is not formed by
    subtraction either.  At omega = 0 the rates are exactly 0 and
    -i gamma/2 (both 0 when gamma = 0 too).
    """
    disc = np.sqrt(gamma * gamma - 4.0 * omega * omega + 0j)
    lam_m = -0.25j * gamma - 0.25j * disc
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_p = np.where(lam_m == 0.0, 0j, -0.25 * omega * omega / lam_m)
    return lam_p, lam_m, 0.5j * disc


def channel_q(k: np.ndarray, gamma: float, mass: float, hbar: float) -> np.ndarray:
    """Excited-channel asymptotic wavenumber q, upper-half-plane branch."""
    k = np.asarray(k, dtype=float)
    if gamma == 0.0:
        return k.astype(complex)
    return sqrt_upper(k * k + 1j * gamma * mass / hbar)


def mode_wavenumbers(k, gamma: float, omega, mass: float, hbar: float):
    """Interior mode wavenumbers (k+, k-) and their eigenrates, as ``mode_split`` gives them."""
    kp, km, _, _, lam_p, lam_m = mode_split(k, gamma, omega, mass, hbar)
    return kp, km, lam_p, lam_m


def mode_split(k, gamma: float, omega, mass: float, hbar: float):
    """Interior wavenumbers as one carrier and two offsets: (k+, k-, r, e, lam+, lam-).

    k+- = sqrt(k^2 - 2 m lam+- / hbar) (Im >= 0) for the ``internal_rates``
    lam+-, r = (k+ + k-)/2, and e = (k+ - k-)/2 = (zp - zm)/(4 r) with
    zp - zm = -2 m (lam+ - lam-)/hbar from the rates' gap, not cancelling.
    ``slice_propagator`` takes a slice's divided differences in r and e.
    ``omega`` broadcasts against ``k``.
    """
    lam_p, lam_m, gap = internal_rates(gamma, omega)
    k = np.asarray(k, dtype=float)
    k2 = k * k
    kp = sqrt_upper(k2 - _rate_over_hbar(2.0 * mass, lam_p, hbar))
    km = sqrt_upper(k2 - _rate_over_hbar(2.0 * mass, lam_m, hbar))
    r = 0.5 * (kp + km)
    return kp, km, r, _rate_over_hbar(-2.0 * mass, gap, hbar) / (4.0 * r), lam_p, lam_m


def _offset(kappa, k, offsets, z):
    """kappa - k0 for kappa^2 = k^2 + z at k = k0 + offsets: offsets + z / (kappa + k)."""
    return offsets + z / (kappa + k)


def _mode_offsets(k, offsets, gamma: float, omega, mass: float, hbar: float):
    """k+- at k = k0 + offsets with their offsets: (delta+, delta-, k+, k-, e, lam+, lam-).

    k+-, e and lam+- are ``mode_split``'s.  Each kappa solves kappa^2 = k^2
    + z, z = -2 m lam+- / hbar, so delta = kappa - k0 = offsets + z / (kappa
    + k) takes no difference of carrier-size numbers.
    """
    kp, km, _, e, lam_p, lam_m = mode_split(k, gamma, omega, mass, hbar)
    d_p, d_m = (_offset(kappa, k, offsets, _rate_over_hbar(-2.0 * mass, lam, hbar))
                for kappa, lam in ((kp, lam_p), (km, lam_m)))
    return d_p, d_m, kp, km, e, lam_p, lam_m


def _channel_offset(k, offsets, gamma: float, mass: float, hbar: float):
    """q (``channel_q``) at k = k0 + offsets and its offset q - k0, z = i gamma m / hbar."""
    q = channel_q(k, gamma, mass, hbar)
    return q, _offset(q, k, offsets, 1j * gamma * mass / hbar)


def _carrier_phase(carrier, sign: float, y):
    """exp(i sign carrier y), rounded once per point and shared by every wavenumber."""
    return np.exp(1j * (sign * carrier * np.asarray(y)))


def _wave(carrier, sign: float, delta, y):
    """exp(i (sign carrier + delta) y): an (nk, ny) outer product for array y, (nk,) for a scalar.

    The carrier phase (``_carrier_phase``) is shared by every wavenumber;
    the modulus comes from exp(i delta y) alone, so a bounded wave cannot
    overflow.  ``carrier`` is one float k0, or one per wavenumber with a
    scalar y.
    """
    return _carrier_phase(carrier, sign, y) * np.exp(1j * np.multiply.outer(delta, y))


def sharp_edge_solve(k, gamma: float, omega, beam_width: float, mass: float, hbar: float):
    """Solve the sharp-edged two-channel matching problem for each k.

    Returns an (nk, 8) complex array [R1, R2, T1, T2, a', b', c', d'].
    With v(kappa) = (1, u(kappa)) the mode vectors and f[+,-] =
    (f(k+) - f(k-))/(k+ - k-), the interior field is
    a' v+ exp(i k+ x) + b' (v exp(i kappa x))[+,-] +
    c' v+ exp(-i k+ (x - L)) + d' (v exp(-i kappa (x - L)))[+,-]: these
    Newton coefficients stay finite and well conditioned through
    gamma = 2 omega, where k+ = k-.  ``omega`` is a scalar or
    an array broadcasting against ``k`` (one coupling per wavenumber, so a
    whole (omega, v) scan is one call; both forms give bit-identical rows);
    every omega must be > 0.  T2 multiplies exp(iqx); where exp(iqL)
    underflows (low speeds) it comes back infinite, the other seven
    columns finite.

    Of the eight matching conditions (value and derivative of both
    channels at x = 0 and x = L), the four value rows give R1, R2, T1 and
    T2_L = T2 exp(iqL) explicitly:

      R1   = a' + ep c' + de d' - 1
      R2   = u+ (a' + ep c') + du b' + due d'
      T1   = (ep a' + de b' + c') / exp(ikL)
      T2_L = u+ (ep a' + c') + due b' + du d'

    with ep,m = exp(i k+- L) (|ep,m| <= 1), u+- = 2 lam+- / omega, and
    de = e[+,-], du = u[+,-] and due = (u e)[+,-] = u+ de + du em from
    ``newton_terms``.  Substituted into the derivative rows (divided by k)
    they leave a 4x4 system in (a', b', c', d') with right-hand side
    (2, 0, 0, 0), whose entries stay bounded at any speed.  Singular
    systems give NaN rows.  Long scans are solved SHARP_BLOCK wavenumbers
    at a time, which bounds the working arrays at about 1 MB.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), k.shape)
    out = np.empty((k.shape[0], 8), dtype=complex)
    for start in range(0, k.shape[0], SHARP_BLOCK):
        part = slice(start, start + SHARP_BLOCK)
        out[part] = sharp_edge_modes(k[part], 0.0, gamma, omega[part], beam_width, mass, hbar)[0]
    return out


def _solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions x of the stacked systems A x = rhs, (n, 4, 4) and (n, 4) -> (n, 4).

    A singular system gives a NaN row; every other row has the bits of
    its own solve.
    """
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan + 0j)
        for i in range(A.shape[0]):
            try:
                out[i] = np.linalg.solve(A[i], rhs[i, :, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def newton_mode(phase, d_p, d_m, gap, y):
    """N = (E+ - E-)/gap of the waves E+- = phase exp(i d+- y), without cancellation.

    gap = d+ - d- is given on its own (it may be 0).  The larger wave,
    E_big = E+ where Im(gap) y <= 0, is formed from its offset, the smaller
    is E_big (1 + expm1(z)), z = -+i gap y, Re z <= 0, and N = i y E_big
    expm1(z)/z: |N| <= |y| |E_big|, N = i y E+ at gap = 0, and no sinc of
    a complex argument, which overflows at large optical depth.  Arguments
    broadcast, y real.  Returns (N, plus_big, E_big, expm1(z)).
    """
    plus_big = gap.imag * y <= 0.0
    e_big = phase * np.exp(1j * (np.where(plus_big, d_p, d_m) * y))
    z = np.where(plus_big, -1j * y, 1j * y) * gap      # Re z <= 0
    expm1 = np.expm1(z)
    phi1 = np.divide(expm1, z, out=np.ones(np.shape(z), dtype=complex), where=z != 0.0)
    return 1j * y * e_big * phi1, plus_big, e_big, expm1


def newton_terms(origin, offsets, gamma: float, omega, L: float, mass: float, hbar: float):
    """Interior modes of a sharp beam of width L and their Newton-basis terms.

    The wavenumbers are k = origin + offsets (``origin`` a float or an
    array, e.g. k itself with offsets 0).  Returns (kp, km, d_p, d_m, u_p,
    u_m, dk, du, ep, em, de): k+- and their offsets k+- - origin
    (``_mode_offsets``), u+- = 2 lam+- / omega, and divided differences
    over (k+, k-) without cancellation: dk = 2 e, du = u[+,-] = -hbar (k+
    + k-) / (m omega), and ep, em = exp(i k+- L) with de = e[+,-] from
    ``newton_mode`` at y = L, the carrier phase origin L rounded once for
    all (``_carrier_phase``).
    """
    k = origin + offsets
    d_p, d_m, kp, km, e, lam_p, lam_m = _mode_offsets(k, offsets, gamma, omega, mass, hbar)
    dk = 2.0 * e
    du = -(kp + km) * (hbar / (mass * omega))
    de, plus_big, e_big, expm1 = newton_mode(_carrier_phase(origin, 1.0, L), d_p, d_m, dk, L)
    e_small = e_big * (1.0 + expm1)
    ep, em = np.where(plus_big, e_big, e_small), np.where(plus_big, e_small, e_big)
    return kp, km, d_p, d_m, 2.0 * lam_p / omega, 2.0 * lam_m / omega, dk, du, ep, em, de


def sharp_edge_modes(origin, offsets, gamma: float, omega, L: float, mass: float, hbar: float):
    """``sharp_edge_solve``'s rows, their ``newton_terms``, T2_L = T2 exp(iqL) and q's offset.

    The wavenumbers are k = origin + offsets, ``omega`` broadcasting
    against them (every omega > 0); T2_L is finite where exp(iqL)
    underflows.  The phases across the beam, exp(i kappa L), are
    ``_wave``'s, from the offsets of kappa to ``origin``; d_q = q - origin
    is ``_channel_offset``'s.
    """
    k = np.atleast_1d(origin + np.asarray(offsets, dtype=float))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), k.shape)
    nk = k.shape[0]
    q, d_q = _channel_offset(k, offsets, gamma, mass, hbar)
    terms = newton_terms(origin, offsets, gamma, omega, L, mass, hbar)
    kp, _, _, _, u_p, u_m, _, du, ep, em, de = terms
    due = u_p * de + du * em   # (u e)[+,-]
    kps = kp / k
    qs = q / k
    inv_k = 1.0 / k
    em_k, um_k, upe = em * inv_k, u_m * inv_k, u_p * ep
    uem_k = um_k * em

    A = np.empty((nk, 4, 4), dtype=complex)
    # Ground derivative at 0 plus ground value at 0.
    A[:, 0, 0] = 1.0 + kps
    A[:, 0, 1] = inv_k
    A[:, 0, 2] = (1.0 - kps) * ep
    A[:, 0, 3] = (1.0 - kps) * de - em_k
    # Excited derivative at 0 plus q/k times the excited value at 0.
    A[:, 1, 0] = (qs + kps) * u_p
    A[:, 1, 1] = (qs + kps) * du + um_k
    A[:, 1, 2] = (qs - kps) * upe
    A[:, 1, 3] = (qs - kps) * due - uem_k
    # Ground derivative at L minus ground value at L.
    A[:, 2, 0] = (kps - 1.0) * ep
    A[:, 2, 1] = (kps - 1.0) * de + em_k
    A[:, 2, 2] = -(kps + 1.0)
    A[:, 2, 3] = -inv_k
    # Excited derivative at L minus q/k times the excited value at L.
    A[:, 3, 0] = (kps - qs) * upe
    A[:, 3, 1] = (kps - qs) * due + uem_k
    A[:, 3, 2] = -(kps + qs) * u_p
    A[:, 3, 3] = -(kps + qs) * du - um_k
    rhs = np.broadcast_to(np.array([2.0, 0.0, 0.0, 0.0], dtype=complex), (nk, 4))
    coef = _solve(A, rhs)
    a, b, c, d = coef.T

    sol = np.empty((nk, 8), dtype=complex)
    sol[:, 0] = a + ep * c + de * d - 1.0
    sol[:, 1] = u_p * (a + ep * c) + du * b + due * d
    sol[:, 2] = (ep * a + de * b + c) / _wave(origin, 1.0, offsets, L)
    t2_exit = u_p * (ep * a + c) + due * b + du * d
    # Back to the anchor at 0; T2 is inf where exp(iqL) underflows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol[:, 3] = t2_exit / _wave(origin, 1.0, d_q, L)
    sol[:, 4:] = coef
    return sol, terms, t2_exit, d_q


# --- transfer matrices ---------------------------------------------------


def sinc(x):
    """sin(x)/x, entire in complex x: 1 at x = 0."""
    x = np.asarray(x)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sin(safe) / safe)


def slice_propagator(k, omega, width, gamma: float, mass: float, hbar: float):
    """Value/derivative propagators across constant-coupling slices.

    Maps (phi1, phi1', phi2, phi2') at x to the same vector at x + width.
    ``omega`` and ``width`` are scalars or 1-D arrays that broadcast to a
    common shape (S,).  Scalars give an (nk, 4, 4) complex array; arrays
    give the (S, nk, 4, 4) stack of all S slices from one batched
    evaluation.

    With zp, zm the eigenvalues of W (phi'' = -W phi), f(W) = f(zm) I +
    f[zp, zm] (W - zm I) for f = cos(w sqrt z), sin(w sqrt z)/sqrt z and
    sqrt z sin(w sqrt z).  f[zp, zm] is taken in the mean root r and half
    gap e of ``mode_split``: with mu = w r, eta = w e and a, b = mu +- eta,
    e.g. (cos a - cos b)/(zp - zm) = -sin mu w sinc(eta)/(2 r).  cos b and
    sin b come from mu and eta by angle addition, so every entry shares the
    one rounding of the carrier phase mu.  All of it is entire through zp = zm
    (gamma = 2 omega) and omega = 0: no special case.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    batched = np.ndim(omega) > 0 or np.ndim(width) > 0
    omega, width = np.broadcast_arrays(
        np.atleast_1d(np.asarray(omega, dtype=float)),
        np.atleast_1d(np.asarray(width, dtype=float)),
    )
    # Per-slice quantities are (S, 1) columns broadcasting against k.
    w = width[:, None]

    # phi'' = -W phi with W = k^2 I - (2m/hbar) M_int.
    W12 = (-mass * omega / hbar).astype(complex)[:, None]

    # The eigenvalue difference zp - zm (in e) and the projector numerators
    # W - zm I are carried in closed form: they are tiny compared to k^2,
    # so forming them by subtracting the k^2-sized eigenvalues would lose
    # up to ten digits.
    root_p, root_m, r, e, lam_p, lam_m = mode_split(k, gamma, omega[:, None], mass, hbar)
    wm1 = _rate_over_hbar(2.0 * mass, lam_m, hbar)    # W11 - zm
    wm2 = _rate_over_hbar(-2.0 * mass, lam_p, hbar)   # W22 - zm = -2 m lam+ / hbar
    mu = w * r
    eta = w * e
    c_mu, s_mu = np.cos(mu), np.sin(mu)
    c_eta, s_eta = np.cos(eta), np.sin(eta)
    w_sinc = w * sinc(eta)
    cos_b = c_mu * c_eta + s_mu * s_eta
    sin_b = s_mu * c_eta - c_mu * s_eta
    even = r * c_mu * w_sinc
    odd = s_mu * c_eta

    def assemble(g, fm):
        """Entries of f(W) = fm I + g (W - zm I)."""
        return g * wm1 + fm, g * W12, g * wm2 + fm

    C11, C12, C22 = assemble(-s_mu * w_sinc / (2.0 * r), cos_b)
    S11, S12, S22 = assemble((even - odd) / (2.0 * r * root_p * root_m), sin_b / root_m)
    D11, D12, D22 = assemble((even + odd) / (2.0 * r), root_m * sin_b)

    # Vector ordering (phi1, phi1', phi2, phi2').
    P = np.stack([
        C11, S11, C12, S12,
        -D11, C11, -D12, C12,
        C12, S12, C22, S22,
        -D12, C12, -D22, C22,
    ], axis=-1).reshape(C11.shape + (4, 4))
    return P if batched else P[0]


# Mirror junction: Sigma H^-1 Sigma with Sigma = diag(1, -1, 1, -1) and
# H^-1 = -J H^T J (J the symplectic form) comes to (H^T)[p][:, p], p below.
_MIRROR = [1, 0, 3, 2]


def _compose(stack: np.ndarray, exps: np.ndarray):
    """Product stack[n-1] @ ... @ stack[0] of an (n, nk, 4, 4) stack, by pairwise reduction.

    Factor j stands for 2**exps[j] stack[j].  Each level multiplies all
    adjacent pairs in one stacked matmul and divides each product by the
    power of two nearest its Frobenius norm, which adds no rounding.  The
    squared norm is one dot product per matrix, far cheaper than np.abs; a
    product whose squared norm overflows (entries beyond about 1e154) is
    left unscaled.  Returns (M, e): the product is 2**e M, with e an (nk,)
    integer array.
    """
    while stack.shape[0] > 1:
        n = stack.shape[0] - stack.shape[0] % 2
        prod = stack[1:n:2] @ stack[0:n:2]
        parts = prod.view(float).reshape(prod.shape[:2] + (32,))
        _, e = np.frexp(np.einsum("ijm,ijm->ij", parts, parts))
        e >>= 1
        prod *= np.ldexp(1.0, -e)[:, :, None, None]
        e = e + exps[1:n:2] + exps[0:n:2]
        if n < stack.shape[0]:
            prod = np.concatenate([prod, stack[n:]])
            e = np.concatenate([e, exps[n:]])
        stack, exps = prod, e
    return stack[0], exps[0]


def transfer_solve(
    origin,
    edges,
    omegas,
    gamma: float,
    mass: float,
    hbar: float,
    return_states: bool = False,
    offsets=0.0,
):
    """Compose slice propagators and impose scattering boundary conditions.

    The wavenumbers are k = origin + offsets (a scan passes k, offsets 0);
    the ground waves at the outer edges are ``_wave``'s, as the regions'.
    ``edges`` has n_slices + 1 entries; slice j spans [edges[j], edges[j+1]]
    with constant coupling omegas[j].  Outside the first/last edge the
    coupling is zero.  Returns an (nk, 4) array [R1, R2, T1, T2]; with
    ``return_states`` also the accumulated state vector at every edge,
    an (nk, n_edges, 4) array (value/derivative form, incident-normalized).

    All slice propagators come from one batched ``slice_propagator`` call
    and are composed by pairwise reduction (``_compose``).  When the widths
    and the couplings both read the same backwards, bit for bit
    (``discretize`` slices a Gaussian that way), only the first ceil(S/2)
    propagators are evaluated: with H the product of the first S//2, the
    full product is mirror(H) [P_mid] H, mirror(H) = Sigma H^-1 Sigma,
    Sigma = diag(1, -1, 1, -1).  phi'' = -W phi with complex-symmetric W
    conserves the Wronskian, so H^-1 = J^-1 H^T J (J the symplectic form):
    the junction is an index shuffle that carries the scale of H.  Any
    other stack has a half stack of none and is composed in full.
    Memory: the evaluated stack holds 256 bytes per slice and wavenumber
    (ceil(S/2) slices when mirrored); the propagator call's peak working
    memory is about 2.7 times that (tracemalloc, 128 slices x 161 k).
    """
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    k = origin + offsets
    nk = k.shape[0]
    edges = np.asarray(edges, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    x_left = edges[0]
    x_right = edges[-1]
    widths = np.diff(edges)
    n_slices = omegas.shape[0]
    mirrored = np.array_equal(widths, widths[::-1]) and np.array_equal(omegas, omegas[::-1])
    n_half = n_slices // 2 if mirrored else 0
    n_eval = n_slices - n_half

    # All composition happens in the scaled basis (phi1, phi1'/s, phi2,
    # phi2'/s), s the power of two in (k, 2k]: every propagator entry is
    # then O(1), which keeps the boundary solve well conditioned for any
    # wavenumber magnitude, and the scaling adds no rounding (scaling by k
    # itself put 7e-12 into A for three 1.85-um slices at 3.5 m/s).  The
    # mirror junction keeps its form there, as the scaling only multiplies
    # the Wronskian by s.
    scale = np.ldexp(1.0, np.frexp(k)[1])
    stack = slice_propagator(k, omegas[:n_eval], widths[:n_eval], gamma, mass, hbar)
    stack[..., 0::2, 1::2] *= scale[:, None, None]
    stack[..., 1::2, 0::2] /= scale[:, None, None]
    exps = np.zeros(stack.shape[:2], dtype=int)
    # the middle slices (all of an unmirrored stack) between H and its mirror
    factors, factor_exps = stack[n_half:], exps[n_half:]
    if n_half:
        H, e_half = _compose(stack[:n_half], exps[:n_half])
        mirror = H.swapaxes(1, 2)[:, _MIRROR][:, :, _MIRROR]
        factors = np.concatenate([H[None], factors, mirror[None]])
        factor_exps = np.concatenate([e_half[None], factor_exps, e_half[None]])
    M, log2_scale = _compose(factors, factor_exps)

    q = channel_q(k, gamma, mass, hbar)

    def wave(channel, kappa, value):
        """A wave of wavenumber kappa and this value at a support edge, in the scaled basis."""
        v = np.zeros((nk, 4), dtype=complex)
        v[:, 2 * channel] = value
        v[:, 2 * channel + 1] = 1j * (kappa / scale) * v[:, 2 * channel]
        return v

    inc = wave(0, k, _wave(origin, 1.0, offsets, x_left))
    r1 = wave(0, -k, _wave(origin, -1.0, -offsets, x_left))
    t1 = wave(0, k, _wave(origin, 1.0, offsets, x_right))
    r2, t2 = wave(1, -q, np.exp(-1j * q * x_left)), wave(1, q, np.exp(1j * q * x_right))

    # With M = 2^e Mt:  Tt1 t1 + Tt2 t2 - R1 Mt r1 - R2 Mt r2 = Mt inc,
    # where Tt = T 2^-e.
    B = np.empty((nk, 4, 4), dtype=complex)
    B[:, :, 0] = t1
    B[:, :, 1] = t2
    B[:, :, 2] = -np.einsum("nij,nj->ni", M, r1)
    B[:, :, 3] = -np.einsum("nij,nj->ni", M, r2)
    rhs = np.einsum("nij,nj->ni", M, inc)
    sol = _solve(B, rhs)
    # one refinement step takes the 4x4 solve to componentwise backward
    # stability
    resid = np.einsum("nij,nj->ni", B, sol) - rhs
    sol = sol - _solve(B, resid)

    amps = np.empty((nk, 4), dtype=complex)
    growth = np.ldexp(1.0, log2_scale)
    amps[:, 0] = sol[:, 2]            # R1
    amps[:, 1] = sol[:, 3]            # R2
    amps[:, 2] = sol[:, 0] * growth   # T1
    amps[:, 3] = sol[:, 1] * growth   # T2

    if not return_states:
        return amps

    # Forward-propagate the now-known left state through the same stack in
    # the scaled basis, then return to value/derivative form.  Slice j of a
    # mirrored stack has the propagator of slice min(j, S - 1 - j).
    n_edges = edges.shape[0]
    states = np.empty((nk, n_edges, 4), dtype=complex)
    y = inc + sol[:, 2:3] * r1 + sol[:, 3:4] * r2
    states[:, 0] = y
    for j in range(n_slices):
        Ps = stack[min(j, n_slices - 1 - j) if mirrored else j]
        y = np.einsum("nij,nj->ni", Ps, y)
        states[:, j + 1] = y
    states[:, :, 1::2] *= scale[:, None, None]
    return amps, states
