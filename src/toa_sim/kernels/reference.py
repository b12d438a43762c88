"""Pure-numpy implementation of the scattering kernels.

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
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "python"


def sqrt_upper(z: np.ndarray) -> np.ndarray:
    """Complex square root with Im >= 0 (and Re >= 0 on the real line)."""
    s = np.sqrt(np.asarray(z, dtype=complex))
    flip = (s.imag < 0.0) | ((s.imag == 0.0) & (s.real < 0.0))
    return np.where(flip, -s, s)


def internal_rates(gamma: float, omega: float) -> tuple[complex, complex]:
    """Eigenrates lam+- of the internal coupling matrix.

    Principal branch of the discriminant, continuous across gamma = 2 omega.
    """
    disc = np.sqrt(complex(gamma * gamma - 4.0 * omega * omega))
    lam_p = -0.25j * gamma + 0.25j * disc
    lam_m = -0.25j * gamma - 0.25j * disc
    return complex(lam_p), complex(lam_m)


def channel_q(k: np.ndarray, gamma: float, mass: float, hbar: float) -> np.ndarray:
    """Excited-channel asymptotic wavenumber q, upper-half-plane branch."""
    k = np.asarray(k, dtype=float)
    if gamma == 0.0:
        return k.astype(complex)
    return sqrt_upper(k * k + 1j * gamma * mass / hbar)


def mode_wavenumbers(
    k: np.ndarray, gamma: float, omega: float, mass: float, hbar: float
) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """Interior mode wavenumbers (k+, k-) and the eigenrates used to get them."""
    lam_p, lam_m = internal_rates(gamma, omega)
    k = np.asarray(k, dtype=float)
    kp = sqrt_upper(k * k - 2.0 * mass * lam_p / hbar)
    km = sqrt_upper(k * k - 2.0 * mass * lam_m / hbar)
    return kp, km, lam_p, lam_m


def sharp_edge_solve(
    k,
    gamma: float,
    omega: float,
    beam_width: float,
    mass: float,
    hbar: float,
):
    """Solve the sharp-edged two-channel matching problem for each k.

    Returns an (nk, 8) complex array with columns
    [R1, R2, T1, T2, a, b, c, d] where (a, b) multiply the
    right-decaying interior modes exp(i k+- x) and (c, d) the left-decaying
    ones exp(-i k+- (x - L)).  omega must be > 0 (the uncoupled omega = 0
    case is handled by the caller).  T2 multiplies exp(iqx); at low speeds,
    where exp(iqL) underflows, it is not representable and comes back
    infinite, while the other seven columns stay finite.

    Raises FloatingPointError via numpy only on hard numerical failure;
    singular systems surface as inf/nan rows for the caller to detect.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = k.shape[0]
    L = beam_width

    q = channel_q(k, gamma, mass, hbar)
    kp, km, lam_p, lam_m = mode_wavenumbers(k, gamma, omega, mass, hbar)
    u_p = 2.0 * lam_p / omega
    u_m = 2.0 * lam_m / omega

    ep = np.exp(1j * kp * L)   # |ep| <= 1
    em = np.exp(1j * km * L)
    fk = np.exp(1j * k * L)
    fq = np.exp(1j * q * L)

    A = np.zeros((nk, 8, 8), dtype=complex)
    rhs = np.zeros((nk, 8), dtype=complex)
    one = np.ones(nk, dtype=complex)

    # Derivative rows are divided by k so all matrix entries stay O(1);
    # this keeps the solve well scaled for any wavenumber magnitude.
    kps = kp / k
    kms = km / k
    qs = q / k

    # Unknown order: [R1, R2, T1, T2, a, b, c, d].
    # Ground-component continuity and derivative at x = 0.
    A[:, 0, 0] = -one
    A[:, 0, 4] = one
    A[:, 0, 5] = one
    A[:, 0, 6] = ep
    A[:, 0, 7] = em
    rhs[:, 0] = 1.0

    A[:, 1, 0] = one
    A[:, 1, 4] = kps
    A[:, 1, 5] = kms
    A[:, 1, 6] = -kps * ep
    A[:, 1, 7] = -kms * em
    rhs[:, 1] = 1.0

    # Excited-component continuity and derivative at x = 0.
    A[:, 2, 1] = -one
    A[:, 2, 4] = u_p
    A[:, 2, 5] = u_m
    A[:, 2, 6] = u_p * ep
    A[:, 2, 7] = u_m * em

    A[:, 3, 1] = qs
    A[:, 3, 4] = kps * u_p
    A[:, 3, 5] = kms * u_m
    A[:, 3, 6] = -kps * u_p * ep
    A[:, 3, 7] = -kms * u_m * em

    # Ground component at x = L.
    A[:, 4, 2] = -fk
    A[:, 4, 4] = ep
    A[:, 4, 5] = em
    A[:, 4, 6] = one
    A[:, 4, 7] = one

    A[:, 5, 2] = -fk
    A[:, 5, 4] = kps * ep
    A[:, 5, 5] = kms * em
    A[:, 5, 6] = -kps
    A[:, 5, 7] = -kms

    # Excited component at x = L.  T2 is solved for anchored at L (the
    # coefficient of exp(iq(x - L))): at low speed exp(iqL) underflows to
    # 0, which would leave this column, and so the whole system, singular.
    A[:, 6, 3] = -one
    A[:, 6, 4] = u_p * ep
    A[:, 6, 5] = u_m * em
    A[:, 6, 6] = u_p
    A[:, 6, 7] = u_m

    A[:, 7, 3] = -qs
    A[:, 7, 4] = kps * u_p * ep
    A[:, 7, 5] = kms * u_m * em
    A[:, 7, 6] = -kps * u_p
    A[:, 7, 7] = -kms * u_m

    try:
        sol = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.full((nk, 8), np.nan + 0j)
        for i in range(nk):
            try:
                sol[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    # Back to the anchor at 0; T2 is inf where it is not representable.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol[:, 3] /= fq
    return sol


# --- transfer matrices ---------------------------------------------------


def _cos_w(z: np.ndarray, w: float) -> np.ndarray:
    """cos(w sqrt(z)), entire in z."""
    return np.cos(w * np.sqrt(np.asarray(z, dtype=complex)))


def _sinc_w(z: np.ndarray, w: float) -> np.ndarray:
    """sin(w sqrt(z)) / sqrt(z), entire in z, -> w as z -> 0."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z)
    small = np.abs(z) * w * w < 1e-12
    safe = np.where(small, 1.0, s)
    out = np.sin(w * safe) / safe
    series = w * (1.0 - z * w * w / 6.0)
    return np.where(small, series, out)


def slice_propagator(
    k,
    omega: float,
    width: float,
    gamma: float,
    mass: float,
    hbar: float,
):
    """Value/derivative propagator across one constant-coupling slice.

    Maps (phi1, phi1', phi2, phi2') at x to the same vector at x + width.
    Returns an (nk, 4, 4) complex array.  Entire in the mode wavenumbers,
    so it is branch-free; the degenerate gamma = 2 omega point uses the
    exact Jordan-block limit.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = k.shape[0]
    w = float(width)
    k2 = (k * k).astype(complex)

    # phi'' = -W phi with W = k^2 I - (2m/hbar) M_int.
    W12 = np.full(nk, -mass * omega / hbar, dtype=complex)

    # The eigenvalue differences dz = zp - zm and the projector numerators
    # W - zm I are carried in closed form: they are tiny compared to k^2,
    # so forming them by subtracting the k^2-sized eigenvalues would lose
    # up to ten digits.
    ones = np.ones(nk, dtype=complex)
    if omega == 0.0:
        zp = k2
        zm = k2 + 1j * gamma * mass / hbar
        dz = np.full(nk, -1j * gamma * mass / hbar, dtype=complex)
        wm1 = dz.copy()                      # W11 - zm
        wm2 = np.zeros(nk, dtype=complex)    # W22 - zm
        wb1 = 0.5 * dz                       # W11 - zb
        wb2 = -0.5 * dz                      # W22 - zb
    else:
        lam_p, lam_m = internal_rates(gamma, omega)
        zp = k2 - 2.0 * mass * lam_p / hbar
        zm = k2 - 2.0 * mass * lam_m / hbar
        dz = np.full(nk, -2.0 * mass * (lam_p - lam_m) / hbar, dtype=complex)
        wm1 = (2.0 * mass * lam_m / hbar) * ones
        wm2 = (mass * (1j * gamma + 2.0 * lam_m) / hbar) * ones
        wb1 = (mass * (lam_p + lam_m) / hbar) * ones
        wb2 = (mass * (1j * gamma + lam_p + lam_m) / hbar) * ones

    # Switch to the exact Jordan-limit form when the mode phases across the
    # slice nearly coincide: there the spectral difference quotient cancels
    # catastrophically, while the first-order Taylor form is accurate to
    # O(dtheta^2).  Crossover near dtheta ~ 1e-5 balances the two errors.
    roots_sum = np.sqrt(zp) + np.sqrt(zm)
    dtheta = w * np.abs(dz / np.where(roots_sum == 0.0, 1.0, roots_sum))
    degenerate = dtheta <= 1e-5

    P = np.zeros((nk, 4, 4), dtype=complex)

    cp, cm = _cos_w(zp, w), _cos_w(zm, w)
    sp, sm = _sinc_w(zp, w), _sinc_w(zm, w)

    dz_safe = np.where(degenerate, 1.0, dz)

    # f(W) = f(zp) P+ + f(zm) P- with spectral projectors
    # P+ = (W - zm I)/(zp - zm); near degeneracy switch to the Jordan form
    # f(W) = f(zb) I + f'(zb) (W - zb I) which is exact when zp == zm.
    zb = 0.5 * (zp + zm)
    cb, sb = _cos_w(zb, w), _sinc_w(zb, w)
    # d/dz cos(w sqrt z) = -w/2 * sinc ; d/dz sinc = (w cos - sinc)/(2 z)
    dcb = -0.5 * w * sb
    zb_small = np.abs(zb) * w * w < 1e-10
    zb_safe = np.where(zb_small, 1.0, zb)
    dsb = np.where(
        zb_small,
        -(w**3) / 6.0 + zb * w**5 / 60.0,
        (w * cb - sb) / (2.0 * zb_safe),
    )

    def assemble(g, fm, fb, dfb):
        """Entries of f(W) from the difference quotient g = (fp - fm)/dz."""
        f11 = np.where(degenerate, fb + dfb * wb1, g * wm1 + fm)
        f22 = np.where(degenerate, fb + dfb * wb2, g * wm2 + fm)
        f12 = np.where(degenerate, dfb * W12, g * W12)
        return f11, f12, f22

    gc = (cp - cm) / dz_safe
    gs = (sp - sm) / dz_safe
    # (zp sp - zm sm)/dz rewritten cancellation-free via the sinc quotient
    gws = zm * gs + sp

    C11, C12, C22 = assemble(gc, cm, cb, dcb)
    S11, S12, S22 = assemble(gs, sm, sb, dsb)
    WSb = zb * sb
    dWSb = sb + zb * dsb
    D11, D12, D22 = assemble(gws, zm * sm, WSb, dWSb)

    # Vector ordering (phi1, phi1', phi2, phi2').
    P[:, 0, 0] = C11
    P[:, 0, 1] = S11
    P[:, 0, 2] = C12
    P[:, 0, 3] = S12
    P[:, 1, 0] = -D11
    P[:, 1, 1] = C11
    P[:, 1, 2] = -D12
    P[:, 1, 3] = C12
    P[:, 2, 0] = C12
    P[:, 2, 1] = S12
    P[:, 2, 2] = C22
    P[:, 2, 3] = S22
    P[:, 3, 0] = -D12
    P[:, 3, 1] = C12
    P[:, 3, 2] = -D22
    P[:, 3, 3] = C22
    return P


def transfer_solve(
    k,
    edges,
    omegas,
    gamma: float,
    mass: float,
    hbar: float,
    return_states: bool = False,
):
    """Compose slice propagators and impose scattering boundary conditions.

    ``edges`` has n_slices + 1 entries; slice j spans [edges[j], edges[j+1]]
    with constant coupling omegas[j].  Outside the first/last edge the
    coupling is zero.  Returns an (nk, 4) array [R1, R2, T1, T2]; with
    ``return_states`` also the accumulated state vector at every edge,
    an (nk, n_edges, 4) array (value/derivative form, incident-normalized).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = k.shape[0]
    edges = np.asarray(edges, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    x_left = edges[0]
    x_right = edges[-1]

    # All composition happens in the scaled basis (phi1, phi1'/k, phi2,
    # phi2'/k): every propagator entry is then O(1), which keeps the
    # boundary solve well conditioned for any wavenumber magnitude.
    M = np.zeros((nk, 4, 4), dtype=complex)
    M[:, 0, 0] = M[:, 1, 1] = M[:, 2, 2] = M[:, 3, 3] = 1.0
    log_scale = np.zeros(nk)
    for j in range(omegas.shape[0]):
        Ps = slice_propagator(k, float(omegas[j]), float(edges[j + 1] - edges[j]), gamma, mass, hbar)
        Ps[:, 0, 1] *= k
        Ps[:, 0, 3] *= k
        Ps[:, 2, 1] *= k
        Ps[:, 2, 3] *= k
        Ps[:, 1, 0] /= k
        Ps[:, 1, 2] /= k
        Ps[:, 3, 0] /= k
        Ps[:, 3, 2] /= k
        M = Ps @ M
        scale = np.max(np.abs(M), axis=(1, 2))
        scale = np.where(scale > 0.0, scale, 1.0)
        M /= scale[:, None, None]
        log_scale += np.log(scale)

    q = channel_q(k, gamma, mass, hbar)
    qk = q / k

    # Boundary vectors of the asymptotic ansatz at the support edges, in
    # the scaled basis.
    inc = np.zeros((nk, 4), dtype=complex)
    inc[:, 0] = np.exp(1j * k * x_left)
    inc[:, 1] = 1j * inc[:, 0]
    r1 = np.zeros((nk, 4), dtype=complex)
    r1[:, 0] = np.exp(-1j * k * x_left)
    r1[:, 1] = -1j * r1[:, 0]
    r2 = np.zeros((nk, 4), dtype=complex)
    r2[:, 2] = np.exp(-1j * q * x_left)
    r2[:, 3] = -1j * qk * r2[:, 2]
    t1 = np.zeros((nk, 4), dtype=complex)
    t1[:, 0] = np.exp(1j * k * x_right)
    t1[:, 1] = 1j * t1[:, 0]
    t2 = np.zeros((nk, 4), dtype=complex)
    t2[:, 2] = np.exp(1j * q * x_right)
    t2[:, 3] = 1j * qk * t2[:, 2]

    # With M = exp(sigma) Mt:  Tt1 t1 + Tt2 t2 - R1 Mt r1 - R2 Mt r2 = Mt inc,
    # where Tt = T exp(-sigma).
    B = np.empty((nk, 4, 4), dtype=complex)
    B[:, :, 0] = t1
    B[:, :, 1] = t2
    B[:, :, 2] = -np.einsum("nij,nj->ni", M, r1)
    B[:, :, 3] = -np.einsum("nij,nj->ni", M, r2)
    rhs = np.einsum("nij,nj->ni", M, inc)
    try:
        sol = np.linalg.solve(B, rhs[:, :, None])[:, :, 0]
        # one refinement step takes the 4x4 solve to componentwise
        # backward stability
        resid = np.einsum("nij,nj->ni", B, sol) - rhs
        sol = sol - np.linalg.solve(B, resid[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.full((nk, 4), np.nan + 0j)
        for i in range(nk):
            try:
                sol[i] = np.linalg.solve(B[i], rhs[i])
            except np.linalg.LinAlgError:
                pass

    amps = np.empty((nk, 4), dtype=complex)
    growth = np.exp(log_scale)
    amps[:, 0] = sol[:, 2]            # R1
    amps[:, 1] = sol[:, 3]            # R2
    amps[:, 2] = sol[:, 0] * growth   # T1
    amps[:, 3] = sol[:, 1] * growth   # T2

    if not return_states:
        return amps

    # Forward-propagate the now-known left state through the slices
    # (true value/derivative basis).
    n_edges = edges.shape[0]
    states = np.zeros((nk, n_edges, 4), dtype=complex)
    y = inc + sol[:, 2:3] * r1 + sol[:, 3:4] * r2
    y[:, 1] *= k
    y[:, 3] *= k
    states[:, 0] = y
    for j in range(omegas.shape[0]):
        P = slice_propagator(k, float(omegas[j]), float(edges[j + 1] - edges[j]), gamma, mass, hbar)
        y = np.einsum("nij,nj->ni", P, y)
        states[:, j + 1] = y
    return amps, states
