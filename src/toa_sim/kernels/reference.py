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


def internal_rates(gamma: float, omega):
    """Eigenrates lam+- of the internal coupling matrix.

    Principal branch of the discriminant, continuous across gamma = 2 omega.
    A scalar omega gives Python complex rates, an array of omegas arrays of
    rates; at omega = 0 they are exactly 0 and -i gamma/2.
    """
    disc = np.sqrt(gamma * gamma - 4.0 * omega * omega + 0j)
    lam_p = -0.25j * gamma + 0.25j * disc
    lam_m = -0.25j * gamma - 0.25j * disc
    if isinstance(lam_p, np.ndarray):
        return lam_p, lam_m
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


def _rate_over_hbar(c: float, z: np.ndarray, hbar: float) -> np.ndarray:
    """c * z / hbar, each part divided by hbar and so correctly rounded.

    numpy's complex-by-real division multiplies by a rounded 1/hbar.
    """
    out = np.empty(z.shape, dtype=complex)
    out.real = c * z.real / hbar
    out.imag = c * z.imag / hbar
    return out


def _sinc_w(z: np.ndarray, root: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sin(w sqrt(z)) / sqrt(z) given root = sqrt(z); entire in z, -> w as z -> 0."""
    small = np.abs(z) * w * w < 1e-12
    safe = np.where(small, 1.0, root)
    out = np.sin(w * safe) / safe
    series = w * (1.0 - z * w * w / 6.0)
    return np.where(small, series, out)


def slice_propagator(
    k,
    omega,
    width,
    gamma: float,
    mass: float,
    hbar: float,
):
    """Value/derivative propagators across constant-coupling slices.

    Maps (phi1, phi1', phi2, phi2') at x to the same vector at x + width.
    ``omega`` and ``width`` are scalars or 1-D arrays that broadcast to a
    common shape (S,).  Scalars give an (nk, 4, 4) complex array; arrays
    give the (S, nk, 4, 4) stack of all S slices from one batched
    evaluation.  Entire in the mode wavenumbers, so it is branch-free:
    omega = 0 takes the general formulas (its rates are exactly 0 and
    -i gamma/2), and the degenerate gamma = 2 omega point uses the exact
    Jordan-block limit.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    batched = np.ndim(omega) > 0 or np.ndim(width) > 0
    omega, width = np.broadcast_arrays(
        np.atleast_1d(np.asarray(omega, dtype=float)),
        np.atleast_1d(np.asarray(width, dtype=float)),
    )
    # Per-slice quantities are (S, 1) columns broadcasting against k.
    w = width[:, None]
    k2 = (k * k).astype(complex)

    # phi'' = -W phi with W = k^2 I - (2m/hbar) M_int.
    W12 = (-mass * omega / hbar).astype(complex)[:, None]

    # The eigenvalue differences dz = zp - zm and the projector numerators
    # W - zm I are carried in closed form: they are tiny compared to k^2,
    # so forming them by subtracting the k^2-sized eigenvalues would lose
    # up to ten digits.
    lam_p, lam_m = internal_rates(gamma, omega)
    shift_p = _rate_over_hbar(2.0 * mass, lam_p, hbar)[:, None]
    shift_m = _rate_over_hbar(2.0 * mass, lam_m, hbar)[:, None]
    zp = k2 - shift_p
    zm = k2 - shift_m
    dz = _rate_over_hbar(-2.0 * mass, lam_p - lam_m, hbar)[:, None]
    wm1 = shift_m                                                          # W11 - zm
    wm2 = _rate_over_hbar(mass, 1j * gamma + 2.0 * lam_m, hbar)[:, None]     # W22 - zm
    wb1 = _rate_over_hbar(mass, lam_p + lam_m, hbar)[:, None]                # W11 - zb
    wb2 = _rate_over_hbar(mass, 1j * gamma + lam_p + lam_m, hbar)[:, None]   # W22 - zb

    # Switch to the exact Jordan-limit form when the mode phases across the
    # slice nearly coincide: there the spectral difference quotient cancels
    # catastrophically, while the first-order Taylor form is accurate to
    # O(dtheta^2).  Crossover near dtheta ~ 1e-5 balances the two errors.
    root_p, root_m = np.sqrt(zp), np.sqrt(zm)
    roots_sum = root_p + root_m
    dtheta = w * np.abs(dz / np.where(roots_sum == 0.0, 1.0, roots_sum))
    degenerate = dtheta <= 1e-5

    cp, cm = np.cos(w * root_p), np.cos(w * root_m)
    sp, sm = _sinc_w(zp, root_p, w), _sinc_w(zm, root_m, w)

    dz_safe = np.where(degenerate, 1.0, dz)

    # f(W) = f(zp) P+ + f(zm) P- with spectral projectors
    # P+ = (W - zm I)/(zp - zm); near degeneracy switch to the Jordan form
    # f(W) = f(zb) I + f'(zb) (W - zb I) which is exact when zp == zm.
    zb = 0.5 * (zp + zm)
    root_b = np.sqrt(zb)
    cb, sb = np.cos(w * root_b), _sinc_w(zb, root_b, w)
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
    P = np.empty(zp.shape + (4, 4), dtype=complex)
    P[..., 0, 0] = C11
    P[..., 0, 1] = S11
    P[..., 0, 2] = C12
    P[..., 0, 3] = S12
    P[..., 1, 0] = -D11
    P[..., 1, 1] = C11
    P[..., 1, 2] = -D12
    P[..., 1, 3] = C12
    P[..., 2, 0] = C12
    P[..., 2, 1] = S12
    P[..., 2, 2] = C22
    P[..., 2, 3] = S22
    P[..., 3, 0] = -D12
    P[..., 3, 1] = C12
    P[..., 3, 2] = -D22
    P[..., 3, 3] = C22
    return P if batched else P[0]


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

    All slice propagators come from one batched ``slice_propagator`` call.
    The stack holds 256 bytes per slice and wavenumber; the call's peak
    working memory is about three times that.
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
    stack = slice_propagator(k, omegas, np.diff(edges), gamma, mass, hbar)
    stack[..., 0::2, 1::2] *= k[:, None, None]
    stack[..., 1::2, 0::2] /= k[:, None, None]
    M = np.zeros((nk, 4, 4), dtype=complex)
    M[:, 0, 0] = M[:, 1, 1] = M[:, 2, 2] = M[:, 3, 3] = 1.0
    log_scale = np.zeros(nk)
    for Ps in stack:
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

    # Forward-propagate the now-known left state through the same stack in
    # the scaled basis, then return to value/derivative form.
    n_edges = edges.shape[0]
    states = np.empty((nk, n_edges, 4), dtype=complex)
    y = inc + sol[:, 2:3] * r1 + sol[:, 3:4] * r2
    states[:, 0] = y
    for j, Ps in enumerate(stack):
        y = np.einsum("nij,nj->ni", Ps, y)
        states[:, j + 1] = y
    states[:, :, 1::2] *= k[:, None, None]
    return amps, states
