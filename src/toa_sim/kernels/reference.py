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

The sharp-edge matching problem has eight conditions (value and
derivative of both channels at x = 0 and x = L).  The four value
conditions give R1, R2, T1 and T2 exp(iqL) explicitly in the interior
coefficients, so ``sharp_edge_solve`` eliminates them and solves only a
4x4 system per wavenumber; it takes one coupling per wavenumber, so a
whole (omega, v) scan is a single batched call.
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "python"
# Wavenumbers per batched sharp-edge solve; its working arrays take about
# 0.5 kB per wavenumber, and 2048 was also the fastest block on a 2-core VM.
SHARP_BLOCK = 2048


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
    k: np.ndarray, gamma: float, omega, mass: float, hbar: float
) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """Interior mode wavenumbers (k+, k-) and the eigenrates used to get them.

    ``omega`` is a scalar or an array broadcasting against ``k``.
    """
    lam_p, lam_m = internal_rates(gamma, omega)
    k = np.asarray(k, dtype=float)
    kp = sqrt_upper(k * k - 2.0 * mass * lam_p / hbar)
    km = sqrt_upper(k * k - 2.0 * mass * lam_m / hbar)
    return kp, km, lam_p, lam_m


def sharp_edge_solve(
    k,
    gamma: float,
    omega,
    beam_width: float,
    mass: float,
    hbar: float,
):
    """Solve the sharp-edged two-channel matching problem for each k.

    Returns an (nk, 8) complex array with columns
    [R1, R2, T1, T2, a, b, c, d] where (a, b) multiply the
    right-decaying interior modes exp(i k+- x) and (c, d) the left-decaying
    ones exp(-i k+- (x - L)).  ``omega`` is a scalar or an array
    broadcasting against ``k`` (one coupling per wavenumber, so a whole
    (omega, v) scan is one call); a scalar is broadcast first, so both
    forms give bit-identical rows.  Every omega must be > 0 (the uncoupled
    omega = 0 case is handled by the caller).  T2 multiplies exp(iqx); at
    low speeds, where exp(iqL) underflows, it is not representable and
    comes back infinite, while the other seven columns stay finite.

    The eight matching conditions (value and derivative of both channels
    at x = 0 and x = L, derivative rows divided by k) are not solved as an
    8x8 system.  The four value rows give R1, R2, T1 and the L-anchored
    T2_L = T2 exp(iqL) explicitly in terms of (a, b, c, d):

      R1   = a + b + ep c + em d - 1
      R2   = u+ (a + ep c) + u- (b + em d)
      T1   = (ep a + em b + c + d) / exp(ikL)
      T2_L = u+ (ep a + c) + u- (em b + d)

    with ep,m = exp(i k+- L) (|ep,m| <= 1) and u+- = 2 lam+- / omega the
    excited components of the interior eigenvectors.  Substituted into the
    four derivative rows they leave a 4x4 system in (a, b, c, d) with
    right-hand side (2, 0, 0, 0), whose entries stay O(1) at any speed.

    Singular systems surface as NaN rows for the caller to detect.  Long
    scans are solved SHARP_BLOCK wavenumbers at a time, which bounds the
    working arrays at about 1 MB whatever the scan size.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    omega = np.broadcast_to(np.asarray(omega, dtype=float), k.shape)
    out = np.empty((k.shape[0], 8), dtype=complex)
    for start in range(0, k.shape[0], SHARP_BLOCK):
        part = slice(start, start + SHARP_BLOCK)
        out[part] = _sharp_edge_block(k[part], gamma, omega[part], beam_width, mass, hbar)
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


def _sharp_edge_block(k, gamma, omega, L, mass, hbar):
    """``sharp_edge_solve`` for one block of wavenumbers and couplings."""
    nk = k.shape[0]
    q = channel_q(k, gamma, mass, hbar)
    kp, km, lam_p, lam_m = mode_wavenumbers(k, gamma, omega, mass, hbar)
    u_p = 2.0 * lam_p / omega
    u_m = 2.0 * lam_m / omega

    ep = np.exp(1j * kp * L)   # |ep| <= 1
    em = np.exp(1j * km * L)
    kps = kp / k
    kms = km / k
    qs = q / k

    A = np.empty((nk, 4, 4), dtype=complex)
    # Ground derivative at 0 plus ground value at 0.
    A[:, 0, 0] = 1.0 + kps
    A[:, 0, 1] = 1.0 + kms
    A[:, 0, 2] = (1.0 - kps) * ep
    A[:, 0, 3] = (1.0 - kms) * em
    # Excited derivative at 0 plus q/k times the excited value at 0.
    A[:, 1, 0] = (qs + kps) * u_p
    A[:, 1, 1] = (qs + kms) * u_m
    A[:, 1, 2] = (qs - kps) * u_p * ep
    A[:, 1, 3] = (qs - kms) * u_m * em
    # Ground derivative at L minus ground value at L.
    A[:, 2, 0] = (kps - 1.0) * ep
    A[:, 2, 1] = (kms - 1.0) * em
    A[:, 2, 2] = -(kps + 1.0)
    A[:, 2, 3] = -(kms + 1.0)
    # Excited derivative at L minus q/k times the excited value at L.
    A[:, 3, 0] = (kps - qs) * u_p * ep
    A[:, 3, 1] = (kms - qs) * u_m * em
    A[:, 3, 2] = -(kps + qs) * u_p
    A[:, 3, 3] = -(kms + qs) * u_m
    rhs = np.broadcast_to(np.array([2.0, 0.0, 0.0, 0.0], dtype=complex), (nk, 4))
    coef = _solve(A, rhs)
    a, b, c, d = coef.T

    sol = np.empty((nk, 8), dtype=complex)
    sol[:, 0] = a + b + ep * c + em * d - 1.0
    sol[:, 1] = u_p * (a + ep * c) + u_m * (b + em * d)
    sol[:, 2] = (ep * a + em * b + c + d) / np.exp(1j * k * L)
    # Back to the anchor at 0; T2 is inf where exp(iqL) underflows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol[:, 3] = (u_p * (ep * a + c) + u_m * (em * b + d)) / np.exp(1j * q * L)
    sol[:, 4:] = coef
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

    All slice propagators come from one batched ``slice_propagator`` call
    and are composed by pairwise reduction (``_compose``), rescaled by
    powers of two.  When the widths and the couplings both read the same
    backwards, bit for bit (``discretize`` slices a Gaussian that way), the
    second half of the stack is the mirror image of the first: only the
    first ceil(S/2) propagators are evaluated, H is the product of the
    first S//2 of them, and the full product is mirror(H) [P_mid] H with
    mirror(H) = Sigma H^-1 Sigma, Sigma = diag(1, -1, 1, -1).  The equation
    phi'' = -W phi with complex-symmetric W conserves the Wronskian, so
    H^-1 = J^-1 H^T J (J the symplectic form of the (phi1, phi1', phi2,
    phi2') basis): the junction is an index shuffle without an inversion,
    and it carries the scale of H.  Any other stack is composed in full.
    The evaluated stack holds 256 bytes per slice and wavenumber (ceil(S/2)
    slices for a mirrored stack, S otherwise); the propagator call's peak
    working memory is about three times that.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = k.shape[0]
    edges = np.asarray(edges, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    x_left = edges[0]
    x_right = edges[-1]
    widths = np.diff(edges)
    n_slices = omegas.shape[0]
    mirrored = np.array_equal(widths, widths[::-1]) and np.array_equal(omegas, omegas[::-1])
    n_half = n_slices // 2
    n_eval = n_slices - n_half if mirrored else n_slices

    # All composition happens in the scaled basis (phi1, phi1'/k, phi2,
    # phi2'/k): every propagator entry is then O(1), which keeps the
    # boundary solve well conditioned for any wavenumber magnitude.  The
    # mirror junction keeps its form there, as the scaling only multiplies
    # the Wronskian by k.
    stack = slice_propagator(k, omegas[:n_eval], widths[:n_eval], gamma, mass, hbar)
    stack[..., 0::2, 1::2] *= k[:, None, None]
    stack[..., 1::2, 0::2] /= k[:, None, None]
    exps = np.zeros(stack.shape[:2], dtype=int)
    if mirrored:
        # the middle slice of an odd stack, if any, between H and its mirror
        factors, factor_exps = stack[n_half:], exps[n_half:]
        if n_half:
            H, e_half = _compose(stack[:n_half], exps[:n_half])
            mirror = H.swapaxes(1, 2)[:, _MIRROR][:, :, _MIRROR]
            factors = np.concatenate([H[None], factors, mirror[None]])
            factor_exps = np.concatenate([e_half[None], factor_exps, e_half[None]])
        M, log2_scale = _compose(factors, factor_exps)
    else:
        M, log2_scale = _compose(stack, exps)

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
    states[:, :, 1::2] *= k[:, None, None]
    return amps, states
