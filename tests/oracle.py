"""References for the kernels (extended precision) and the overlap engine (dense).

The kernel references take the same float inputs as the code they check
and evaluate the exact problem those define in ``mpmath``: the 4x4
first-order system psi' = A psi of the (phi1, phi1', phi2, phi2') vector,
its propagators and the scattering boundary solve.  ``dps`` must carry the
growth exp(L Im k) of the slowest wavenumber: 60 digits suffice from 2 m/s
at L = 5 um, 0.5 m/s needs 250.

``dense_gram`` is the overlap engine's reference in double precision, with
no grouping, no factoring and no Hermitian completion: plane waves pair in
closed form, as a quotient or, near resonance, about x1, over all pairs
at once; a direction that holds a Newton mode is integrated by a
Gauss-Legendre rule of its own sizing, and crosses the carrier as plane
waves.
``mpmath_gram`` evaluates the same offset-form pair integrals in extended
precision, a Newton mode as its two plane waves with the cancelled digits
added, or at gap 0 as its Jordan form with closed-form derivatives.
"""

import math

import mpmath as mp
import numpy as np

SERIES_SWITCH = 1.0  # |alpha| width below which a pair takes the form about x1
GAUSS_16 = np.polynomial.legendre.leggauss(16)


def _plane_waves(modes):
    """``Region`` modes as stacked plane waves: coef (P, nk), sign (P,), delta (P, nk), anchor (P,).

    A Newton mode, coef (E+ - E-)/gap, is the pair coef/gap at delta and
    -coef/gap at delta - gap.
    """
    planes = []
    for coef, sign, delta, anchor, gap in modes:
        if gap is None:
            planes.append((coef, sign, delta, anchor))
            continue
        if np.any(gap == 0.0):
            raise ValueError("a Newton mode across the carrier needs a nonzero gap; see mpmath_gram")
        planes += [(coef / gap, sign, delta, anchor), (-coef / gap, sign, delta - gap, anchor)]
    return tuple(np.array(column) for column in zip(*planes))


def _plane_pairs(a, b, x1, x2, k0):
    """Sum over the plane waves a and b (``_plane_waves``) of integral_x1^x2 f_a f_b^H dx, (nk, nk).

    Each pair is [f_a f_b^*]_x1^x2 / (i alpha), f = coef exp(i delta (x -
    anchor)) times the pair's carrier exp(i k0 (s_a (x - a_a) - s_b (x -
    a_b))) (exactly 1 for one direction and anchor), alpha = (s_a - s_b) k0
    + delta_a - conj(delta_b); an infinite endpoint contributes nothing.
    Where |alpha| width < SERIES_SWITCH the quotient cancels and width
    f_a(x1) f_b(x1)^* (exp(u) - 1)/u, u = i alpha width, replaces it, with
    (exp(u) - 1)/u taken as expm1(u)/u (1 at u = 0), as the engine's
    ``_near_values`` takes it.
    """
    width = x2 - x1
    (c_a, s_a, d_a, a_a), (c_b, s_b, d_b, a_b) = a, b
    i_alpha = 1j * (np.subtract.outer(s_a, s_b)[:, :, None, None] * k0
                    + d_a[:, None, :, None] - np.conj(d_b)[None, :, None, :])

    def ends(x):
        carrier = np.exp(1j * k0 * np.subtract.outer(s_a * (x - a_a), s_b * (x - a_b)))
        f_a = c_a * np.exp(1j * d_a * (x - a_a)[:, None])
        f_b = np.conj(c_b * np.exp(1j * d_b * (x - a_b)[:, None]))
        return carrier[:, :, None, None] * f_a[:, None, :, None] * f_b[None, :, None, :]

    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = sum(sign * ends(x) for sign, x in ((1.0, x2), (-1.0, x1)) if not math.isinf(x))
        block = numerator / i_alpha
        if not math.isinf(width):
            series = np.abs(i_alpha) * width < SERIES_SWITCH
            u = i_alpha[series] * width
            ratio = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u != 0.0)
            block[series] = ends(x1)[series] * width * ratio
    return block.sum(axis=(0, 1))


def _quadrature_gram(modes, x1, x2, k0):
    """integral_x1^x2 of the products of ``Region`` modes of one direction, (nk, nk), by Gauss-Legendre.

    With the carrier out the modes are smooth: waves whose wavenumbers lie
    within beta = their real spread + twice their largest |Im| of each
    other.  A Newton mode (E+ - E-) / gap is formed as ``kernels.newton_mode``
    forms it: the larger wave E_big from its offset, the smaller E_big (1 +
    expm1(z)) with Re z <= 0, so N = -+E_big expm1(z) / gap, which stays
    finite where exp(i gap y) overflows (a closed channel); i y E+ at gap
    0.  Panels of beta width / 2 <= 1 at 16 nodes each integrate their
    products, degree-2 polynomials in y included, to rounding.
    """
    wavenumbers = np.concatenate([mode[2] - (0.0 if mode[4] is None else mode[4] * t)
                                  for mode in modes for t in (0.0, 1.0)])
    beta = np.ptp(wavenumbers.real) + 2.0 * np.abs(wavenumbers.imag).max()
    panels = max(1, math.ceil(0.5 * beta * (x2 - x1)))
    t, w = GAUSS_16
    edges = np.linspace(x1, x2, panels + 1)
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * t).ravel()
    field = 0.0
    for coef, sign, delta, anchor, gap in modes:
        y = x - anchor
        wave = np.exp(1j * np.outer(delta, y))
        if gap is not None:
            # E+ is the larger wave where Im(gap) y <= 0: E- = E+ exp(z), z = -i gap y
            plus_big = np.multiply.outer(gap.imag, y) <= 0.0
            big = np.exp(1j * np.where(plus_big, delta[:, None], (delta - gap)[:, None]) * y)
            z = np.where(plus_big, -1j, 1j) * np.outer(gap, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = np.where(plus_big, -big, big) * np.expm1(z) / gap[:, None]
            wave = np.where(gap[:, None] == 0.0, 1j * y * wave, newton)
        # the carrier relative to the first mode's: exactly 1 for one anchor
        field = field + np.exp(1j * k0 * sign * (modes[0][3] - anchor)) * coef[:, None] * wave
    return (field * (half[:, None] * w).ravel()) @ field.conj().T


def dense_gram(modes, x1, x2, k0):
    """integral_x1^x2 psi psi^H dx of psi = sum of ``Region`` modes, pair by pair.

    Pairs of plane waves are closed forms (``_plane_pairs``).  The modes of
    a direction that holds a Newton mode pair among themselves by
    quadrature (``_quadrature_gram``) and across the carrier as plane
    waves, a Newton mode as its two, whose cancellation, about 1/|gap
    width|, scales only those pairs, of size 1/k0.
    """
    directions = [[mode for mode in modes if mode[1] == sign] for sign in (1.0, -1.0)]
    directions = [members for members in directions if members]
    out = np.zeros((modes[0][0].shape[0],) * 2, dtype=complex)
    for a in directions:
        for b in directions:
            if a is b and any(mode[4] is not None for mode in a):
                out += _quadrature_gram(a, x1, x2, k0)
            else:
                out += _plane_pairs(_plane_waves(a), _plane_waves(b), x1, x2, k0)
    return out


def mpmath_gram(modes, x1, x2, k0, rows=None, cols=None, digits=30):
    """Elements of integral_x1^x2 psi psi^H dx of ``Region`` modes, in ``digits``-digit arithmetic.

    Every pair of plane waves in closed form, [f_mu f_nu^*]_x1^x2 / (i
    alpha), alpha = kappa_mu - conj(kappa_nu), with f = coef exp(i kappa
    (x - anchor)) and kappa = sign k0 + delta formed exactly from the
    double inputs, or (x2 - x1) f_mu(x1) f_nu(x1)^* where alpha vanishes;
    an infinite endpoint contributes nothing.  So the carrier phases k0 (x
    - anchor) carry no rounding.  A Newton mode is its two plane waves
    coef/gap at kappa and -coef/gap at kappa - gap, the digits that
    quotient cancels added to the working precision, or at gap 0 its
    Jordan form coef i y exp(i kappa y), whose pairs are the closed form's
    derivatives in kappa.  ``rows`` and ``cols`` select the elements (all
    by default).
    """
    nk = modes[0][0].shape[0]
    rows = range(nk) if rows is None else rows
    cols = range(nk) if cols is None else cols
    width = x2 - x1
    lost = [-math.log10(abs(complex(mode[4][n])) * width)
            for mode in modes if mode[4] is not None and not math.isinf(width)
            for n in set(rows) | set(cols) if mode[4][n] != 0.0]
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    with mp.workdps(digits + 2 * math.ceil(max([0.0] + lost))):
        ends = [None if math.isinf(x) else mp.mpf(float(x)) for x in (x1, x2)]

        def part(weight, kappa, anchor, jordan):
            """(kappa, anchor, jordan, weight exp(i kappa y) at x1 and x2), 0 at an infinite end."""
            return kappa, anchor, jordan, [
                0 if x is None else weight * mp.exp(1j * kappa * (x - anchor)) for x in ends]

        def parts(mode, n):
            """The mode at node n as plane-wave and Jordan parts."""
            coef, sign, delta, anchor, gap = mode
            coef = mp.mpc(complex(coef[n]))
            kappa = float(sign) * mp.mpf(float(k0)) + mp.mpc(complex(delta[n]))
            anchor = mp.mpf(float(anchor))
            if gap is None:
                return [part(coef, kappa, anchor, False)]
            gap = mp.mpc(complex(gap[n]))
            if gap == 0:
                return [part(coef, kappa, anchor, True)]
            return [part(coef / gap, kappa, anchor, False), part(-coef / gap, kappa - gap, anchor, False)]

        def pair(a, b):
            """integral of part a times the conjugate of part b over [x1, x2].

            With F = f_a conj(f_b) and lam = conj(kappa_b), the pair is
            [F] / (i alpha); a Jordan part takes d/dkappa of it (F gains i
            y_a, 1/alpha gives -1/alpha^2), its conjugate d/dlam (F gains
            -i y_b, 1/alpha gives 1/alpha^2).
            """
            (k_a, a_a, j_a, f_a), (k_b, a_b, j_b, f_b) = a, b
            alpha = k_a - mp.conj(k_b)
            values = [f * mp.conj(g) for f, g in zip(f_a, f_b)]
            if alpha == 0:  # a real plane wave with itself, over a finite interval
                if j_a or j_b:
                    raise ValueError("a Jordan part at alpha = 0")
                return (ends[1] - ends[0]) * values[0]

            one = values[1] - values[0]
            if not (j_a or j_b):
                return one / (1j * alpha)

            def bracket(weight):   # a Jordan part lives on a finite region
                return weight(ends[1]) * values[1] - weight(ends[0]) * values[0]
            if j_a and j_b:
                return (bracket(lambda x: (x - a_a) * (x - a_b)) / alpha
                        + 1j * bracket(lambda x: (2 * x - a_a - a_b)) / alpha ** 2
                        - 2 * one / alpha ** 3) / 1j
            y = (lambda x: 1j * (x - a_a)) if j_a else (lambda x: -1j * (x - a_b))
            return (bracket(y) / alpha + (-1 if j_a else 1) * one / alpha ** 2) / 1j

        nodes = {n: [p for mode in modes for p in parts(mode, n)] for n in set(rows) | set(cols)}
        for r, i in enumerate(rows):
            for c, j in enumerate(cols):
                out[r, c] = complex(mp.fsum(pair(a, b) for a in nodes[i] for b in nodes[j]))
    return out


def first_order_matrix(k, omega, gamma, mass, hbar):
    """A of psi' = A psi, with phi'' = -W phi and W = k^2 I - (2m/hbar) M_int."""
    k, omega, gamma, mass, hbar = (mp.mpf(float(x)) for x in (k, omega, gamma, mass, hbar))
    w11 = k * k
    w12 = -mass * omega / hbar
    w22 = k * k + 1j * mass * gamma / hbar
    return mp.matrix([[0, 1, 0, 0], [-w11, 0, -w12, 0], [0, 0, 0, 1], [-w12, 0, -w22, 0]])


def to_complex(matrix):
    return np.array([[complex(matrix[i, j]) for j in range(matrix.cols)]
                     for i in range(matrix.rows)])


def propagator(k, omega, width, gamma, mass, hbar, dps=60):
    """exp(width A) as a complex (4, 4) array."""
    with mp.workdps(dps):
        A = first_order_matrix(k, omega, gamma, mass, hbar)
        return to_complex(mp.expm(mp.mpf(float(width)) * A))


def spectral_propagator(k, omega, width, gamma, mass, hbar, dps=60):
    """exp(width A) from the eigenvalues zp, zm of W; ``propagator`` where they coincide.

    f(W) = f(zm) I + (f(zp) - f(zm))/(zp - zm) (W - zm I) for f = cos(w sqrt z),
    sin(w sqrt z)/sqrt z and sqrt z sin(w sqrt z): far cheaper than expm.
    """
    with mp.workdps(dps):
        A = first_order_matrix(k, omega, gamma, mass, hbar)
        w = mp.mpf(float(width))
        W = mp.matrix([[-A[1, 0], -A[1, 2]], [-A[3, 0], -A[3, 2]]])
        half_trace = (W[0, 0] + W[1, 1]) / 2
        root = mp.sqrt(((W[0, 0] - W[1, 1]) / 2) ** 2 + W[0, 1] * W[1, 0])
        zp, zm = half_trace + root, half_trace - root
        if zp == zm:
            return propagator(k, omega, width, gamma, mass, hbar, dps)
        funcs = (lambda s: mp.cos(w * s), lambda s: mp.sin(w * s) / s, lambda s: s * mp.sin(w * s))
        entries = []
        for f in funcs:
            fp, fm = f(mp.sqrt(zp)), f(mp.sqrt(zm))
            g = (fp - fm) / (zp - zm)
            entries.append(g * (W - zm * mp.eye(2)) + fm * mp.eye(2))
        C, S, D = entries
        P = mp.matrix(4, 4)
        for i in range(2):
            for j in range(2):
                P[2 * i, 2 * j] = C[i, j]
                P[2 * i, 2 * j + 1] = S[i, j]
                P[2 * i + 1, 2 * j] = -D[i, j]
                P[2 * i + 1, 2 * j + 1] = C[i, j]
        return to_complex(P)


def sharp_amplitudes(k, omega, L, gamma, mass, hbar, dps=60):
    """(R1, R2, T1, T2 exp(iqL)) and A = 1 - |T1|^2 - |R1|^2 of one slice [0, L]."""
    with mp.workdps(dps):
        M = mp.expm(mp.mpf(float(L)) * first_order_matrix(k, omega, gamma, mass, hbar))
        k, L = mp.mpf(float(k)), mp.mpf(float(L))
        q = mp.sqrt(k * k + 1j * mp.mpf(float(gamma)) * mp.mpf(float(mass)) / mp.mpf(float(hbar)))
        q = -q if mp.im(q) < 0 else q

        def wave(channel, wn, x):
            e = mp.exp(1j * wn * x)
            return mp.matrix([e, 1j * wn * e, 0, 0] if channel == 0 else [0, 0, e, 1j * wn * e])

        # M (inc + R1 r1 + R2 r2) = T1 t1 + T2 t2
        columns = [wave(0, k, L), wave(1, q, L), -(M * wave(0, -k, 0)), -(M * wave(1, -q, 0))]
        B = mp.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                B[i, j] = columns[j][i]
        T1, T2, R1, R2 = mp.lu_solve(B, M * wave(0, k, 0))
        amplitudes = np.array([complex(R1), complex(R2), complex(T1),
                               complex(T2 * mp.exp(1j * q * L))])
        return amplitudes, float(1 - abs(T1) ** 2 - abs(R1) ** 2)
