"""References for the kernels (extended precision) and the overlap engine (dense).

The kernel references take the same float inputs as the code they check
and evaluate the exact problem those define in ``mpmath``: the 4x4
first-order system psi' = A psi of the (phi1, phi1', phi2, phi2') vector,
its propagators and the scattering boundary solve.  ``dps`` must carry the
growth exp(L Im k) of the slowest wavenumber: 60 digits suffice from 2 m/s
at L = 5 um, 0.5 m/s needs 250.

``dense_gram`` is the overlap engine's reference in double precision: every
ordered mode pair on its own, as a quotient or a series, with no grouping,
no factoring, no quadrature and no Hermitian completion.  ``mpmath_gram``
evaluates the same offset-form pair integrals in extended precision.
"""

import math

import mpmath as mp
import numpy as np

SERIES_SWITCH = 1e-2  # |alpha| width below which a pair takes the series


def dense_gram(modes, x1, x2, k0):
    """integral_x1^x2 psi psi^H dx of psi = sum of (coef, sign, delta, anchor) modes, pair by pair.

    The offset form of ``Region``'s waves: a pair integrates to [f_mu
    f_nu^*]_x1^x2 / (i alpha), f = coef exp(i delta (x - anchor)) times the
    pair's carrier exp(i k0 (s_mu (x - a_mu) - s_nu (x - a_nu))) (exactly 1
    for one direction and anchor), alpha = (s_mu - s_nu) k0 + delta_mu -
    conj(delta_nu); an infinite endpoint contributes nothing.  Where
    |alpha| width < SERIES_SWITCH the quotient cancels and width
    f_mu(x1) f_nu(x1)^* (exp(u) - 1)/u, u = i alpha width, to eight terms
    replaces it.
    """
    width = x2 - x1
    nk = modes[0][0].shape[0]
    out = np.zeros((nk, nk), dtype=complex)

    def value(mode, x):
        coef, _, delta, anchor = mode
        return None if math.isinf(x) else coef * np.exp(1j * delta * (x - anchor))

    def carrier(mu, nu, x):
        return np.exp(1j * k0 * (mu[1] * (x - mu[3]) - nu[1] * (x - nu[3])))

    with np.errstate(divide="ignore", invalid="ignore"):
        for mu in modes:
            for nu in modes:
                i_alpha = 1j * ((mu[1] - nu[1]) * k0 + np.subtract.outer(mu[2], np.conj(nu[2])))
                numerator = np.zeros((nk, nk), dtype=complex)
                for sign, x in ((1.0, x2), (-1.0, x1)):
                    if not math.isinf(x):
                        numerator += sign * carrier(mu, nu, x) * np.outer(
                            value(mu, x), np.conj(value(nu, x)))
                block = numerator / i_alpha
                if not math.isinf(width):
                    series = np.abs(i_alpha) * width < SERIES_SWITCH
                    u = i_alpha[series] * width
                    total = np.ones_like(u)
                    for n in range(8, 1, -1):
                        total = 1.0 + total * u / n
                    block[series] = (carrier(mu, nu, x1) * np.outer(
                        value(mu, x1), np.conj(value(nu, x1))))[series] * width * total
                out += block
    return out


def mpmath_gram(modes, x1, x2, k0, rows=None, cols=None, digits=30):
    """Elements of integral_x1^x2 psi psi^H dx of offset-form modes, in ``digits``-digit arithmetic.

    Every pair in closed form, [f_mu f_nu^*]_x1^x2 / (i (kappa_mu -
    conj(kappa_nu))) with f = coef exp(i kappa (x - anchor)) and kappa =
    sign k0 + delta formed exactly from the double inputs, or (x2 - x1)
    f_mu(x1) f_nu(x1)^* where that denominator vanishes; an infinite
    endpoint contributes nothing.  So the carrier phases k0 (x - anchor)
    carry no rounding.  ``rows`` and ``cols`` select the elements (all by
    default).
    """
    nk = modes[0][0].shape[0]
    rows = range(nk) if rows is None else rows
    cols = range(nk) if cols is None else cols
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    with mp.workdps(digits):
        carrier = mp.mpf(float(k0))
        ends = []  # per mode and sampled node: kappa and the values at x1 and x2
        for coef, sign, delta, anchor in modes:
            node_ends = {}
            for n in set(rows) | set(cols):
                kappa = float(sign) * carrier + mp.mpc(complex(delta[n]))
                node_ends[n] = (kappa, [
                    0 if math.isinf(x) else mp.mpc(complex(coef[n]))
                    * mp.exp(1j * kappa * (mp.mpf(float(x)) - mp.mpf(float(anchor))))
                    for x in (x1, x2)])
            ends.append(node_ends)
        for r, i in enumerate(rows):
            for c, j in enumerate(cols):
                total = mp.mpc(0)
                for mode_mu in ends:
                    k_i, (lo_i, hi_i) = mode_mu[i]
                    for mode_nu in ends:
                        k_j, (lo_j, hi_j) = mode_nu[j]
                        alpha = k_i - mp.conj(k_j)
                        if alpha == 0:  # a real kappa with itself, over a finite interval
                            total += (mp.mpf(float(x2)) - mp.mpf(float(x1))) * lo_i * mp.conj(lo_j)
                        else:
                            total += (hi_i * mp.conj(hi_j) - lo_i * mp.conj(lo_j)) / (1j * alpha)
                out[r, c] = complex(total)
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
