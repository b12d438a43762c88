"""References for the kernels (extended precision) and the overlap engine (dense).

The kernel references take the same float inputs as the code they check
and evaluate the exact problem those define in ``mpmath``: the 4x4
first-order system psi' = A psi of the (phi1, phi1', phi2, phi2') vector,
its propagators and the scattering boundary solve.  ``dps`` must carry the
growth exp(L Im k) of the slowest wavenumber: 60 digits suffice from 2 m/s
at L = 5 um, 0.5 m/s needs 250.

``dense_gram`` is the overlap engine's reference in double precision: every
ordered mode pair on its own, as a quotient or a series, with no grouping,
no factoring and no Hermitian completion.
"""

import math

import mpmath as mp
import numpy as np

from toa_sim.scattering import _wave

SERIES_SWITCH = 1e-4  # |alpha| width below which a pair takes the series


def dense_gram(modes, x1, x2):
    """integral_x1^x2 psi psi^H dx of psi = sum of (coef, kappa, anchor, split) modes, pair by pair.

    A pair integrates to [f_mu f_nu^*]_x1^x2 / (i alpha), f = coef exp(i
    kappa (x - anchor)) (``_wave``, so split modes carry their rounded
    carrier) and alpha = kappa_mu - conj(kappa_nu); an infinite endpoint
    contributes nothing.  Where |alpha| width < SERIES_SWITCH the quotient
    cancels and width f_mu(x1) f_nu(x1)^* (exp(u) - 1)/u, u = i alpha
    width, to four terms replaces it.
    """
    width = x2 - x1
    values = [[None if math.isinf(x) else coef * _wave(kappa, split, x - anchor)
               for x in (x1, x2)] for coef, kappa, anchor, split in modes]
    nk = modes[0][0].shape[0]
    out = np.zeros((nk, nk), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for (lo_mu, hi_mu), (_, kappa_mu, _, _) in zip(values, modes):
            for (lo_nu, hi_nu), (_, kappa_nu, _, _) in zip(values, modes):
                i_alpha = 1j * np.subtract.outer(kappa_mu, np.conj(kappa_nu))
                numerator = np.zeros((nk, nk), dtype=complex)
                for sign, mu, nu in ((1.0, hi_mu, hi_nu), (-1.0, lo_mu, lo_nu)):
                    if mu is not None:
                        numerator += sign * np.outer(mu, np.conj(nu))
                block = numerator / i_alpha
                if not math.isinf(width):
                    series = np.abs(i_alpha) * width < SERIES_SWITCH
                    u = i_alpha[series] * width
                    block[series] = np.outer(lo_mu, np.conj(lo_nu))[series] * width * (
                        1.0 + u / 2.0 + u * u / 6.0 + u * u * u / 24.0)
                out += block
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
