"""The numpy kernels: the namespace runs report, batched solves, and exactness."""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAMMA, HBAR, MASS
from oracle import sharp_amplitudes
from toa_sim import kernels
from toa_sim.kernels import channel_q, internal_rates, newton_terms
from toa_sim.model import cesium_config
from toa_sim.scattering import sharp_edge_rows
from toa_sim.transfer import discretize, transfer_rows

EPS = np.finfo(float).eps


def test_active_backend_is_numpy():
    # run environments record kernels.active.BACKEND_NAME
    assert kernels.active is kernels
    assert kernels.active.BACKEND_NAME == "python"


def test_batch_matches_single_point():
    rng = np.random.default_rng(33)
    ks =MASS * np.array([20.0, 100.0, 300.0]) / HBAR
    batch = kernels.sharp_edge_solve(ks, GAMMA, 5 * GAMMA, 5e-6, MASS, HBAR)
    for i, k in enumerate(ks):
        single = kernels.sharp_edge_solve(np.array([k]), GAMMA, 5 * GAMMA, 5e-6, MASS, HBAR)[0]
        assert np.abs(batch[i] - single).max() == 0.0


# --- the eliminated 4x4 solve against the full 8x8 matching system -------------


def sharp_edge_solve_8x8(k, gamma, omega, L):
    """All eight matching conditions as one 8x8 system per k (the elimination's oracle).

    Unknowns [R1, R2, T1, T2_L, a, b, c, d] with T2_L = T2 exp(iqL);
    derivative rows divided by k.  Returns rows in the kernel's layout.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = k.shape[0]
    q = channel_q(k, gamma, MASS, HBAR)
    # the kernel's e+- = exp(i k+- L) and exp(iqL), so that both solve one
    # discrete system
    kp, km, _, _, u_p, u_m, _, _, ep, em, _ = newton_terms(k, 0.0, gamma, omega, L, MASS, HBAR)
    d_q = kernels._channel_offset(k, 0.0, gamma, MASS, HBAR)[1]
    fk, fq = np.exp(1j * k * L), kernels._wave(k, 1.0, d_q, L)
    kps, kms, qs = kp / k, km / k, q / k
    A = np.zeros((nk, 8, 8), dtype=complex)
    rhs = np.zeros((nk, 8), dtype=complex)
    one = np.ones(nk, dtype=complex)

    # Unknown order: [R1, R2, T1, T2_L, a, b, c, d].
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

    sol = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol[:, 3] /= fq
    return sol, fq


# Omega/gamma: both sides of the degenerate point, strong and weak driving.
KERNEL_OMEGAS = [0.5 * (1.0 - 1e-6), 0.5 * (1.0 + 1e-6), 5.0, 0.3]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    v=st.lists(st.floats(0.02, 900.0), min_size=1, max_size=8),
    omega_in_gamma=st.sampled_from(KERNEL_OMEGAS),
    L=st.floats(0.5e-6, 50e-6),
)
def test_eliminated_solve_matches_8x8(v, omega_in_gamma, L):
    # The kernel's Newton coefficients against the 8x8 solve's exponential
    # ones, converted: a' = a + b, b' = -b dk, c' = c + d, d' = -d dk.
    # Agreement is normwise: each entry against the row's largest of R1, R2,
    # T1, a', b' L, c', d' L (b' and d' multiply divided differences of
    # size ~L; deep absorption leaves T1 and c', d' many decades below the
    # largest).  T2 is compared through T2 exp(iqL), the excited value at
    # the exit.
    k = MASS * np.asarray(v) / HBAR
    omega = omega_in_gamma * GAMMA
    new = kernels.sharp_edge_solve(k, GAMMA, omega, L, MASS, HBAR)
    old, fq = sharp_edge_solve_8x8(k, GAMMA, omega, L)
    dk = newton_terms(k, 0.0, GAMMA, omega, L, MASS, HBAR)[6]
    a, b, c, d = old[:, 4:].T
    old[:, 4:] = np.stack([a + b, -b * dk, c + d, -d * dk], axis=1)
    unit = np.array([1.0, 1.0, 1.0, 1.0, L, 1.0, L])
    cols = [0, 1, 2, 4, 5, 6, 7]
    scale = np.abs(old[:, cols] * unit).max(axis=1)
    assert np.all(np.abs((new[:, cols] - old[:, cols]) * unit).max(axis=1) <= 1e-12 * scale)
    finite = np.isfinite(old[:, 3])
    assert np.array_equal(np.isfinite(new[:, 3]), finite)
    t2_gap = np.abs(new[finite, 3] - old[finite, 3]) * np.abs(fq[finite])
    assert np.all(t2_gap <= 1e-12 * scale[finite])


def test_omega_array_broadcasts_against_k(monkeypatch):
    # one coupling per wavenumber gives each point the row of its own scalar
    # solve, also across the blocks a long scan is solved in
    monkeypatch.setattr(kernels, "SHARP_BLOCK", 3)
    v = np.array([0.02, 3.0, 150.0, 900.0])
    k = MASS * v / HBAR
    omegas = np.array([5.0, 0.3, 0.5 * (1 + 1e-6), 2.0]) * GAMMA
    batch = kernels.sharp_edge_solve(k, GAMMA, omegas, 5e-6, MASS, HBAR)
    for i in range(len(k)):
        single = kernels.sharp_edge_solve(k[i:i + 1], GAMMA, float(omegas[i]), 5e-6, MASS, HBAR)
        assert np.array_equal(batch[i], single[0])


def test_degenerate_point_is_finite_and_alone():
    # exactly at gamma = 2 omega the interior modes coincide, and the Newton
    # basis does not collapse there: that row is finite, and every row of
    # the batch is the row of its own solve
    k = MASS * np.array([20.0, 20.0, 20.0]) / HBAR
    omegas = np.array([5.0 * GAMMA, 0.5 * GAMMA, 0.3 * GAMMA])
    rows = kernels.sharp_edge_solve(k, GAMMA, omegas, 5e-6, MASS, HBAR)
    assert np.all(np.isfinite(rows))
    for i in range(3):
        single = kernels.sharp_edge_solve(k[i:i + 1], GAMMA, omegas[i], 5e-6, MASS, HBAR)
        assert np.array_equal(rows[i], single[0])


def test_solve_singular_row_is_nan_others_keep_their_bits():
    # one exactly singular system in a batch: that row is NaN, every other
    # row is bit for bit the solve of its own system
    rng = np.random.default_rng(9)
    A = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    A[2, 3] = 0.0
    rhs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    x = kernels._solve(A, rhs)
    assert np.all(np.isnan(x[2]))
    for i in (0, 1, 3, 4):
        assert np.array_equal(x[i], np.linalg.solve(A[i], rhs[i]))


# --- exactness through gamma = 2 omega, against mpmath --------------------------


@pytest.mark.parametrize("omega_in_gamma", [1e-8, 1e-6, 1e-3, 0.3, 0.5, 5.0])
def test_internal_rates_match_mpmath(omega_in_gamma):
    # lam+ comes from the product of the roots: no cancellation at weak coupling
    omega = omega_in_gamma * GAMMA
    with mpmath.workdps(50):
        g, om = mpmath.mpf(GAMMA), mpmath.mpf(omega)
        disc = mpmath.sqrt(g * g - 4 * om * om)
        exact = (complex(-0.25j * g + 0.25j * disc), complex(-0.25j * g - 0.25j * disc))
    for got, want in zip(internal_rates(GAMMA, omega)[:2], exact):
        assert abs(got - want) <= 4 * EPS * abs(want)


def test_internal_rates_limits():
    assert internal_rates(GAMMA, 0.0)[:2] == (0.0, -0.5j * GAMMA)
    assert internal_rates(0.0, 0.0) == (0.0, 0.0, 0.0)
    lam_p, lam_m, gap = internal_rates(0.0, 1e8)
    assert abs(lam_p + 0.5e8) <= 4 * EPS * 0.5e8 and abs(lam_m - 0.5e8) <= 4 * EPS * 0.5e8
    assert gap == -1e8
    rates = internal_rates(GAMMA, np.array([0.0, 0.5 * GAMMA]))
    assert rates[0][0] == 0.0 and rates[1][0] == -0.5j * GAMMA and rates[2][1] == 0.0


ORACLE_V = np.array([0.5, 2.0, 20.0, 100.0, 265.0, 400.0, 900.0])
ORACLE_OMEGAS = [0.5] + [0.5 * (1 + s * e) for e in (1e-9, 1e-7, 1e-5, 1e-3)
                         for s in (1.0, -1.0)] + [0.3, 5.0]


@functools.lru_cache(maxsize=None)
def sharp_oracle(omega_in_gamma):
    """mpmath (R1, R2, T1, T2 exp(iqL)) rows and A of the 5-um beam over ORACLE_V."""
    k = MASS * ORACLE_V / HBAR
    rows, absorption = zip(*(
        sharp_amplitudes(kk, omega_in_gamma * GAMMA, 5e-6, GAMMA, MASS, HBAR,
                         dps=60 if v >= 2.0 else 250)
        for kk, v in zip(k, ORACLE_V)))
    return np.array(rows), np.array(absorption)


@pytest.mark.parametrize("omega_in_gamma", ORACLE_OMEGAS)
def test_sharp_rows_match_oracle(omega_in_gamma):
    cfg = cesium_config(omega=omega_in_gamma * GAMMA)
    k = MASS * ORACLE_V / HBAR
    rows = sharp_edge_rows(k, cfg)
    ref, a_ref = sharp_oracle(omega_in_gamma)
    a = 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2
    assert np.abs(a - a_ref).max() <= 1e-13
    got = rows[:, :4].copy()
    got[:, 3] *= np.exp(1j * channel_q(k, GAMMA, MASS, HBAR) * cfg.beam_width)
    assert np.all(np.abs(got - ref).max(axis=1) <= 1e-8 * np.abs(ref).max(axis=1))


@pytest.mark.parametrize("omega_in_gamma", ORACLE_OMEGAS)
def test_one_slice_transfer_matches_oracle(omega_in_gamma):
    cfg = cesium_config(omega=omega_in_gamma * GAMMA)
    fast = ORACLE_V >= 20.0
    rows = transfer_rows(MASS * ORACLE_V[fast] / HBAR, discretize(cfg.profile, 1, config=cfg), cfg)
    a = 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2
    assert np.abs(a - sharp_oracle(omega_in_gamma)[1][fast]).max() <= 1e-13
