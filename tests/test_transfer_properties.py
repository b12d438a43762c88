"""Property tests of the batched transfer kernels (Hypothesis).

The slice propagators of a whole profile come from one batched
``slice_propagator`` call.  These tests pin that batch to per-slice scalar
calls, ``transfer_solve`` to an independent slice-by-slice composition
(``sequential_transfer``), whether it composes a mirrored half stack or
the full one, and its edge states to forward propagation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAMMA, HBAR, MASS
from oracle import spectral_propagator
from toa_sim.kernels import channel_q, slice_propagator, transfer_solve
from toa_sim.model import RabiProfile, cesium_config
from toa_sim.transfer import discretize

EPS = np.finfo(float).eps
# A fixed example set keeps the suite deterministic.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Omega = gamma/2 (1 + eps), from the degenerate point's neighbourhood out.
NEAR_DEGENERATE_EPS = st.floats(1e-11, 1e-3).flatmap(lambda e: st.sampled_from([e, -e]))


def to_scaled_basis(P, k):
    """Propagators in the (phi1, phi1'/k, phi2, phi2'/k) basis, where entries are O(1)."""
    P = np.array(P)
    P[..., 0::2, 1::2] *= k[:, None, None]
    P[..., 1::2, 0::2] /= k[:, None, None]
    return P


def assert_matches_oracle(P, k, omega, width, gamma, tol=10.0):
    """Each (nk, 4, 4) propagator within tol eps max(1, w k), normwise, of the mpmath one."""
    for i, kk in enumerate(k):
        ref = to_scaled_basis(spectral_propagator(kk, omega, width, gamma, MASS, HBAR, 80)[None],
                              np.array([kk]))[0]
        err = np.abs(to_scaled_basis(P[i:i + 1], np.array([kk]))[0] - ref).max()
        assert err <= tol * EPS * max(1.0, width * kk) * np.abs(ref).max()


def assert_batch_matches_scalar(k, omegas, widths, gamma):
    batch = slice_propagator(k, omegas, widths, gamma, MASS, HBAR)
    assert batch.shape == (len(omegas), len(k), 4, 4)
    for j, (om, w) in enumerate(zip(omegas, widths)):
        single = slice_propagator(k, float(om), float(w), gamma, MASS, HBAR)
        assert single.shape == (len(k), 4, 4)
        a, b = to_scaled_basis(batch[j], k), to_scaled_basis(single, k)
        scale = np.abs(b).max(axis=(1, 2))
        assert np.all(np.abs(a - b).max(axis=(1, 2)) <= 1e-15 * scale)


@st.composite
def slice_batches(draw):
    """(k, omegas, widths, gamma) with zero, generic, near-degenerate and zero-width slices."""
    gamma = draw(st.sampled_from([GAMMA, 0.0, 0.4 * GAMMA]))
    v = draw(st.lists(st.floats(0.5, 500.0), min_size=1, max_size=5))
    n = draw(st.integers(1, 10))
    omegas, widths = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "generic", "degenerate"]))
        if kind == "zero":
            omegas.append(0.0)
        elif kind == "generic" or gamma == 0.0:
            omegas.append(draw(st.floats(1e5, 2.2e8)))
        else:
            omegas.append(0.5 * gamma * (1.0 + draw(NEAR_DEGENERATE_EPS)))
        widths.append(draw(st.one_of(st.just(0.0), st.floats(1e-9, 3e-7))))
    k = MASS * np.array(v) / HBAR
    return k, np.array(omegas), np.array(widths), gamma


@PROPERTY_SETTINGS
@given(slice_batches())
def test_batched_propagator_matches_scalar_calls(batch):
    assert_batch_matches_scalar(*batch)


def test_batched_propagator_edge_cases():
    # A fixed batch holding every case the property draws from.
    k = MASS * np.array([2.0, 100.0, 400.0]) / HBAR
    eps = [-1e-3, -1e-9, 1e-9, 1e-3]
    omegas = np.array([0.0, 5 * GAMMA, 0.0] + [0.5 * GAMMA * (1 + e) for e in eps] + [5 * GAMMA])
    widths = np.array([1e-7, 1e-7, 0.0] + [1e-7] * len(eps) + [0.0])
    assert_batch_matches_scalar(k, omegas, widths, GAMMA)
    batch = slice_propagator(k, omegas, widths, GAMMA, MASS, HBAR)
    # the slices on both sides of gamma = 2 Omega, against the oracle
    for j in range(3, 7):
        assert_matches_oracle(batch[j], k, omegas[j], widths[j], GAMMA)
    # zero width is the identity, with or without coupling
    assert np.array_equal(batch[2], np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.array_equal(batch[-1], np.broadcast_to(np.eye(4), (3, 4, 4)))


ORACLE_K = MASS * np.array([0.5, 20.0, 900.0]) / HBAR
NEIGHBOURHOOD = [1.0] + [1.0 + s * e for e in (1e-9, 1e-7, 1e-5, 1e-3) for s in (1.0, -1.0)]


@pytest.mark.parametrize("gamma_in_gamma", [0.0, 0.4, 1.0])
def test_propagator_matches_oracle_through_degenerate_point(gamma_in_gamma):
    # one formula for every coupling: zero, weak, the gamma/2 neighbourhood
    # and strong, over slice widths of 1 nm to 5 um
    gamma = gamma_in_gamma * GAMMA
    omegas = [0.0, 1e-6 * GAMMA, 0.3 * GAMMA, 5.0 * GAMMA]
    if gamma > 0.0:
        omegas += [0.5 * gamma * f for f in NEIGHBOURHOOD]
    for width in (1e-9, 2e-8, 3e-7, 5e-6):
        batch = slice_propagator(ORACLE_K, np.array(omegas), width, gamma, MASS, HBAR)
        for j, omega in enumerate(omegas):
            assert_matches_oracle(batch[j], ORACLE_K, omega, width, gamma)


def test_tabulated_profile_mixes_zero_and_coupled_slices():
    samples = ((0.0, 0.0), (1e-6, 0.0), (1.5e-6, 1.2e8), (3e-6, 4e7), (3.5e-6, 0.0), (5e-6, 0.0))
    profile = RabiProfile(kind="tabulated", samples=samples)
    cfg = cesium_config(omega=1.2e8, profile=profile)
    dec = discretize(profile, 24, config=cfg)
    omegas = np.array(dec.omegas)
    assert np.any(omegas == 0.0) and np.any(omegas > 0.0)
    k = MASS * np.array([5.0, 80.0, 300.0]) / HBAR
    assert_batch_matches_scalar(k, omegas, np.diff(dec.edges), GAMMA)


def sequential_transfer(k, edges, omegas, gamma):
    """[R1, R2, T1, T2] at one k from per-slice propagators composed one at a time.

    Composes in the value/derivative basis without rescaling and solves
    the boundary conditions with the derivative rows divided by k.
    """
    kk = np.array([k])
    M = np.eye(4, dtype=complex)
    for j, om in enumerate(omegas):
        M = slice_propagator(kk, float(om), edges[j + 1] - edges[j], gamma, MASS, HBAR)[0] @ M
    q = complex(channel_q(kk, gamma, MASS, HBAR)[0])
    xl, xr = edges[0], edges[-1]

    def wave(c, wn, x):
        e = np.exp(1j * wn * x)
        return np.array([e, 1j * wn * e, 0, 0] if c == 0 else [0, 0, e, 1j * wn * e])

    # M (inc + R1 r1 + R2 r2) = T1 t1 + T2 t2
    A = np.column_stack([wave(0, k, xr), wave(1, q, xr), -M @ wave(0, -k, xl), -M @ wave(1, -q, xl)])
    rhs = M @ wave(0, k, xl)
    D = np.diag([1.0, 1.0 / k, 1.0, 1.0 / k])
    T1, T2, R1, R2 = np.linalg.solve(D @ A, D @ rhs)
    return np.array([R1, R2, T1, T2])


@st.composite
def smooth_profiles(draw):
    """(k, edges, omegas) of a midpoint-sliced Gaussian beam."""
    omega0 = draw(st.floats(1e5, 2.2e8))
    width = draw(st.floats(0.3e-6, 1.5e-6))
    center = draw(st.floats(2e-6, 3e-6))
    profile = RabiProfile(kind="gaussian", omega0=omega0, center=center, width=width)
    cfg = cesium_config(omega=omega0, profile=profile)
    dec = discretize(profile, draw(st.integers(1, 48)), config=cfg)
    v = draw(st.lists(st.floats(20.0, 500.0), min_size=1, max_size=4))
    return MASS * np.array(v) / HBAR, np.array(dec.edges), np.array(dec.omegas)


@PROPERTY_SETTINGS
@given(smooth_profiles())
def test_transfer_solve_matches_sequential_reference(case):
    k, edges, omegas = case
    amps = transfer_solve(k, edges, omegas, GAMMA, MASS, HBAR)
    for i, kk in enumerate(k):
        ref = sequential_transfer(kk, edges, omegas, GAMMA)
        assert np.abs(amps[i] - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


@PROPERTY_SETTINGS
@given(smooth_profiles())
def test_edge_states_follow_forward_propagation(case):
    k, edges, omegas = case
    amps, states = transfer_solve(k, edges, omegas, GAMMA, MASS, HBAR, return_states=True)
    assert states.shape == (len(k), len(edges), 4)
    # compare in the (phi1, phi1'/k, phi2, phi2'/k) basis
    unit = np.ones((len(k), 4))
    unit[:, 1::2] = k[:, None]
    q = channel_q(k, GAMMA, MASS, HBAR)
    xl, xr = edges[0], edges[-1]

    def close(a, b, tol):
        err = np.abs((a - b) / unit).max(axis=1)
        return np.all(err <= tol * np.abs(b / unit).max(axis=1))

    # left edge: incident plus reflected waves
    ein, er, eq = np.exp(1j * k * xl), np.exp(-1j * k * xl), np.exp(-1j * q * xl)
    left = np.stack([ein + amps[:, 0] * er, 1j * k * (ein - amps[:, 0] * er),
                     amps[:, 1] * eq, -1j * q * amps[:, 1] * eq], axis=1)
    assert close(states[:, 0], left, 1e-14)
    # each edge state is the previous one carried across its slice
    for j, om in enumerate(omegas):
        P = slice_propagator(k, float(om), edges[j + 1] - edges[j], GAMMA, MASS, HBAR)
        carried = np.einsum("nij,nj->ni", P, states[:, j])
        growth = np.abs(to_scaled_basis(P, k)).max(axis=(1, 2))
        err = np.abs((carried - states[:, j + 1]) / unit).max(axis=1)
        assert np.all(err <= 1e-13 * growth * np.abs(states[:, j] / unit).max(axis=1))
    # right edge: the transmitted waves
    et, eqr = np.exp(1j * k * xr), np.exp(1j * q * xr)
    right = np.stack([amps[:, 2] * et, 1j * k * amps[:, 2] * et,
                      amps[:, 3] * eqr, 1j * q * amps[:, 3] * eqr], axis=1)
    assert close(states[:, -1], right, 1e-9)


FIG7_PROFILE = RabiProfile(kind="gaussian", omega0=1.665e8, center=2.5e-6, width=0.529e-6)
# 3.5-400 m/s, where the rows of the 256-slice fig7 map are stable under
# 1-ulp input moves
FAST_K = MASS * np.array([3.5, 20.0, 150.0, 400.0]) / HBAR


def absorption(rows):
    return 1.0 - np.abs(rows[..., 2]) ** 2 - np.abs(rows[..., 0]) ** 2


def count_propagator_slices(monkeypatch):
    """Slice counts of every ``slice_propagator`` call that ``transfer_solve`` makes."""
    from toa_sim import kernels

    counts = []
    original = kernels.slice_propagator

    def spy(k, omega, width, *args):
        counts.append(np.broadcast(np.atleast_1d(omega), np.atleast_1d(width)).shape[0])
        return original(k, omega, width, *args)

    monkeypatch.setattr(kernels, "slice_propagator", spy)
    return counts


@pytest.mark.parametrize("n_slices", [1, 2, 3, 64, 255, 256])
def test_mirrored_stack_matches_sequential_reference(n_slices, monkeypatch):
    # the half-stack path against the sequential composition of every slice
    cfg = cesium_config(omega=FIG7_PROFILE.omega0, profile=FIG7_PROFILE)
    dec = discretize(FIG7_PROFILE, n_slices, config=cfg)
    edges, omegas = np.array(dec.edges), np.array(dec.omegas)
    counts = count_propagator_slices(monkeypatch)
    amps = transfer_solve(FAST_K, edges, omegas, GAMMA, MASS, HBAR)
    assert counts == [(n_slices + 1) // 2]
    monkeypatch.undo()
    ref = absorption(np.array([sequential_transfer(kk, edges, omegas, GAMMA) for kk in FAST_K]))
    # Three 1.85-um slices at 3.5 m/s are ill-conditioned: a 1-ulp move of
    # the couplings moves the reference itself by 1e-12, so that move is
    # allowed on top; for the other stacks it is below 2e-15.
    ulp_move = max(
        np.abs(absorption(np.array([sequential_transfer(kk, edges, omegas * (1 + s), GAMMA)
                                    for kk in FAST_K])) - ref).max()
        for s in (2.0**-52, -(2.0**-52)))
    assert np.abs(absorption(amps) - ref).max() <= 1e-12 + ulp_move


def test_asymmetric_stacks_take_the_full_stack(monkeypatch):
    # a tabulated profile, and a Gaussian with one coupling moved by 1 ulp,
    # are not palindromes: every slice is evaluated and composed
    samples = ((0.0, 0.0), (1e-6, 0.0), (1.5e-6, 1.2e8), (3e-6, 4e7), (3.5e-6, 0.0), (5e-6, 0.0))
    tabulated = RabiProfile(kind="tabulated", samples=samples)
    tab = discretize(tabulated, 24, config=cesium_config(omega=1.2e8, profile=tabulated))
    gauss = discretize(FIG7_PROFILE, 64, config=cesium_config(omega=1.665e8, profile=FIG7_PROFILE))
    nudged = np.array(gauss.omegas)
    nudged[5] = np.nextafter(nudged[5], np.inf)
    for edges, omegas in ((np.array(tab.edges), np.array(tab.omegas)),
                          (np.array(gauss.edges), nudged)):
        counts = count_propagator_slices(monkeypatch)
        amps = transfer_solve(FAST_K, edges, omegas, GAMMA, MASS, HBAR)
        assert counts == [len(omegas)]
        monkeypatch.undo()
        ref = np.array([sequential_transfer(kk, edges, omegas, GAMMA) for kk in FAST_K])
        assert np.abs(absorption(amps) - absorption(ref)).max() <= 1e-12
