import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GAMMA, HBAR, MASS, k_of, random_draws
from toa_sim.errors import EmptySupport
from toa_sim.kernels import channel_q, mode_wavenumbers
from toa_sim.model import RabiProfile, cesium_config
from toa_sim.scattering import evaluate_state, matching_residual, sharp_edge_rows, solve_sharp_edge
from toa_sim.transfer import (
    DEFAULT_SLICES,
    SUPPORT_CUT,
    discretize,
    slice_matrix,
    solve_profile,
    transfer_rows,
)

EPS = np.finfo(float).eps
FIG7_PROFILE = RabiProfile(kind="gaussian", omega0=5 * GAMMA, center=2.5e-6, width=0.529e-6)


def fig7_config(omega0=5 * GAMMA, gamma=GAMMA):
    profile = RabiProfile(kind="gaussian", omega0=omega0, center=2.5e-6, width=0.529e-6)
    return cesium_config(omega=omega0, gamma=gamma, profile=profile)


class TestDiscretize:
    def test_sharp_single_slice(self):
        cfg = cesium_config(omega=5 * GAMMA)
        dec = discretize(cfg.profile, 64, config=cfg)
        assert dec.n_slices == 1
        assert dec.edges == (0.0, cfg.beam_width)
        assert dec.omegas == (cfg.omega,)

    def test_gaussian_support(self):
        cfg = fig7_config()
        dec = discretize(cfg.profile, 64, config=cfg)
        # exp(-u^2/2) = 1e-6 at u = 5.2565
        half = 0.529e-6 * math.sqrt(-2.0 * math.log(1e-6))
        assert half == pytest.approx(5.2565 * 0.529e-6, rel=1e-4)
        assert dec.edges[0] == pytest.approx(2.5e-6 - half, rel=1e-12)
        assert dec.edges[-1] == pytest.approx(2.5e-6 + half, rel=1e-12)
        # midpoint sampling of the printed profile
        mid = 0.5 * (dec.edges[0] + dec.edges[1])
        expected = cfg.profile.value(mid, beam_width=cfg.beam_width, omega=cfg.omega)
        assert dec.omegas[0] == pytest.approx(float(expected), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(center=st.one_of(st.floats(-1e-3, 1e-3), st.floats(1e-7, 1e-5)),
           width=st.floats(1e-8, 1e-4), n_slices=st.integers(1, 600))
    @example(center=2.5e-6, width=0.529e-6, n_slices=256)
    @example(center=2.5e-6, width=0.529e-6, n_slices=255)
    def test_gaussian_stack_is_exact_palindrome(self, center, width, n_slices):
        # widths and couplings read the same backwards bit for bit, and
        # every edge stays within 4 ulps (of the support's larger end) of
        # plain linspace slicing of the same support
        profile = RabiProfile(kind="gaussian", omega0=1e8, center=center, width=width)
        dec = discretize(profile, n_slices, config=cesium_config(omega=1e8, profile=profile))
        edges, omegas = np.array(dec.edges), np.array(dec.omegas)
        widths = np.diff(edges)
        assert dec.n_slices == n_slices
        assert np.array_equal(widths, widths[::-1])
        assert np.array_equal(omegas, omegas[::-1])
        half = width * math.sqrt(-2.0 * math.log(SUPPORT_CUT))
        lo, hi = center - half, center + half
        ulp = np.spacing(max(abs(lo), abs(hi)))
        assert np.abs(edges - np.linspace(lo, hi, n_slices + 1)).max() <= 4 * ulp
        if lo > 0.0:
            # the support within one binade: the widths telescope exactly
            assert widths.sum() == edges[-1] - edges[0]

    def test_empty_support(self):
        cfg = fig7_config()
        bad = RabiProfile(kind="gaussian", omega0=0.0, center=2.5e-6, width=0.529e-6)
        with pytest.raises(EmptySupport):
            discretize(bad, 16, config=cfg)

    def test_second_order_convergence(self):
        # midpoint piecewise-constant slicing converges at second order
        cfg = fig7_config()
        k = k_of(50.0)
        t1 = {}
        for n in (128, 256, 512, 1024):
            dec = discretize(cfg.profile, n, config=cfg)
            t1[n] = abs(transfer_rows(np.array([k]), dec, cfg)[0][2])
        d1 = abs(t1[256] - t1[128])
        d2 = abs(t1[512] - t1[256])
        d3 = abs(t1[1024] - t1[512])
        assert d1 / d2 == pytest.approx(4.0, rel=0.2)
        assert d2 / d3 == pytest.approx(4.0, rel=0.2)


class TestSliceMatrix:
    def test_zero_width_identity(self):
        energy = 0.5 * MASS * 100.0**2
        mat = slice_matrix(1e8, 0.0, energy, GAMMA, MASS)
        assert np.abs(mat - np.eye(4)).max() == 0.0

    def test_uncoupled_block_diagonal(self):
        energy = 0.5 * MASS * 100.0**2
        width = 1e-6
        mat = slice_matrix(0.0, width, energy, GAMMA, MASS)
        off = mat[np.ix_([0, 1], [2, 3])]
        assert np.abs(off).max() == 0.0
        k = math.sqrt(2 * MASS * energy) / HBAR
        # ground block is free propagation over the slice, exact up to one
        # rounding of its phase k w = 2.1e5 rad (math.cos(k * width) is
        # itself 2.5e-11 off, as k * width is rounded)
        phase = mpmath.mpf(k) * mpmath.mpf(width)
        tol = EPS * k * width
        assert abs(mat[0, 0] - float(mpmath.cos(phase))) <= tol
        assert abs(mat[0, 1] * k - float(mpmath.sin(phase))) <= tol

    def test_semigroup_composition(self):
        energy = 0.5 * MASS * 150.0**2
        full = slice_matrix(1e8, 2e-6, energy, GAMMA, MASS)
        half = slice_matrix(1e8, 1e-6, energy, GAMMA, MASS)
        assert np.abs(half @ half - full).max() / np.abs(full).max() < 1e-12

    def test_unit_determinant(self):
        # no first-derivative term in the wave equation: unit Wronskian
        energy = 0.5 * MASS * 80.0**2
        mat = slice_matrix(2e8, 3e-6, energy, GAMMA, MASS)
        assert np.linalg.det(mat) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_coupling_continuous(self):
        energy = 0.5 * MASS * 120.0**2
        base = slice_matrix(GAMMA / 2 * (1 + 1e-4), 2e-6, energy, GAMMA, MASS)
        mid = slice_matrix(GAMMA / 2, 2e-6, energy, GAMMA, MASS)
        assert np.abs(base - mid).max() / np.abs(mid).max() < 1e-3


class TestSolveProfile:
    def test_sharp_single_slice_matches_analytic(self, cs_strong):
        rng = np.random.default_rng(21)
        for v, omega, length in random_draws(rng, 100):
            cfg = cesium_config(omega=omega, beam_width=length)
            k = k_of(v)
            row = sharp_edge_rows(np.array([k]), cfg)[0]
            sol = solve_profile(k, cfg, n_slices=1)
            amax = max(abs(row[i]) for i in range(4))
            for got, want in ((sol.R1, row[0]), (sol.R2, row[1]),
                              (sol.T1, row[2]), (sol.T2, row[3])):
                assert abs(got - want) / max(abs(want), 1e-6 * amax) < 1e-8

    def test_interior_state_matches_analytic(self, cs_strong):
        k = k_of(150.0)
        sol_a = solve_sharp_edge(k, cs_strong)
        sol_t = solve_profile(k, cs_strong, n_slices=32)
        x = np.array([0.7e-6, 2.5e-6, 4.9e-6])
        va = evaluate_state(sol_a, x)
        vt = evaluate_state(sol_t, x)
        assert np.abs(va - vt).max() / np.abs(va).max() < 1e-9

    def test_transfer_residual(self):
        cfg = fig7_config()
        sol = solve_profile(k_of(80.0), cfg, n_slices=128)
        assert matching_residual(sol) < 1e-9

    def test_gaussian_hermitian_conservation(self):
        cfg = fig7_config(gamma=0.0)
        rng = np.random.default_rng(22)
        for _ in range(20):
            v = float(rng.uniform(20, 400))
            dec = discretize(cfg.profile, 128, config=cfg)
            row = transfer_rows(np.array([k_of(v)]), dec, cfg)[0]
            total = sum(abs(row[i]) ** 2 for i in range(4))
            assert abs(total - 1.0) < 1e-9

    def test_batch_row_does_not_depend_on_its_neighbours(self):
        # at low speed some systems of a batch are singular; every other row
        # is still refined, so it equals the solve of its wavenumber alone
        from toa_sim.model import with_omega
        from toa_sim.scattering import absorption_status

        cfg = with_omega(fig7_config(), 2e6)
        dec = discretize(cfg.profile, 64, config=cfg)
        k = k_of(np.linspace(0.02, 2.0, 10))
        with np.errstate(all="ignore"):
            batch, _ = absorption_status(transfer_rows(k, dec, cfg))
            alone = [absorption_status(transfer_rows(k[i:i + 1], dec, cfg))[0][0]
                     for i in range(len(k))]
        assert np.array_equal(batch, alone, equal_nan=True)

    def test_wide_beam_amplitude_stability(self):
        # scaled composition keeps amplitudes finite up to L*Im(k_mode) ~ 50
        from toa_sim.kernels import mode_wavenumbers

        cfg = cesium_config(omega=2 * GAMMA, beam_width=2e-5)
        v = 3.4
        k = k_of(v)
        _, km, _, _ = mode_wavenumbers(np.array([k]), GAMMA, cfg.omega, MASS, HBAR)
        depth = float(km.imag[0]) * cfg.beam_width
        assert 40.0 < depth < 60.0
        dec = discretize(cfg.profile, 64, config=cfg)
        row = transfer_rows(np.array([k]), dec, cfg)[0]
        assert np.all(np.isfinite(row.view(float)))
        assert abs(row[0]) <= 1.0 + 1e-9
        # reflection agrees with the closed-form solver even here; the
        # transmission amplitudes are below the double-precision noise
        # floor at this depth (the anchored analytic row shows that)
        ana = sharp_edge_rows(np.array([k]), cfg)[0]
        assert abs(row[0] - ana[0]) < 1e-9
        assert abs(ana[2]) < 1e-12

    def test_default_slices_constant(self):
        assert DEFAULT_SLICES == 256


# Omega/gamma on, and on both sides of, gamma = 2 Omega, and away from it.
VIEW_OMEGAS = [0.5, 0.5 * (1.0 - 1e-6), 0.5 * (1.0 + 1e-6), 0.3, 2.0, 5.0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(v=st.floats(5.0, 500.0), omega_in_gamma=st.sampled_from(VIEW_OMEGAS),
       L=st.floats(0.5e-6, 20e-6))
@example(v=265.0, omega_in_gamma=0.5, L=5e-6)
def test_one_slice_view_matches_sharp_view(v, omega_in_gamma, L):
    # both backends build one representation, with one two-sided limit at
    # gamma = 2 Omega: on a single slice the fields agree everywhere, and
    # each is continuous across its region boundaries
    k = k_of(v)
    omega = omega_in_gamma * GAMMA
    kp, km, _, _ = mode_wavenumbers(np.array([k]), GAMMA, omega, MASS, HBAR)
    q = channel_q(np.array([k]), GAMMA, MASS, HBAR)
    L = min(L, 8.0 / max(kp.imag.max(), km.imag.max(), q.imag.max()))  # optical depth <= 8
    cfg = cesium_config(omega=omega, beam_width=L)
    sharp = solve_sharp_edge(k, cfg)
    sliced = solve_profile(k, cfg, n_slices=1)
    x = np.linspace(-L, 2 * L, 301)
    va, vt = evaluate_state(sharp, x), evaluate_state(sliced, x)
    assert np.abs(va - vt).max() <= 1e-8 * np.abs(va).max()
    assert matching_residual(sharp) < 1e-9
    assert matching_residual(sliced) < 1e-9
