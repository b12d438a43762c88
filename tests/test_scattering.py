import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conftest import GAMMA, HBAR, MASS, k_of, random_draws
from oracle import propagator
from toa_sim.cli import main
from toa_sim.errors import NonPhysicalAbsorption
from toa_sim.model import cesium_config, with_omega
from toa_sim.scattering import (
    absorption,
    absorption_status,
    channel_wavenumbers,
    evaluate_state,
    internal_eigensystem,
    matching_residual,
    semiclassical_T2,
    semiclassical_state,
    sharp_edge_rows,
    solve_sharp_edge,
)
from toa_sim.transfer import solve_profile


class TestInternalEigensystem:
    def test_hermitian_limit(self):
        omega = 1e8
        eig = internal_eigensystem(0.0, omega)
        assert eig.lambda_plus == pytest.approx(-omega / 2)
        assert eig.lambda_minus == pytest.approx(omega / 2)
        assert eig.eigvec_plus == (1.0, pytest.approx(-1.0))
        assert eig.eigvec_minus == (1.0, pytest.approx(1.0))

    def test_weak_coupling_limit(self):
        eig = internal_eigensystem(GAMMA, 1e-3 * GAMMA)
        assert abs(eig.lambda_plus) < 1e-6 * GAMMA
        assert eig.lambda_minus == pytest.approx(-0.5j * GAMMA, rel=1e-5)

    def test_rates_coincide_at_the_degenerate_point(self):
        eig = internal_eigensystem(GAMMA, GAMMA / 2)
        assert eig.lambda_plus == pytest.approx(-0.25j * GAMMA)
        assert eig.lambda_minus == pytest.approx(-0.25j * GAMMA)
        beside = internal_eigensystem(GAMMA, GAMMA / 2 * (1 + 1e-6))
        assert beside.lambda_plus != pytest.approx(beside.lambda_minus, rel=1e-4)

    def test_trace_determinant_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            gamma = float(rng.uniform(0, 1e9))
            omega = float(rng.uniform(1e5, 1e9))
            eig = internal_eigensystem(gamma, omega)
            assert eig.lambda_plus + eig.lambda_minus == pytest.approx(-0.5j * gamma, abs=1e-3)
            assert eig.lambda_plus * eig.lambda_minus == pytest.approx(
                -(omega**2) / 4.0, rel=1e-12
            )

    def test_branch_continuity_across_degeneracy(self):
        omega = 1e8
        lams = []
        for gamma in (2 * omega * (1 - 1e-7), 2 * omega, 2 * omega * (1 + 1e-7)):
            eig = internal_eigensystem(gamma, omega)
            lams.append(eig.lambda_plus)
        assert abs(lams[0] - lams[1]) < 1e-3 * omega
        assert abs(lams[2] - lams[1]) < 1e-3 * omega

    def test_eigensystem_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            gamma = float(rng.uniform(0, 5e8))
            omega = float(rng.uniform(1e6, 5e8))
            eig = internal_eigensystem(gamma, omega)
            mat = np.array([[0.0, omega / 2.0], [omega / 2.0, -0.5j * gamma]])
            scale = np.linalg.norm(mat)
            for lam, vec in (
                (eig.lambda_plus, eig.eigvec_plus),
                (eig.lambda_minus, eig.eigvec_minus),
            ):
                v = np.array(vec)
                residual = np.linalg.norm(mat @ v - lam * v) / (scale * np.linalg.norm(v))
                assert residual < 1e-12


class TestChannelWavenumbers:
    def test_hermitian_q_equals_k(self):
        energy = 0.5 * MASS * 100.0**2
        wn = channel_wavenumbers(energy, 0.0, 1e8, MASS)
        assert wn.q == wn.k
        # k+-^2 = k^2 +- m omega / hbar at gamma = 0
        assert wn.k_plus**2 == pytest.approx(wn.k**2 + MASS * 1e8 / HBAR, rel=1e-12)
        assert wn.k_minus**2 == pytest.approx(wn.k**2 - MASS * 1e8 / HBAR, rel=1e-12)

    def test_decaying_channel_expansion(self):
        # first-order expansion of the complex root vs direct evaluation
        v = 166.2
        energy = 0.5 * MASS * v * v
        wn = channel_wavenumbers(energy, GAMMA, 5 * GAMMA, MASS)
        first_order = GAMMA * MASS / (2.0 * HBAR * wn.k)
        assert first_order == pytest.approx(1.0018e5, rel=1e-3)
        assert wn.q.imag == pytest.approx(first_order, rel=1e-3)
        assert wn.q.imag > 0.0

    def test_upper_half_plane(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            energy = 0.5 * MASS * float(rng.uniform(0.1, 500)) ** 2
            gamma = float(rng.uniform(0, 1e9))
            omega = float(rng.uniform(1e6, 1e9))
            wn = channel_wavenumbers(energy, gamma, omega, MASS)
            assert wn.q.imag >= 0.0
            assert wn.k_plus.imag >= 0.0
            assert wn.k_minus.imag >= 0.0


    def test_solution_view_keeps_k(self, cs_strong):
        # the one-k view takes its wavenumbers from k itself, so no round
        # trip through the energy moves k by an ulp
        for v in np.linspace(1.0, 500.0, 200):
            sol = solve_sharp_edge(k_of(v), cs_strong)
            assert sol.wavenumbers.k == sol.k


class TestNewtonRegions:
    @pytest.mark.parametrize("v", [0.05, 0.5])
    def test_exit_field_is_t1_at_the_point(self, v):
        # at gamma = 2 Omega the interior holds the Jordan term exactly: at
        # and beyond the exit the ground field is T1 exp(ikx), which the
        # two-sided average of the regions missed by 14 % at 0.05 m/s
        cfg = cesium_config(omega=GAMMA / 2)
        k = k_of(v)
        sol = solve_sharp_edge(k, cfg)
        L = cfg.beam_width
        x = np.array([np.nextafter(L, 0.0), L, 1.5 * L])
        want = sol.T1 * np.exp(1j * k * x) / math.sqrt(2 * math.pi)
        got = evaluate_state(sol, x)[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("backend", ["analytic", "transfer"])
    @pytest.mark.parametrize("side", [0.0, 1e-6])
    def test_interior_field_is_the_exact_propagation(self, side, backend):
        # on the point, where the two-sided average was off by 4e-8, and 1e-6
        # from it, where exponential modes carried |a| ~ 350: the interior
        # is the exact propagation of the left-edge state.  The carrier
        # phase k x is rounded once per point, as the field evaluator
        # rounds it, and taken out of both
        cfg = cesium_config(omega=GAMMA / 2 * (1 + side), beam_width=15e-6)
        k = k_of(245.0)
        sol = solve_sharp_edge(k, cfg) if backend == "analytic" else solve_profile(k, cfg, 1)
        q = sol.wavenumbers.q
        left = np.array([1 + sol.R1, 1j * k * (1 - sol.R1), sol.R2, -1j * q * sol.R2])
        unit = np.array([1.0, 1.0 / k, 1.0, 1.0 / k])
        for x in np.array([0.4, 1.0]) * cfg.beam_width:
            x = float(np.nextafter(x, 0.0))   # inside the beam
            value, slope = evaluate_state(sol, x, derivative=True)
            got = np.array([value[0], slope[0], value[1], slope[1]]) * math.sqrt(2 * math.pi)
            want = propagator(k, cfg.omega, x, GAMMA, MASS, HBAR, dps=40) @ left
            with mp.workdps(40):
                carrier = complex(mp.exp(-1j * mp.mpf(k) * mp.mpf(x)))
            gap = (got * np.exp(-1j * (k * x)) - want * carrier) * unit
            assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(want * unit)


class TestSolveSharpEdge:
    def test_uncoupled_is_free(self):
        cfg = cesium_config(omega=0.0)
        sol = solve_sharp_edge(k_of(100.0), cfg)
        assert sol.T1 == 1.0
        assert sol.R1 == sol.R2 == sol.T2 == 0.0
        assert absorption(sol) == 0.0

    def test_hermitian_flux_conservation(self):
        rng = np.random.default_rng(11)
        for v, omega, length in random_draws(rng, 100):
            cfg = cesium_config(omega=omega, beam_width=length, gamma=0.0)
            row = sharp_edge_rows(np.array([k_of(v)]), cfg)[0]
            total = sum(abs(row[i]) ** 2 for i in range(4))
            assert abs(total - 1.0) < 1e-10

    def test_matching_residuals_over_draws(self):
        rng = np.random.default_rng(12)
        for v, omega, length in random_draws(rng, 200):
            cfg = cesium_config(omega=omega, beam_width=length)
            sol = solve_sharp_edge(k_of(v), cfg)
            assert matching_residual(sol) < 1e-9

    def test_degenerate_coupling_solves(self):
        cfg = cesium_config(omega=GAMMA / 2)
        sol = solve_sharp_edge(k_of(100.0), cfg)
        # amplitudes are the batched (exact) row, bit for bit
        row = sharp_edge_rows([k_of(100.0)], cfg)[0]
        assert (sol.R1, sol.R2, sol.T1, sol.T2) == tuple(row[:4])
        # the half-lines carry the kernel's amplitudes, and the interior its
        # Newton basis, which holds the Jordan term exactly
        ground = sol.regions[0].channel_modes[0]
        assert [coef[0] for coef, sign, *_ in ground if sign < 0.0] == [sol.R1]
        assert matching_residual(sol) < 1e-12
        assert 0.0 <= absorption(sol) <= 1.0
        # the degenerate solution agrees with a nearby non-degenerate coupling
        near = solve_sharp_edge(k_of(100.0), cesium_config(omega=GAMMA / 2 * (1 + 1e-4)))
        assert abs(sol.T1 - near.T1) < 1e-3

    @pytest.mark.parametrize("omega_in_gamma", [5.0, 0.5, 0.3])
    def test_slow_atom_solution_finite(self, omega_in_gamma):
        # at 0.05 m/s exp(iqL) underflows and T2 (anchored at x = 0) leaves
        # the float range; the regions carry the exit-anchored excited wave
        cfg = cesium_config(omega=omega_in_gamma * GAMMA)
        k = k_of(0.05)
        sol = solve_sharp_edge(k, cfg)
        L = cfg.beam_width
        x = np.array([-L, 0.0, 0.5 * L, L, 2 * L])
        value, slope = evaluate_state(sol, x, derivative=True)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))
        assert matching_residual(sol) < 1e-9
        row = sharp_edge_rows([k], cfg)[0]
        assert (sol.R1, sol.T1) == (row[0], row[2])

    def test_ridge_absorption(self, cs_strong):
        v0 = cs_strong.beam_width * cs_strong.omega / math.pi
        sol = solve_sharp_edge(k_of(v0), cs_strong)
        assert absorption(sol) > 0.99

    def test_plateau_absorption(self, cs_strong):
        sol = solve_sharp_edge(k_of(10.0), cs_strong)
        assert absorption(sol) > 0.999

    def test_valley_minimum_below_ridge(self, cs_strong):
        # a full internal oscillation leaves the atom in the ground state
        v0 = cs_strong.beam_width * cs_strong.omega / math.pi
        valley = absorption(solve_sharp_edge(k_of(v0 / 2.0), cs_strong))
        ridge = absorption(solve_sharp_edge(k_of(v0), cs_strong))
        assert valley < ridge
        # beyond the first ridge the absorption decreases with velocity
        a_past = [
            absorption(solve_sharp_edge(k_of(v), cs_strong)) for v in (300.0, 400.0, 500.0)
        ]
        assert a_past[0] > a_past[1] > a_past[2]

    def test_semi_infinite_limit(self):
        # for beams much wider than the penetration depth, R1 stops moving
        omega = 2 * GAMMA
        v = 5.0
        r1 = []
        for length in (2e-5, 4e-5):
            cfg = cesium_config(omega=omega, beam_width=length)
            sol = solve_sharp_edge(k_of(v), cfg)
            r1.append(sol.R1)
            assert abs(sol.T1) < 1e-8
            assert abs(sol.T2 * np.exp(1j * sol.wavenumbers.q * length)) < 1e-8
        assert abs(r1[1] - r1[0]) < 1e-6

    def test_strong_field_reflection_region(self):
        # reflection grows toward 1 as the energy drops below the coupling
        # scale; the open lower dressed branch keeps it below 1 at moderate
        # energy ratios
        omega = 1000 * GAMMA
        cfg = cesium_config(omega=omega)
        r1 = []
        for ratio in (10.0, 100.0, 1000.0):
            energy = HBAR * omega / (2.0 * ratio)
            v = math.sqrt(2 * energy / MASS)
            r1.append(abs(solve_sharp_edge(k_of(v), cfg).R1))
        assert r1[0] < r1[1] < r1[2]
        assert r1[1] > 0.9
        assert r1[2] > 0.96


class TestEvaluateState:
    def test_continuity_at_edges(self, cs_strong):
        sol = solve_sharp_edge(k_of(150.0), cs_strong)
        L = cs_strong.beam_width
        for edge in (0.0, L):
            inside = evaluate_state(sol, np.array([edge]))
            assert np.all(np.isfinite(inside))
        assert matching_residual(sol) < 1e-10

    def test_left_asymptotic_decay_of_excited(self, cs_strong):
        sol = solve_sharp_edge(k_of(50.0), cs_strong)
        decay_scale = 1.0 / sol.wavenumbers.q.imag
        vals = evaluate_state(sol, np.array([-5 * decay_scale, -60 * decay_scale]))
        assert abs(vals[1, 1]) < 1e-20 * max(abs(vals[1, 0]), 1e-30) + 1e-25

    def test_uncoupled_excited_zero(self):
        cfg = cesium_config(omega=0.0)
        sol = solve_sharp_edge(k_of(100.0), cfg)
        vals = evaluate_state(sol, np.array([-1e-6, 2e-6, 7e-6]))
        assert np.all(vals[1] == 0.0)
        # ground channel is the free plane wave everywhere
        x = np.array([-1e-6, 2e-6, 7e-6])
        expected = np.exp(1j * sol.k * x) / math.sqrt(2 * math.pi)
        assert np.abs(vals[0] - expected).max() < 1e-14

    def test_normalization_factor(self, cs_strong):
        # far to the left the incident plane wave has amplitude 1/sqrt(2 pi)
        cfg = cesium_config(omega=0.0)
        sol = solve_sharp_edge(k_of(100.0), cfg)
        val = evaluate_state(sol, np.array([-2e-6]))
        assert abs(val[0, 0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


class TestAbsorption:
    def test_band_check(self, cs_strong):
        # a solved solution with its amplitudes replaced: A = -1.25 and
        # A = -1.88 lie below the band, A = -1e-9 is clamped to 0
        sol = solve_sharp_edge(k_of(265.0), cs_strong)
        with pytest.raises(NonPhysicalAbsorption):
            absorption(replace(sol, R1=0.0j, T1=1.5 + 0j))
        with pytest.raises(NonPhysicalAbsorption):
            absorption(replace(sol, R1=1.2 + 0j, T1=1.2 + 0j))
        assert absorption(replace(sol, R1=0.0j, T1=(1.0 + 5e-10) + 0j)) == 0.0

    def test_status_rows(self):
        # columns [R1, R2, T1, T2]; A = 1 - |T1|^2 - |R1|^2 <= 1 always,
        # so the band is probed below 0 and the clip at A = 1 is exact
        rows = np.array([
            [0.0, 0.0, 0.6, 0.0],                      # A = 0.64
            [0.0, 0.0, math.sqrt(1.0 + 5e-9), 0.0],    # A = -5e-9: clipped to 0
            [0.0, 0.0, math.sqrt(5e-9) * 1j, 0.0],     # A = 1 - 5e-9
            [0.0, 0.0, 0.0, 0.0],                      # A = 1
            [math.nan, 0.0, 0.5, 0.0],                 # singular
            [0.0, 0.0, np.inf, 0.0],                   # singular
            [0.0, 0.0, 1.5, 0.0],                      # A = -1.25: nonphysical
            [0.0, 0.0, math.sqrt(1.0 + 2e-8), 0.0],    # just below the band
        ], dtype=complex)
        a, status = absorption_status(rows)
        assert status == ["", "", "", "", "singular", "singular", "nonphysical",
                          "nonphysical"]
        assert a[0] == pytest.approx(0.64, rel=1e-15)
        assert a[1] == 0.0
        assert a[2] == pytest.approx(1.0 - 5e-9, abs=1e-15)
        assert a[3] == 1.0
        assert np.all(np.isnan(a[4:]))

    @pytest.mark.parametrize("omega_in_gamma", [5.0, 0.3])
    def test_slow_atoms_finite(self, omega_in_gamma):
        # below ~0.1 m/s exp(iqL) underflows at L = 5 um; T2 is then out of
        # float range, but R1, T1 and A stay finite
        cfg = cesium_config(omega=omega_in_gamma * GAMMA)
        rows = sharp_edge_rows(np.array([k_of(v) for v in (0.02, 0.05, 0.094)]), cfg)
        assert np.all(np.isfinite(rows[:, [0, 2]]))
        a, status = absorption_status(rows)
        assert status == ["", "", ""]
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_slow_map_has_no_singular_rows(self, tmp_path):
        path = tmp_path / "slow.csv"
        code = main(["absorption-map", "--v-min", "0.02", "--v-max", "0.094", "--n-v", "4",
                     "--n-omega", "5", "--out", str(path)])
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        assert len(rows) == 20
        assert all(row[3] == "" and 0.0 <= float(row[2]) <= 1.0 for row in rows)


    def test_batched_scan_equals_per_omega_rows(self):
        # a whole (omega, v) scan in one call gives, bit for bit, the rows of
        # one call per omega: the uncoupled, degenerate and plain columns
        # all take the same path whatever else is in the batch
        cfg = cesium_config(omega=5 * GAMMA)
        v = np.array([0.02, 0.5, 20.0, 265.0, 900.0])
        omegas = np.array([0.0, GAMMA / 2, 0.3 * GAMMA, GAMMA / 2 * (1 + 1e-6), 5 * GAMMA])
        k = k_of(1.0) * np.tile(v, len(omegas))
        batch = sharp_edge_rows(k, cfg, omega=np.repeat(omegas, len(v)))
        for j, om in enumerate(omegas):
            single = sharp_edge_rows(k_of(1.0) * v, with_omega(cfg, float(om)))
            got = batch[j * len(v):(j + 1) * len(v)]
            assert np.array_equal(got, single, equal_nan=True)
        free = batch[:len(v)]
        assert np.all(free[:, [2, 4]] == 1.0) and np.all(free[:, [0, 1, 3, 5, 6, 7]] == 0.0)
        assert absorption_status(batch)[1] == [""] * len(k)


class TestSemiclassical:
    def test_entry_state(self, cs_strong):
        val = semiclassical_state(k_of(265.0), cs_strong, np.array([0.0]))
        assert val[0, 0] == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert val[1, 0] == 0.0

    def test_half_oscillation_hermitian(self):
        omega = 1e8
        cfg = cesium_config(omega=omega, gamma=0.0, beam_width=20e-6)
        v = 265.0
        x = math.pi * v / omega
        val = semiclassical_state(k_of(v), cfg, np.array([x]))
        assert abs(val[0, 0]) < 1e-12
        assert abs(val[1, 0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_matches_exact_solver_inside(self, cs_strong):
        k = k_of(264.99)
        sol = solve_sharp_edge(k, cs_strong)
        x = np.array([cs_strong.beam_width / 2.0])
        exact = evaluate_state(sol, x)
        semi = semiclassical_state(k, cs_strong, x)
        for comp in range(2):
            rel = abs(exact[comp, 0] - semi[comp, 0]) / abs(exact[comp, 0])
            assert rel < 0.01

    def test_T2_ridge_phases(self, cs_strong):
        L = cs_strong.beam_width
        omega = cs_strong.omega
        cfg0 = cesium_config(omega=omega, gamma=0.0)
        for n, sign in ((0, -1j), (1, +1j)):
            v = L * omega / ((2 * n + 1) * math.pi)
            t2 = semiclassical_T2(k_of(v), cfg0)
            k = k_of(v)
            phase = t2 * np.exp(-1j * (k - k) * L)  # q = k at gamma = 0
            assert phase / abs(phase) == pytest.approx(sign, abs=1e-9)

    def test_T2_ridge_magnitude(self, cs_strong):
        # frozen from two independent routes; the decaying-channel basis
        # wave exp(iqL) shrinks by exp(-gamma L/(2 v0)), so the coefficient
        # magnitude is exp(+gamma L/(4 v0)) (Omega/Omega') sin(...) ~ 1.1759
        v0 = cs_strong.beam_width * cs_strong.omega / math.pi
        t2_semi = semiclassical_T2(k_of(v0), cs_strong)
        assert abs(t2_semi) == pytest.approx(1.1759, rel=1e-3)
        sol = solve_sharp_edge(k_of(v0), cs_strong)
        assert abs(sol.T2) == pytest.approx(abs(t2_semi), rel=1e-4)
        # physical excited amplitude at the exit edge
        q = sol.wavenumbers.q
        exit_amp = abs(t2_semi * np.exp(1j * q * cs_strong.beam_width))
        assert exit_amp == pytest.approx(0.8589, rel=1e-3)

    def test_T2_exact_agreement_deep_semiclassical(self):
        # 2E/(hbar omega) > 100 and gamma L / v < 0.2
        omega = 10 * GAMMA
        cfg = cesium_config(omega=omega)
        for v in (530.0, 600.0, 800.0):
            if GAMMA * cfg.beam_width / v >= 0.2:
                continue
            k = k_of(v)
            assert 2 * (0.5 * MASS * v * v) / (HBAR * omega) > 100
            exact = solve_sharp_edge(k, cfg).T2
            semi = semiclassical_T2(k, cfg)
            assert abs(abs(exact) - abs(semi)) / abs(exact) < 0.02
