import math

import numpy as np
import pytest

from conftest import GAMMA, HBAR, MASS, k_of
from toa_sim.errors import NonPositiveVelocity
from toa_sim.model import cesium_config
from toa_sim.regimes import (
    classify,
    critical_temperature,
    decay_shifted_ridge,
    detection_window,
    penetration_length,
    ridge_locations,
    ridge_velocity,
)
from toa_sim.scattering import absorption, semiclassical_state, sharp_edge_rows, solve_sharp_edge


class TestClosedForms:
    def test_penetration_length_values(self):
        # hand arithmetic: 5 * 1 * (2 + 1)/gamma
        assert penetration_length(1.0, GAMMA, GAMMA) == pytest.approx(4.5045e-7, rel=1e-4)
        assert penetration_length(265.0, GAMMA, 5 * GAMMA) == pytest.approx(8.117e-5, rel=1e-3)
        # linear in velocity
        l1 = penetration_length(7.0, GAMMA, 2 * GAMMA)
        l2 = penetration_length(14.0, GAMMA, 2 * GAMMA)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        with pytest.raises(NonPositiveVelocity):
            penetration_length(0.0, GAMMA, GAMMA)

    def test_ridge_locations(self):
        cfg = cesium_config(omega=104.43e6)
        rows = ridge_locations(cfg, 3)
        assert rows[0][1] == pytest.approx(166.2, rel=1e-3)
        # successive odd-integer spacing
        assert rows[0][1] / rows[1][1] == pytest.approx(3.0, rel=1e-12)
        # ridge lines pass through the origin with slope (2n+1) pi / L
        for n, vn, slope in rows:
            assert slope == pytest.approx((2 * n + 1) * math.pi / cfg.beam_width, rel=1e-12)
            assert vn * slope == pytest.approx(cfg.omega, rel=1e-12)

    def test_detection_window_values(self):
        cfg = cesium_config(omega=104.43e6)
        width, sigma = detection_window(cfg, 0)
        assert width == pytest.approx(21.16, rel=1e-3)
        assert sigma == pytest.approx(2.77, rel=1e-3)
        # the two printed forms of the window bound coincide
        v0 = ridge_velocity(cfg, 0)
        assert width == pytest.approx(4 * v0 / (10 * math.pi), rel=1e-12)

    def test_critical_temperature_values(self):
        assert critical_temperature(5e-6, GAMMA, MASS) == pytest.approx(4.431, rel=1e-3)
        # quadratic in width, vanishes with the beam
        assert critical_temperature(1e-5, GAMMA, MASS) == pytest.approx(
            4 * critical_temperature(5e-6, GAMMA, MASS), rel=1e-12
        )
        assert critical_temperature(1e-12, GAMMA, MASS) < 1e-12


class TestClassify:
    def test_plateau_case(self):
        cfg = cesium_config(omega=5 * GAMMA)
        rep = classify(cfg, 10.0)
        assert rep.beam_class == "semi-infinite-like"
        assert rep.driving == "strong"
        assert not rep.reflection_flag

    def test_ridge_case(self):
        cfg = cesium_config(omega=104.43e6)
        rep = classify(cfg, 149.0)
        assert rep.ridge_index == 0
        # the window is centred on the decay-shifted maximum (148.9 m/s):
        # at 175 m/s the absorption is 0.958, off the ridge
        assert classify(cfg, 175.0).ridge_index is None
        assert rep.beam_class == "finite"
        # transit against lifetime is the marginal term here
        last = rep.ideal_chain[-1]
        assert last.name == "transit_vs_lifetime"
        assert 0.5 < last.margin < 2.0
        assert not last.passed

    def test_reflection_flag(self):
        omega = 5 * GAMMA
        cfg = cesium_config(omega=omega)
        energy = HBAR * omega / 4.0
        v = math.sqrt(2 * energy / MASS)
        assert classify(cfg, v).reflection_flag
        assert not classify(cfg, 50.0).reflection_flag

    def test_monotone_in_factor(self):
        cfg = cesium_config(omega=5 * GAMMA)
        for v in (5.0, 50.0, 166.2, 400.0):
            passed_10 = [t.passed for t in classify(cfg, v, delta_t=1e-5).direct_chain]
            passed_30 = [t.passed for t in classify(cfg, v, delta_t=1e-5,
                                                    much_less_factor=30.0).direct_chain]
            for p10, p30 in zip(passed_10, passed_30):
                assert p10 or not p30  # passing at 30 implies passing at 10

    def test_weak_driving(self):
        rep = classify(cesium_config(omega=GAMMA / 2), 50.0)
        assert rep.driving == "weak"

    def test_report_serialization(self):
        cfg = cesium_config(omega=5 * GAMMA)
        rep = classify(cfg, 20.0, delta_t=1e-5)
        text = rep.to_text()
        assert "driving" in text and "margin" in text
        row = rep.to_csv_row()
        assert row.count(",") == rep.csv_header().count(",")


class TestSolverCrossChecks:
    """Closed-form regime predictions against the exact solver."""

    def absorption_scan(self, cfg, v_lo, v_hi, n=4001):
        v = np.linspace(v_lo, v_hi, n)
        rows = sharp_edge_rows(MASS * v / HBAR, cfg)
        return v, 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2

    def test_ridge_peak_positions_with_decay_shift(self):
        # the exact absorption maxima sit below the nominal ridge speeds by
        # the decay-induced phase arctan(gamma / (2 Omega')); this frozen
        # prediction is the solver regression for Fig.-5-style cuts
        cfg = cesium_config(omega=5 * GAMMA)
        for n, (lo, hi) in enumerate([(220, 300), (75, 95), (48, 57), (35, 41)]):
            v, a = self.absorption_scan(cfg, lo, hi)
            v_peak = v[np.argmax(a)]
            assert v_peak == pytest.approx(decay_shifted_ridge(cfg, n), rel=5e-3)

    @pytest.mark.parametrize("omega", [104.43e6, 5 * GAMMA])
    def test_absorption_equals_straight_trajectory_exit(self, omega):
        # along sharp-beam cuts the exact absorption is one minus the ground
        # population left on exit by the damped Rabi evolution, whose zeros
        # give the decay-shifted ridges
        cfg = cesium_config(omega=omega)
        v, a = self.absorption_scan(cfg, 20.0, 400.0, 381)
        exit_ground = np.array([semiclassical_state(k_of(vi), cfg, cfg.beam_width)[0]
                                for vi in v])
        a_exit = 1.0 - 2.0 * math.pi * np.abs(exit_ground) ** 2
        assert np.max(np.abs(a - a_exit)) < 1e-8

    def test_plateau_detection(self):
        # near-unit detection across the plateau; the floor eases slightly
        # toward the beam-width boundary where transmission reappears
        cfg = cesium_config(omega=5 * GAMMA)
        v, a = self.absorption_scan(cfg, 5.0, 12.0, 101)
        assert a.min() > 0.999
        v, a = self.absorption_scan(cfg, 12.0, 15.0, 61)
        assert a.min() > 0.995

    def test_window_width_scale(self):
        # the >= 99% window around the first maximum has a width on the
        # scale of the printed bound (the bound neglects decay corrections)
        cfg = cesium_config(omega=104.43e6)
        bound, _ = detection_window(cfg, 0)
        v, a = self.absorption_scan(cfg, 120.0, 200.0, 8001)
        above = v[a >= 0.99]
        width = above[-1] - above[0]
        assert width == pytest.approx(bound, rel=0.15)

    def test_window_sigma_relation(self):
        # packet sigma is an eighth of the window bound
        cfg = cesium_config(omega=104.43e6)
        bound, sigma = detection_window(cfg, 0)
        assert bound / sigma == pytest.approx(240.0 / (10 * math.pi), rel=1e-12)
