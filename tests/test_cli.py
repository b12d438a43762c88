import io
import subprocess
import sys

import numpy as np
import pytest

from toa_sim.cli import main
from toa_sim.errors import ConvergenceWarning
from toa_sim.series import TimeSeries


def run_cli(args, tmp_path=None):
    out = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = [row.split(",") for row in rows[1:]]
    return header, data


class TestExitCodes:
    def test_success(self, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(["absorption-map", "--n-v", "3", "--n-omega", "3",
                              "--out", str(path)])
        assert code == 0
        assert path.exists()

    def test_config_error_bad_range(self):
        code, _, err = run_cli(["absorption-map", "--v-min", "10", "--v-max", "5"])
        assert code == 1
        assert "config error" in err

    def test_config_error_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mass_kg = 1e-25\ngamma_per_s = 1e6\nL_um = 5\nfoo = 1\n")
        code, _, err = run_cli(["absorption-map", "--config", str(bad)])
        assert code == 1

    def test_config_error_bad_usage(self):
        code, _, _ = run_cli(["absorption-map", "--n-v", "not-a-number"])
        assert code == 1

    def test_numeric_error(self):
        # a packet this slow and narrow has negative-momentum content
        code, _, err = run_cli(["distributions", "--v-mean", "0.5",
                                "--delta-x-um", "0.001"])
        assert code == 2
        assert "numeric failure" in err


    @pytest.mark.parametrize("argv", [
        ["plane", "--backend", "analytic"],
        ["critical-temperature", "--backend", "transfer"],
        ["regime", "--velocity", "10", "--backend", "analytic"],
        ["plane", "--jobs", "2"],
        ["distributions", "--jobs", "2"],
    ], ids=["plane-backend", "tc-backend", "regime-backend", "plane-jobs", "dist-jobs"])
    def test_flags_only_where_read(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1
        assert "config error: unrecognized arguments" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["distributions", "--preset", "fig6", "--n-times", "0"],
        ["distributions", "--preset", "fig6", "--window-sigmas", "0"],
        ["distributions", "--preset", "fig6", "--window-sigmas", "-1"],
        ["absorption-map", "--preset", "fig7", "--n-slices", "0"],
        ["absorption-cut", "--ridge-markers", "-1"],
        ["absorption-map", "--jobs", "0"],
        ["absorption-cut", "--jobs", "0"],
        ["plane", "--n-ridges", "-1"],
    ], ids=["n-times-0", "window-sigmas-0", "window-sigmas-negative", "n-slices-0",
            "ridge-markers-negative", "map-jobs-0", "cut-jobs-0", "plane-ridges-negative"])
    def test_bad_count_is_config_error(self, argv):
        # rejected before any work, with a config error line and no traceback
        code, out, err = run_cli(argv)
        assert code == 1
        assert err.startswith("config error: ")
        assert out == ""

    @pytest.mark.parametrize("command", ["plane", "critical-temperature"])
    def test_undamped_config_is_config_error(self, command, tmp_path):
        cfg = tmp_path / "undamped.cfg"
        cfg.write_text("mass_kg = 2.2069e-25\ngamma_per_s = 0\nomega_per_s = 1e8\nL_um = 5\n")
        code, out, err = run_cli([command, "--config", str(cfg)])
        assert code == 1
        assert err.startswith("config error: ") and "gamma" in err
        assert out == ""


class TestAbsorptionMap:
    def test_smoke_grid(self):
        code, out, _ = run_cli(["absorption-map", "--n-v", "2", "--n-omega", "2"])
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["v_mps", "omega_per_s", "A", "status"]
        assert len(data) == 4
        for row in data:
            a = float(row[2])
            assert 0.0 <= a <= 1.0
            assert row[3] == ""

    def test_deterministic_output(self, tmp_path):
        args = ["absorption-map", "--n-v", "4", "--n-omega", "3"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(p1)])[0] == 0
        assert run_cli(args + ["--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_jobs_parallel_identical(self, tmp_path):
        base = ["absorption-map", "--n-v", "5", "--n-omega", "4"]
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(base + ["--out", str(p1)])[0] == 0
        assert run_cli(base + ["--jobs", "2", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_fig7_gaussian_profile(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(["absorption-map", "--preset", "fig7",
                                    "--n-v", "3", "--n-omega", "2",
                                    "--n-slices", "64"])
        assert code == 0
        assert "backend = transfer" in out
        header, data = parse_csv(out)
        assert all(0.0 <= float(r[2]) <= 1.0 for r in data)


    def test_fig4_explicit_limits_win(self):
        # fig4 changes the default speed range only; explicit flags override it
        code, out, _ = run_cli(["absorption-map", "--preset", "fig4", "--v-max", "1.0",
                                "--n-v", "3", "--n-omega", "2"])
        assert code == 0
        assert "# v_mps = linspace(0.02, 1, 3)" in out
        _, data = parse_csv(out)
        assert [float(r[0]) for r in data[:3]] == [0.02, 0.51, 1.0]

    def test_jobs_parallel_identical_transfer(self, tmp_path):
        # worker processes apply to transfer-backend scans
        base = ["absorption-map", "--preset", "fig7", "--n-v", "3", "--n-omega", "3",
                "--n-slices", "8"]
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        with pytest.warns(ConvergenceWarning):
            assert run_cli(base + ["--out", str(p1)])[0] == 0
        with pytest.warns(ConvergenceWarning):
            assert run_cli(base + ["--jobs", "2", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_degenerate_coupling_column(self):
        # an omega grid through gamma = 2 omega: that column is the exact
        # sharp_edge_rows solve there, printed like every other point
        from toa_sim.cli import _float_fmt
        from toa_sim.model import cesium_config, with_omega
        from toa_sim.scattering import absorption_status, sharp_edge_rows

        gamma = 33.3e6
        code, out, _ = run_cli(["absorption-map", "--n-v", "6", "--v-min", "0.02",
                                "--v-max", "400", "--n-omega", "3",
                                "--omega-min", _float_fmt(gamma / 2),
                                "--omega-max", _float_fmt(gamma)])
        assert code == 0
        _, data = parse_csv(out)
        assert len(data) == 18 and all(row[3] == "" for row in data)
        column = [row for row in data if float(row[1]) == gamma / 2]
        cfg = with_omega(cesium_config(omega=5 * gamma), gamma / 2)
        v = np.array([float(row[0]) for row in column])
        a, _ = absorption_status(sharp_edge_rows(cfg.mass * v / cfg.constants.hbar, cfg))
        assert [row[2] for row in column] == [_float_fmt(x) for x in a]


class TestTextColumns:
    def test_bytes_of_float_fmt(self):
        from toa_sim.cli import _float_fmt, _text_column

        values = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0, 265.0, -2.5e-17, 16650000.0]
        assert _text_column(np.array(values)) == [_float_fmt(x) for x in values]
        assert _text_column(values) == [f"{x:.17g}" for x in values]

    def test_non_finite_values_are_empty(self):
        from toa_sim.cli import _text_column

        assert _text_column([np.nan, 1.5, np.inf, -np.inf, -0.0]) == ["", "1.5", "", "", "-0"]


class TestConvergenceSpotCheck:
    N_V, N_OMEGA, N_SLICES = 5, 4, 16
    ARGS = ["absorption-map", "--preset", "fig7", "--n-v", str(N_V),
            "--n-omega", str(N_OMEGA), "--n-slices", str(N_SLICES)]

    @staticmethod
    def recomputed_message(n_v, n_omega, n_slices):
        """The spot-check warning with both slice counts computed at each probe."""
        from toa_sim import cli
        from toa_sim.model import RabiProfile, cesium_config, with_omega

        profile = RabiProfile(kind="gaussian", omega0=5 * cli.GAMMA_CS,
                              center=2.5e-6, width=0.529e-6)
        config = cesium_config(omega=5 * cli.GAMMA_CS, profile=profile)
        v = np.linspace(2.0, 400.0, n_v)
        omegas = np.linspace(2e6, 2.2e8, n_omega)
        probes = [(v[0], omegas[0]), (v[-1], omegas[0]), (v[0], omegas[-1]),
                  (v[-1], omegas[-1]), (v[n_v // 2], omegas[n_omega // 2])]
        worst = 0.0
        for vv, om in probes:
            cfg = with_omega(config, float(om))
            a1, _ = cli._transfer_absorption_row(cfg, np.array([vv]), n_slices)
            a2, _ = cli._transfer_absorption_row(cfg, np.array([vv]), 2 * n_slices)
            if np.isfinite(a1[0]) and np.isfinite(a2[0]):
                worst = max(worst, abs(a1[0] - a2[0]))
        return (f"slice doubling moves absorption by {worst:.2e} at scan probes; "
                f"consider more than {n_slices} slices")

    def test_transfer_solves_per_map(self, monkeypatch):
        # one solve per map row plus one doubled-slice solve per probe
        from toa_sim import kernels

        slices = []
        real = kernels.transfer_solve

        def counting(*args, **kwargs):
            slices.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "transfer_solve", counting)
        with pytest.warns(ConvergenceWarning):
            code, _, _ = run_cli(self.ARGS)
        assert code == 0
        assert len(slices) == self.N_OMEGA + 5
        assert slices == [self.N_SLICES] * self.N_OMEGA + [2 * self.N_SLICES] * 5

    def test_warning_matches_recomputed_probes(self):
        with pytest.warns(ConvergenceWarning) as record:
            code, _, _ = run_cli(self.ARGS)
        assert code == 0
        messages = [str(w.message) for w in record if w.category is ConvergenceWarning]
        assert messages == [self.recomputed_message(self.N_V, self.N_OMEGA, self.N_SLICES)]


class TestAbsorptionCut:
    def test_fig5_two_columns(self):
        code, out, _ = run_cli(["absorption-cut", "--preset", "fig5",
                                "--n-v", "12", "--v-min", "50", "--v-max", "300"])
        assert code == 0
        header, data = parse_csv(out)
        assert header[:3] == ["v_mps", "A_strong", "A_weak"]
        assert "# ridge n=0" in out
        strong = np.array([float(r[1]) for r in data])
        weak = np.array([float(r[2]) for r in data])
        # weak driving decays monotonically over this range
        assert np.all(np.diff(weak) < 0.0)
        assert strong.max() > weak.max()

    def test_analytic_backend_rejected_on_gaussian_profile(self):
        code, out, err = run_cli(["absorption-cut", "--preset", "fig7",
                                  "--backend", "analytic", "--n-v", "3"])
        assert code == 1
        assert "config error: analytic backend requires a sharp-edged profile" in err
        assert out == ""

    def test_jobs_reach_the_transfer_scan(self, monkeypatch, tmp_path):
        import toa_sim.cli as cli

        seen = []
        scan = cli._absorption_scan
        monkeypatch.setattr(cli, "_absorption_scan", lambda *a: seen.append(a[-1]) or scan(*a))
        base = ["absorption-cut", "--preset", "fig5", "--backend", "transfer",
                "--n-v", "4", "--n-slices", "8"]
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(base + ["--out", str(p1)])[0] == 0
        assert run_cli(base + ["--jobs", "2", "--out", str(p2)])[0] == 0
        assert seen == [1, 2]
        assert p1.read_bytes() == p2.read_bytes()

    def test_uncoupled_cut_is_zero(self):
        code, out, _ = run_cli(["absorption-cut", "--omega-in-gamma", "0",
                                "--n-v", "5", "--v-min", "10", "--v-max", "100"])
        assert code == 0
        _, data = parse_csv(out)
        assert all(float(r[1]) == 0.0 for r in data)


class TestPlane:
    def test_families(self):
        code, out, _ = run_cli(["plane", "--n-omega", "5", "--n-ridges", "20"])
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["family", "n", "omega_per_s", "v_mps"]
        families = {row[0] for row in data}
        assert families == {"beam_width", "reflection", "ridge"}
        ns = {int(row[1]) for row in data if row[0] == "ridge"}
        assert ns == set(range(21))
        # ridge rows satisfy omega = slope * v exactly
        L = 5e-6
        for row in data:
            if row[0] == "ridge" and int(row[1]) == 0:
                om, v = float(row[2]), float(row[3])
                assert om == pytest.approx(np.pi / L * v, rel=1e-12)
        # beam-width boundary: penetration length equals L there
        from toa_sim.regimes import penetration_length

        for row in data:
            if row[0] == "beam_width":
                om, v = float(row[2]), float(row[3])
                assert penetration_length(v, 33.3e6, om) == pytest.approx(L, rel=1e-9)


class TestCriticalTemperature:
    def test_rows_and_scaling(self):
        code, out, _ = run_cli(["critical-temperature", "--preset", "fig3",
                                "--L-min-um", "5", "--L-max-um", "20", "--n-L", "4"])
        assert code == 0
        _, data = parse_csv(out)
        table = {float(r[0]): float(r[1]) for r in data}
        assert table[5.0] == pytest.approx(4.431, rel=1e-3)
        assert table[20.0] == pytest.approx(16.0 * table[5.0], rel=1e-9)

    def test_empty_range_rejected(self):
        code, _, _ = run_cli(["critical-temperature", "--n-L", "0"])
        assert code == 1


class TestDistributions:
    def test_columns_and_normalization(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # first full-excitation ridge of the default coupling
            code, out, _ = run_cli([
                "distributions", "--v-mean", "265", "--delta-x-um", "50",
                "--n-times", "400", "--k-nodes", "257",
            ])
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["t_s", "J", "Pi", "Pi_id", "Pi_id_norm", "Pi_K"]
        t = np.array([float(r[0]) for r in data])
        j = np.array([float(r[1]) for r in data])
        pi = np.array([float(r[2]) for r in data])
        pi_id_n = np.array([float(r[4]) for r in data])
        pk = np.array([float(r[5]) for r in data])
        dt = t[1] - t[0]
        assert np.trapezoid(j, dx=dt) == pytest.approx(1.0, abs=1e-5)
        assert np.trapezoid(pk, dx=dt) == pytest.approx(1.0, abs=1e-5)
        assert np.trapezoid(pi_id_n, dx=dt) == pytest.approx(1.0, abs=1e-6)
        assert 0.9 < np.trapezoid(pi, dx=dt) <= 1.0

    def test_analytic_backend_rejected_on_gaussian_profile(self):
        code, out, err = run_cli(["distributions", "--preset", "fig7", "--backend", "analytic",
                                  "--v-mean", "150", "--delta-x-um", "30"])
        assert code == 1
        assert "config error: analytic backend requires a sharp-edged profile" in err
        assert out == ""

    def test_uncoupled_densities_vanish(self, tmp_path):
        cfg = tmp_path / "uncoupled.cfg"
        cfg.write_text(
            "mass_kg = 2.2069e-25\ngamma_per_s = 33.3e6\nomega_per_s = 0\nL_um = 5\n"
        )
        code, out, _ = run_cli([
            "distributions", "--config", str(cfg), "--v-mean", "166.2",
            "--delta-x-um", "50", "--n-times", "200",
        ])
        assert code == 0
        _, data = parse_csv(out)
        pi = np.array([float(r[2]) for r in data])
        j = np.array([float(r[1]) for r in data])
        assert np.abs(pi).max() == 0.0
        assert j.max() > 0.0


    def test_route_check_in_header(self, monkeypatch, tmp_path):
        from toa_sim import wavepacket as wpk

        args = ["distributions", "--v-mean", "166.2", "--delta-x-um", "50",
                "--n-times", "300", "--k-nodes", "129"]
        code, out, _ = run_cli(args)
        assert code == 0
        meta = dict(line[2:].split(" = ", 1) for line in out.splitlines()
                    if line.startswith("# ") and " = " in line)
        assert float(meta["route_discrepancy"]) < 1e-3
        assert 0.0 <= float(meta["survival_end"]) < 1.0

        # the checked Pi is photon_density's, byte for byte, and Pi_id is
        # gamma P2 + dP2/dt from the same product
        def unchecked(spec, config, grid, times, backend):
            prop = wpk.ConditionalPropagator(spec, config, grid, backend=backend)
            pi = prop.photon_density(times.times)
            rate = prop._quadratic(prop._detection(), times.times)[1]
            return TimeSeries(t0=times.t0, dt=times.dt, values=pi,
                              meta={"route_discrepancy": 0.0, "survival_end": 0.0,
                                    "ideal_density": pi - rate})

        monkeypatch.setattr(wpk, "first_photon_density", unchecked)
        assert run_cli(args)[1].split("t_s,J,Pi")[1] == out.split("t_s,J,Pi")[1]

    def test_inconsistent_density_exits_2(self, tmp_path):
        # the transfer backend loses the decaying solution at 1 m/s: its Pi
        # integrates far above 1, and the route check refuses to print it
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("mass_kg = 2.2069e-25\ngamma_per_s = 3.28e7\n"
                       "omega_in_gamma = 2\nL_um = 5\n")
        with pytest.warns(UserWarning):
            code, out, err = run_cli(["distributions", "--config", str(cfg),
                                      "--backend", "transfer", "--v-mean", "1",
                                      "--delta-x-um", "2", "--n-times", "200",
                                      "--k-nodes", "64"])
        assert code == 2
        assert "numeric failure: gamma*P2 vs -dN/dt disagree" in err
        assert out == ""


    def test_aliased_packet_exits_2(self, tmp_path):
        # 257 k-nodes do not resolve the 400 m/s, 2 um packet over its
        # 0.8 mm window: aliased copies lift the survival to 2.3 while the
        # routes still agree.  At 641 nodes it reads what 1601 and 2400
        # nodes read, to 1e-11
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("mass_kg = 2.2069e-25\ngamma_per_s = 3.28e7\n"
                       "omega_in_gamma = 5\nL_um = 5\n")
        args = ["distributions", "--config", str(cfg), "--v-mean", "400", "--delta-x-um", "2"]
        with pytest.warns(UserWarning):
            code, out, err = run_cli(args)
        assert code == 2
        assert "numeric failure: survival" in err and "--k-nodes" in err
        assert out == ""
        with pytest.warns(UserWarning):
            code, out, _ = run_cli(args + ["--k-nodes", "641"])
        assert code == 0
        meta = dict(line[2:].split(" = ", 1) for line in out.splitlines()
                    if line.startswith("# ") and " = " in line)
        assert float(meta["survival_end"]) == pytest.approx(0.5689194662, abs=1e-10)
        assert float(meta["route_discrepancy"]) <= 1e-12


class TestRegimeCommand:
    def test_text_and_csv(self, tmp_path):
        path = tmp_path / "regime.csv"
        code, out, _ = run_cli(["regime", "--velocity", "10", "--out", str(path)])
        assert code == 0
        assert "semi-infinite-like" in out
        assert "strong" in out
        text = path.read_text()
        assert "direct_chain_ok" in text

    def test_ridge_index_reported(self):
        code, out, _ = run_cli(["regime", "--velocity", "149", "--preset", "fig6"])
        assert code == 0
        # fig6 preset carries the interference-measurement coupling
        assert "ridge_index           0" in out
        code, out, _ = run_cli(["regime", "--velocity", "175", "--preset", "fig6"])
        assert code == 0
        assert "ridge_index           -" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toa_sim.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "toa-sim" in proc.stdout
