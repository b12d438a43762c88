"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Tolerances are pinned here and nowhere else.  Run with ``pytest -s`` to see
the per-criterion lines.  Criteria 4 and 5 aim at the absorption maxima
shifted below the nominal ridge speeds L*Omega/((2n+1) pi) by decay inside
the beam (closed form in toa_sim.regimes.decay_shifted_ridge); their PASS
lines also report the deviation from the nominal speeds, which is not
asserted.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.signal import find_peaks

from conftest import GAMMA, HBAR, MASS, k_of, random_draws
from toa_sim import distributions as ds
from toa_sim import kernels
from toa_sim.model import RabiProfile, cesium_config
from toa_sim.regimes import (
    critical_temperature,
    decay_shifted_ridge,
    detection_window,
    penetration_length,
    ridge_velocity,
)
from toa_sim.scattering import matching_residual, semiclassical_T2, sharp_edge_rows, solve_sharp_edge
from toa_sim.series import TimeSeries, l1_distance
from toa_sim.transfer import discretize, transfer_rows
from toa_sim.wavepacket import ConditionalPropagator, GaussianComponent, PacketSpec, default_kgrid


def report(num, name, ok, detail):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def absorption_cut(cfg, v):
    rows = sharp_edge_rows(MASS * np.asarray(v) / HBAR, cfg)
    return 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2


def ridge_packet(omega_mult, sigx, offset_sigmas=12.0):
    cfg = cesium_config(omega=omega_mult * GAMMA)
    v0 = cfg.beam_width * cfg.omega / math.pi
    tw = (offset_sigmas * sigx + cfg.beam_width) / v0
    comp = GaussianComponent(mean_velocity=v0, delta_x=sigx,
                             waist_position=cfg.beam_width, waist_time=tw)
    return cfg, PacketSpec(components=(comp,), mass=MASS), tw, v0


def test_criterion_01_hermitian_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for v, omega, length in random_draws(rng, 500):
        k = np.array([k_of(v)])
        row = kernels.sharp_edge_solve(k, 0.0, omega, length, MASS, HBAR)[0]
        total_a = sum(abs(row[i]) ** 2 for i in range(4))
        amp_t = kernels.transfer_solve(k, np.array([0.0, length]), np.array([omega]),
                                       0.0, MASS, HBAR)[0]
        total_t = sum(abs(amp_t[i]) ** 2 for i in range(4))
        worst = max(worst, abs(total_a - 1.0), abs(total_t - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(1, "hermitian conservation", ok,
                  f"worst |sum-1| = {worst:.2e} over 500 draws, both backends, {elapsed:.1f} s")


def test_criterion_02_backend_oracle_equivalence():
    # relative deviation per amplitude; amplitudes far below the solution
    # scale are compared against 1e-6 of that scale instead of themselves
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for v, omega, length in random_draws(rng, 500):
        k = np.array([k_of(v)])
        a = kernels.sharp_edge_solve(k, GAMMA, omega, length, MASS, HBAR)[0]
        b = kernels.transfer_solve(k, np.array([0.0, length]), np.array([omega]),
                                   GAMMA, MASS, HBAR)[0]
        amax = max(abs(a[i]) for i in range(4))
        for i in range(4):
            worst = max(worst, abs(a[i] - b[i]) / max(abs(a[i]), 1e-6 * amax))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    assert report(2, "backend oracle equivalence", ok,
                  f"worst relative deviation = {worst:.2e} over 500 draws, {elapsed:.1f} s")


def test_criterion_03_matching_residuals():
    rng = np.random.default_rng(103)
    worst = 0.0
    for v, omega, length in random_draws(rng, 300):
        cfg = cesium_config(omega=omega, beam_width=length)
        sol = solve_sharp_edge(k_of(v), cfg)
        worst = max(worst, matching_residual(sol))
    ok = worst < 1e-9
    assert report(3, "matching residuals", ok,
                  f"worst edge residual = {worst:.2e} over 300 draws")


def test_criterion_04_ridge_reproduction():
    start = time.perf_counter()
    cfg = cesium_config(omega=5 * GAMMA)
    windows = [(200.0, 320.0), (70.0, 110.0), (45.0, 62.0), (33.0, 43.0)]
    devs, nominal_devs = [], []
    for n, (lo, hi) in enumerate(windows):
        v = np.linspace(lo, hi, 6001)
        a = absorption_cut(cfg, v)
        v_peak = v[np.argmax(a)]
        vs = decay_shifted_ridge(cfg, n)
        vn = ridge_velocity(cfg, n)
        devs.append(abs(v_peak - vs) / vs)
        nominal_devs.append(abs(v_peak - vn) / vn)
    a_at = [float(absorption_cut(cfg, np.array([ridge_velocity(cfg, n)]))[0]) for n in (0, 1)]
    elapsed = time.perf_counter() - start
    within = all(d < 0.02 for d in devs)
    high = all(a > 0.99 for a in a_at)
    ok = within and high and elapsed < 60.0
    assert report(
        4, "ridge reproduction", ok,
        f"peak deviations from shifted ridge n=0..3: {', '.join(f'{d:.1e}' for d in devs)} "
        f"(need < 2%); from nominal v_n: {', '.join(f'{d:.1%}' for d in nominal_devs)} "
        f"(reported only); "
        f"A(v_0)={a_at[0]:.4f}, A(v_1)={a_at[1]:.4f} (need > 0.99); {elapsed:.1f} s",
    )


def test_criterion_05_window_bound():
    cfg = cesium_config(omega=104.43e6)
    v0 = decay_shifted_ridge(cfg, 0)
    vn = ridge_velocity(cfg, 0)
    width, _ = detection_window(cfg, 0)
    v = np.linspace(v0 - width / 2.0, v0 + width / 2.0, 801)
    a = absorption_cut(cfg, v)
    ok = bool(a.min() >= 0.99)
    assert report(5, "window bound", ok,
                  f"min A over [v0' - D/2, v0' + D/2] = {a.min():.4f} at "
                  f"v = {v[np.argmin(a)]:.1f} m/s (need >= 0.99), shifted ridge "
                  f"v0' = {v0:.2f} m/s; nominal v0 = {vn:.2f} m/s is "
                  f"{(vn - v0) / v0:.1%} above it (reported only)")


def test_criterion_06_phase_alternation():
    worst = 0.0
    for mult in (10.0, 20.0):
        cfg = cesium_config(omega=mult * GAMMA)
        for n in range(4):
            vn = ridge_velocity(cfg, n)
            sol = solve_sharp_edge(k_of(vn), cfg)
            q = sol.wavenumbers.q
            phase = np.angle(sol.T2 * np.exp(-1j * (sol.k - q) * cfg.beam_width))
            target = -math.pi / 2 if n % 2 == 0 else math.pi / 2
            worst = max(worst, abs(phase - target))
    ok = worst < 0.05
    assert report(6, "phase alternation", ok,
                  f"worst |arg - (+-pi/2)| = {worst:.2e} rad for gamma/omega <= 0.1")


def test_criterion_07_probability_balance():
    presets = [
        ("ridge", 104.43e6, None, 50e-6),
        ("plateau", 5 * GAMMA, 10.0, 20e-6),
        ("weak", GAMMA / 2 * 1.01, 50.0, 30e-6),
    ]
    worst_balance = 0.0
    worst_absorption = 0.0
    for name, omega, v, sigx in presets:
        cfg = cesium_config(omega=omega)
        if v is None:
            v = cfg.beam_width * cfg.omega / math.pi
        tw = (12.0 * sigx + cfg.beam_width) / v
        comp = GaussianComponent(mean_velocity=v, delta_x=sigx,
                                 waist_position=cfg.beam_width, waist_time=tw)
        spec = PacketSpec(components=(comp,), mass=MASS)
        grid = default_kgrid(spec, n_nodes=641)
        prop = ConditionalPropagator(spec, cfg, grid)
        t_end = tw + 12.0 * sigx / v + 15.0 / GAMMA
        tt = np.linspace(0.0, t_end, 1601)
        pi = prop.photon_density(tt)
        total = float(np.trapezoid(pi, dx=tt[1] - tt[0]))
        n_end = float(prop.norm(np.array([t_end]), *prop.default_domain(t_end))[0])
        worst_balance = max(worst_balance, abs(total + n_end - 1.0))
        r1, _, t1, _ = prop.amplitudes
        weighted = float(np.sum(grid.weights * np.abs(prop.psi) ** 2
                                * (1.0 - np.abs(t1) ** 2 - np.abs(r1) ** 2)))
        worst_absorption = max(worst_absorption, abs(total - weighted))
    ok = worst_balance < 1e-4 and worst_absorption < 1e-4
    assert report(7, "probability balance", ok,
                  f"worst |int Pi + N_final - 1| = {worst_balance:.2e}, "
                  f"worst |int Pi - weighted A| = {worst_absorption:.2e} over 3 presets")


def test_criterion_08_deconvolution_round_trip():
    gamma = 2e6
    n = 48000
    times = TimeSeries(t0=0.0, dt=60e-6 / n, values=np.zeros(n + 1))
    t = times.times
    f_vals = np.exp(-((t - 15e-6) ** 2) / (2 * (2e-6) ** 2)) / (2e-6 * math.sqrt(2 * math.pi))
    f = ds.DistributionSeries(t0=0.0, dt=times.dt, values=f_vals, kind="ideal")
    w = ds.emission_kernel(gamma, times)
    observed = ds.convolve(f, w)
    rec_f = ds.deconvolve(observed, gamma, method="fourier")
    rec_t = ds.deconvolve(observed, gamma, method="time-domain")
    err_round = l1_distance(rec_f, f)
    err_methods = l1_distance(rec_f, rec_t)
    ok = err_round < 1e-4 and err_methods < 1e-4
    assert report(8, "deconvolution round trip", ok,
                  f"L1(deconvolve(convolve(f, W)), f) = {err_round:.2e}, "
                  f"L1(fourier, time-domain) = {err_methods:.2e}")


def test_criterion_09_interference_reproduction():
    start = time.perf_counter()
    cfg = cesium_config(omega=104.43e6)
    L = cfg.beam_width
    v1 = 167.05
    sigx = 4233e-6
    tw = (12.0 * sigx + L) / v1
    comps = tuple(
        GaussianComponent(mean_velocity=v, delta_x=sigx, waist_position=L, waist_time=tw)
        for v in (v1, v1 + 0.9e-6)
    )
    spec = PacketSpec(components=comps, mass=MASS)
    grid = default_kgrid(spec)
    prop = ConditionalPropagator(spec, cfg, grid)
    sig_t = sigx / v1
    n_t = 2200
    times = TimeSeries(t0=tw - 5 * sig_t, dt=10 * sig_t / n_t, values=np.zeros(n_t + 1))
    pi = ds.DistributionSeries(t0=times.t0, dt=times.dt,
                               values=prop.photon_density(times.times), kind="observed")
    flux = ds.free_flux(spec, L, times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pi_id = ds.deconvolve(pi, GAMMA, method="fourier")
    pi_n = ds.normalize(pi_id)
    flux_n = ds.normalize(flux)
    l1 = l1_distance(pi_n, flux_n)
    peaks_j, _ = find_peaks(flux_n.values, prominence=0.05 * flux_n.values.max())
    peaks_p, _ = find_peaks(pi_n.values, prominence=0.05 * pi_n.values.max())
    counts_match = len(peaks_j) == len(peaks_p)
    if counts_match:
        period = float(np.mean(np.diff(flux_n.times[peaks_j])))
        peak_dev = float(np.abs(flux_n.times[peaks_j] - pi_n.times[peaks_p]).max()) / period
    else:
        peak_dev = math.inf
    elapsed = time.perf_counter() - start
    ok = l1 < 0.05 and peak_dev < 0.02 and counts_match and elapsed < 600.0
    assert report(9, "two-component interference reproduction", ok,
                  f"L1(norm ideal, flux) = {l1:.4f} (need < 0.05), "
                  f"{len(peaks_j)} vs {len(peaks_p)} oscillations, "
                  f"peak deviation = {peak_dev:.3f} periods, {elapsed:.1f} s")


def test_criterion_10_kernel_limits():
    k = MASS * 166.2 / HBAR
    target = lambda kp: HBAR * (k + kp) / (2.0 * MASS)
    delta = 0.01 * k
    gammas = np.geomspace(1e6, 1e3, 7)
    errs_g = np.array([
        abs(ds.ideal_kernel_bracket(k, k + delta, g, MASS, HBAR) - target(k + delta))
        for g in gammas
    ])
    slope_g = np.polyfit(np.log(gammas), np.log(errs_g), 1)[0]
    gamma = 1e6
    deltas = np.geomspace(3e-2, 1e-3, 7) * k
    errs_d = np.array([
        abs(ds.ideal_kernel_bracket(k, k + d, gamma, MASS, HBAR) - target(k + d))
        for d in deltas
    ])
    slope_d = np.polyfit(np.log(deltas), np.log(errs_d), 1)[0]
    ok = (
        abs(slope_g - 1.0) < 0.1
        and abs(slope_d - 1.0) < 0.1
        and errs_g[-1] < errs_g[0] / 100.0
        and errs_d[-1] < errs_d[0] / 10.0
    )
    assert report(10, "kernel limits", ok,
                  f"log-log slopes: gamma -> 0 gives {slope_g:.3f}, "
                  f"separation -> 0 gives {slope_d:.3f} (need 1.0 +- 0.1)")


def test_criterion_11_narrow_packet_coincidence():
    omega = 10 * GAMMA
    cfg = cesium_config(omega=omega)
    v0 = cfg.beam_width * omega / math.pi
    dv = v0 / 60.0
    sigx = HBAR / (2.0 * MASS * dv)
    tw = (1e-6 + cfg.beam_width) / v0
    comp = GaussianComponent(mean_velocity=v0, delta_x=sigx,
                             waist_position=cfg.beam_width, waist_time=tw)
    spec = PacketSpec(components=(comp,), mass=MASS)
    grid = default_kgrid(spec)
    prop = ConditionalPropagator(spec, cfg, grid)
    sig_t = sigx / v0
    n_t = 4000
    times = TimeSeries(t0=tw - 20 * sig_t, dt=40 * sig_t / n_t, values=np.zeros(n_t + 1))
    # the ideal density via the closed detection kernel behind the beam:
    # the exponential delay is divided out pair by pair, exactly
    pid = ds.DistributionSeries(t0=times.t0, dt=times.dt,
                                values=prop.ideal_ridge_density(times.times), kind="ideal")
    flux = ds.free_flux(spec, cfg.beam_width, times)
    kij = ds.kijowski_density(spec, cfg.beam_width, times)
    pid_n, flux_n, kij_n = ds.normalize(pid), ds.normalize(flux), ds.normalize(kij)
    d1 = l1_distance(flux_n, kij_n)
    d2 = l1_distance(flux_n, pid_n)
    d3 = l1_distance(kij_n, pid_n)
    ok = max(d1, d2, d3) < 1e-2
    assert report(11, "narrow packet coincidence", ok,
                  f"pairwise L1: flux/axiomatic = {d1:.2e}, flux/ideal = {d2:.2e}, "
                  f"axiomatic/ideal = {d3:.2e} (need < 1e-2)")


def test_criterion_12_regime_formulas():
    quoted = [
        ("penetration length", penetration_length(1.0, GAMMA, GAMMA), 4.505e-7, 0.0005e-7),
        ("ridge velocity", ridge_velocity(cesium_config(omega=104.43e6), 0), 166.2, 0.05),
        ("window bound", detection_window(cesium_config(omega=104.43e6), 0)[0], 21.2, 0.05),
        ("packet sigma", detection_window(cesium_config(omega=104.43e6), 0)[1], 2.77, 0.005),
        ("critical temperature", critical_temperature(5e-6, GAMMA, MASS), 4.43, 0.005),
    ]
    bad = [name for name, got, want, tol in quoted if abs(got - want) > tol]
    detail = ", ".join(f"{name} = {got:.6g}" for name, got, _, _ in quoted)
    ok = not bad
    assert report(12, "regime formulas", ok, detail + (f"; outside quoted precision: {bad}" if bad else ""))


def test_criterion_13_gaussian_profile_structure():
    v = np.linspace(30.0, 400.0, 400)
    k = MASS * v / HBAR
    counts = []
    for mult in (3.0, 5.0, 7.0):
        omega = mult * GAMMA
        sharp_cfg = cesium_config(omega=omega)
        a_sharp = absorption_cut(sharp_cfg, v)
        profile = RabiProfile(kind="gaussian", omega0=omega, center=2.5e-6, width=0.529e-6)
        gauss_cfg = cesium_config(omega=omega, profile=profile)
        decomp = discretize(profile, 256, config=gauss_cfg)
        rows = transfer_rows(k, decomp, gauss_cfg)
        a_gauss = 1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2
        n_sharp = len(find_peaks(a_sharp, prominence=0.05)[0])
        n_gauss = len(find_peaks(a_gauss, prominence=0.05)[0])
        counts.append((mult, n_sharp, n_gauss))
    # plateau exists for the smooth profile too: near-total detection at
    # low velocity under strong driving
    plateau_cfg = cesium_config(
        omega=5 * GAMMA,
        profile=RabiProfile(kind="gaussian", omega0=5 * GAMMA, center=2.5e-6, width=0.529e-6),
    )
    dec = discretize(plateau_cfg.profile, 256, config=plateau_cfg)
    rows = transfer_rows(MASS * np.linspace(5.0, 12.0, 30) / HBAR, dec, plateau_cfg)
    plateau_min = float(
        (1.0 - np.abs(rows[:, 2]) ** 2 - np.abs(rows[:, 0]) ** 2).min()
    )
    ok = all(ns == ng for _, ns, ng in counts) and plateau_min > 0.95
    assert report(13, "smooth-profile structure", ok,
                  "peak counts (sharp vs gaussian): "
                  + ", ".join(f"{m:g}x: {ns} vs {ng}" for m, ns, ng in counts)
                  + f"; plateau floor = {plateau_min:.4f}")
