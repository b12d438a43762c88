import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAMMA, HBAR, MASS
from toa_sim import distributions as ds
from toa_sim.errors import GridMismatch, UnderResolvedWarning, ZeroIntegral
from toa_sim.series import TimeSeries, _node_count, chebyshev_samples, l1_distance
from toa_sim.wavepacket import GaussianComponent, PacketSpec, default_kgrid, grid_amplitude


def grid(t0, t1, n):
    return TimeSeries(t0=t0, dt=(t1 - t0) / n, values=np.zeros(n + 1))


def gaussian_series(times: TimeSeries, center: float, sigma: float) -> ds.DistributionSeries:
    t = times.times
    vals = np.exp(-((t - center) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    return ds.DistributionSeries(t0=times.t0, dt=times.dt, values=vals, kind="ideal")


def single_packet(v=166.2, delta_x=50e-6, waist=5e-6):
    tw = (12 * delta_x + waist) / v
    comp = GaussianComponent(mean_velocity=v, delta_x=delta_x,
                             waist_position=waist, waist_time=tw)
    return PacketSpec(components=(comp,), mass=MASS), tw


class TestEmissionKernel:
    def test_values(self):
        gamma = 1e6
        times = grid(0.0, 20e-6, 2000)
        w = ds.emission_kernel(gamma, times)
        assert w.kind == "kernel"
        assert w.values[0] == pytest.approx(gamma, rel=1e-12)
        assert w.integral() == pytest.approx(1.0, abs=2e-4)
        mean = np.trapezoid(w.times * w.values, dx=w.dt)
        assert mean == pytest.approx(1.0 / gamma, rel=2e-3)
        neg = ds.emission_kernel(gamma, grid(-5e-6, 5e-6, 1000))
        assert np.all(neg.values[neg.times < 0.0] == 0.0)


class TestConvolve:
    def test_spike_reproduces_kernel(self):
        gamma = 1e6
        times = grid(0.0, 30e-6, 6000)
        w = ds.emission_kernel(gamma, times)
        spike = np.zeros(len(times))
        t0_idx = 500
        spike[t0_idx] = 1.0 / times.dt  # unit-mass grid spike
        f = ds.DistributionSeries(t0=0.0, dt=times.dt, values=spike, kind="ideal")
        out = ds.convolve(f, w)
        shifted = np.roll(w.values, t0_idx)
        shifted[:t0_idx] = 0.0
        # compare away from the spike bin itself
        sel = np.arange(len(out)) > t0_idx + 2
        assert np.abs(out.values[sel] - shifted[sel]).max() < 2e-3 * gamma

    def test_mean_additivity(self):
        gamma = 1e6
        times = grid(0.0, 60e-6, 12000)
        w = ds.emission_kernel(gamma, times)
        ww = ds.convolve(w, w)
        mean = np.trapezoid(ww.times * ww.values, dx=ww.dt)
        assert mean == pytest.approx(2.0 / gamma, rel=1e-2)

    def test_integral_preserved(self):
        times = grid(0.0, 40e-6, 8000)
        gamma = 1e6
        w = ds.emission_kernel(gamma, times)
        f = gaussian_series(times, 8e-6, 1e-6)
        out = ds.convolve(f, w)
        assert out.integral() == pytest.approx(f.integral() * w.integral(), abs=1e-8)

    def test_grid_mismatch(self):
        gamma = 1e6
        w = ds.emission_kernel(gamma, grid(0.0, 1e-5, 100))
        f = gaussian_series(grid(0.0, 1e-5, 200), 5e-6, 1e-6)
        with pytest.raises(GridMismatch):
            ds.convolve(f, w)


class TestDeconvolve:
    def test_round_trip_both_methods(self):
        gamma = 2e6
        times = grid(0.0, 60e-6, 12000)  # dt*gamma = 0.01
        f = gaussian_series(times, 15e-6, 2e-6)
        w = ds.emission_kernel(gamma, times)
        observed = ds.convolve(f, w)
        for method in ("fourier", "time-domain"):
            rec = ds.deconvolve(observed, gamma, method=method)
            assert rec.kind == "ideal"
            assert l1_distance(rec, f) < 1e-4
        ftd = ds.deconvolve(observed, gamma, method="time-domain")
        ff = ds.deconvolve(observed, gamma, method="fourier")
        assert l1_distance(ftd, ff) < 1e-4

    def test_inverse_pair_order(self):
        gamma = 2e6
        times = grid(0.0, 60e-6, 48000)  # dt*gamma = 2.5e-3
        pi = ds.convolve(gaussian_series(times, 20e-6, 3e-6), ds.emission_kernel(gamma, times))
        w = ds.emission_kernel(gamma, times)
        round_trip = ds.convolve(ds.deconvolve(pi, gamma), w)
        assert l1_distance(round_trip, pi) < 1e-6

    def test_pure_kernel_collapses_to_origin(self):
        # an atom excited at t = 0: the ideal density is a point mass there,
        # so the window must straddle the excitation instant
        gamma = 2e6
        times = grid(-3e-6, 27e-6, 30000)
        w = ds.emission_kernel(gamma, times)
        out = ds.deconvolve(w, gamma, method="time-domain")
        assert out.integral() == pytest.approx(1.0, abs=1e-3)
        i0 = int(np.searchsorted(out.times, 0.0))
        head = np.trapezoid(out.values[i0 - 3 : i0 + 4], dx=out.dt)
        assert head == pytest.approx(1.0, abs=2e-3)
        assert np.abs(out.values[i0 + 10 :]).max() < 1e-6 * gamma

    def test_underresolved_warning(self):
        times = grid(0.0, 60e-6, 100)  # dt*gamma = 1.2
        f = gaussian_series(times, 30e-6, 8e-6)
        with pytest.warns(UnderResolvedWarning):
            ds.deconvolve(f, 2e6)

    def test_negative_values_not_clamped(self):
        # removing the delay from a fast-falling signal must go negative
        gamma = 1e5
        times = grid(0.0, 60e-6, 12000)
        f = gaussian_series(times, 20e-6, 2e-6)
        out = ds.deconvolve(f, gamma, method="time-domain")
        assert out.values.min() < -0.01 * out.values.max()


class TestNormalize:
    def test_already_normalized(self):
        times = grid(0.0, 40e-6, 4000)
        f = gaussian_series(times, 20e-6, 2e-6)
        out = ds.normalize(f)
        assert np.abs(out.values - f.values).max() < 1e-9 * f.values.max()
        assert out.meta["raw_integral"] == pytest.approx(1.0, abs=1e-9)

    def test_rescales(self):
        times = grid(0.0, 40e-6, 4000)
        f = gaussian_series(times, 20e-6, 2e-6)
        scaled = f.tagged(0.97 * f.values, "observed")
        out = ds.normalize(scaled)
        assert out.integral() == pytest.approx(1.0, rel=1e-12)
        assert out.meta["raw_integral"] == pytest.approx(0.97, rel=1e-9)

    def test_zero_integral(self):
        times = grid(0.0, 1e-5, 100)
        zero = ds.DistributionSeries(t0=0.0, dt=times.dt, values=np.zeros(101), kind="observed")
        with pytest.raises(ZeroIntegral):
            ds.normalize(zero)


class TestFreeFlux:
    def test_peak_time_and_norm(self):
        spec, tw = single_packet()
        L = 5e-6
        sig_t = 50e-6 / 166.2
        times = grid(tw - 6 * sig_t, tw + 6 * sig_t, 2000)
        j = ds.free_flux(spec, L, times)
        assert j.kind == "flux"
        assert j.integral() == pytest.approx(1.0, abs=1e-6)
        t_peak = j.times[np.argmax(j.values)]
        assert abs(t_peak - tw) < 0.05 * sig_t

    def test_two_component_interference(self):
        from scipy.signal import find_peaks

        v1 = 167.05
        sigx = 4233e-6
        L = 5e-6
        tw = (12 * sigx + L) / v1
        comps = tuple(
            GaussianComponent(mean_velocity=v, delta_x=sigx, waist_position=L, waist_time=tw)
            for v in (v1, v1 + 0.9e-6)
        )
        spec = PacketSpec(components=comps, mass=MASS)
        sig_t = sigx / v1
        times = grid(tw - 5 * sig_t, tw + 5 * sig_t, 2000)
        j = ds.free_flux(spec, L, times)
        peaks, _ = find_peaks(j.values, prominence=0.05 * j.values.max())
        assert len(peaks) >= 5
        # beat period of the two velocity groups
        beat = 2 * math.pi * HBAR / (MASS * v1 * 0.9e-6)
        spacing = np.median(np.diff(j.times[peaks]))
        # the Gaussian envelope pulls outer fringes slightly inward
        assert spacing == pytest.approx(beat, rel=0.05)


def fig6_packet():
    """The paper's interference packet (the CLI's fig6 preset), its waist time and width."""
    v1, sigx, L = 167.05, 4233e-6, 5e-6
    tw = (12 * sigx + L) / v1
    comps = tuple(GaussianComponent(mean_velocity=v, delta_x=sigx, waist_position=L,
                                    waist_time=tw) for v in (v1, v1 + 0.9e-6))
    return PacketSpec(components=comps, mass=MASS), tw, 5 * sigx / v1


class TestFreeFrequencies:
    def test_fig6_flux_matches_exact_frequency_differences(self):
        # over the 0.6 s passage the rounded k^2 moved J by 3e-7 of its
        # maximum; the nodes' offset form keeps every frequency difference
        spec, tw, half = fig6_packet()
        L = 5e-6
        times = grid(tw - half, tw + half, 400)
        got = ds.free_flux(spec, L, times).values
        g = default_kgrid(spec)
        rows = list(range(0, 401, 50))
        with mp.workdps(40):
            origin = mp.mpf(float(g.origin))
            rate = mp.mpf(HBAR) / (2 * mp.mpf(MASS))
            excess = [mp.mpf(float(d)) * (2 * origin + mp.mpf(float(d))) for d in g.offsets]
            phases = np.array([[complex(mp.exp(-1j * rate * e * mp.mpf(float(times.times[i]))))
                                for e in excess] for i in rows])
        coeff = g.weights * grid_amplitude(spec, g) * np.exp(1j * g.nodes * L)
        b, a = phases @ coeff, phases @ (g.nodes * coeff)
        want = HBAR / (2 * math.pi * MASS) * np.real(np.conj(b) * a)
        assert np.abs(got[rows] - want).max() <= 1e-9 * np.abs(got).max()


class TestKijowski:
    def test_nonnegative_unit_norm(self):
        spec, tw = single_packet()
        sig_t = 50e-6 / 166.2
        times = grid(tw - 6 * sig_t, tw + 6 * sig_t, 2000)
        pk = ds.kijowski_density(spec, 5e-6, times)
        assert pk.values.min() >= -1e-12
        assert pk.integral() == pytest.approx(1.0, abs=1e-6)

    def test_narrow_packet_matches_flux(self):
        # velocity spread v/60: arithmetic and geometric kernel means agree
        v = 166.2
        dv = v / 60.0
        delta_x = HBAR / (2 * MASS * dv)
        spec, tw = single_packet(v=v, delta_x=delta_x, waist=5e-6)
        sig_t = delta_x / v
        times = grid(tw - 8 * sig_t, tw + 8 * sig_t, 2000)
        j = ds.free_flux(spec, 5e-6, times)
        pk = ds.kijowski_density(spec, 5e-6, times)
        assert l1_distance(j, pk) < 1e-3


def direct_free(spec, x, t):
    """J and the axiomatic density of the free packet, formed at every time."""
    g = default_kgrid(spec)
    k = g.nodes
    coeff = g.weights * grid_amplitude(spec, g) * np.exp(1j * k * x)
    waves = coeff[:, None] * np.exp(-1j * np.outer(g.frequencies(MASS, HBAR)[1], t))
    b, a, amp = np.stack([np.ones_like(k), k, np.sqrt(HBAR * k / MASS)]) @ waves
    return HBAR / (2 * math.pi * MASS) * np.real(np.conj(b) * a), np.abs(amp) ** 2 / (2 * math.pi)


class TestFreeSampling:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(half=st.floats(1e-3, 20.0), offset=st.floats(-3.0, 3.0),
           size=st.sampled_from([1, 2, -1, 0, 1j]) | st.integers(1, 3000))
    def test_matches_direct_evaluation(self, half, offset, size):
        # size -1, 0, 1j: one below, at and above the node count
        spec, tw = single_packet()
        sig_t = 50e-6 / 166.2
        omega = default_kgrid(spec).frequencies(MASS, HBAR)[1]
        r = _node_count(np.ptp(omega) * half * sig_t)
        n = r + int(size.imag) + int(size.real) if size in (-1, 0, 1j) else size
        lo = tw + (offset - half) * sig_t
        times = TimeSeries(t0=lo, dt=2 * half * sig_t / max(n - 1, 1), values=np.zeros(n))
        got = ds.free_flux(spec, 5e-6, times).values, ds.kijowski_density(spec, 5e-6, times).values
        # normalised by each density's size over the passage (the peak ~1/sig_t)
        passage = direct_free(spec, 5e-6, np.linspace(tw - 6 * sig_t, tw + 6 * sig_t, 121))
        for g, want, ref in zip(got, direct_free(spec, 5e-6, times.times), passage):
            assert g.shape == want.shape
            assert np.abs(g - want).max() <= 1e-12 * max(np.abs(want).max(), np.abs(ref).max())


    def test_waves_are_the_complex_exponential(self):
        # cos - i sin of the real phases: the complex exponential's waves to the bit
        spec, tw = single_packet()
        times = grid(tw - 1e-6, tw + 1e-6, 400)
        k, waves, _ = ds._free_waves(spec, 5e-6, times)
        kgrid = default_kgrid(spec)
        omega = kgrid.frequencies(spec.mass, spec.constants.hbar)[1]
        nodes, _ = chebyshev_samples(times.times, np.ptp(omega))
        coeff = kgrid.weights * grid_amplitude(spec, kgrid) * np.exp(1j * k * 5e-6)
        assert np.array_equal(waves, coeff[:, None] * np.exp(-1j * np.outer(omega, nodes)))

    def test_waves_built_once_per_packet(self, monkeypatch):
        # J and the axiomatic density of one packet share its waves, and
        # the waves go with the packet
        import gc

        from toa_sim import wavepacket

        calls = []
        monkeypatch.setattr(wavepacket, "default_kgrid",
                            lambda spec: calls.append(spec) or default_kgrid(spec))
        spec, tw = single_packet()
        times = grid(tw - 1e-6, tw + 1e-6, 400)
        flux = ds.free_flux(spec, 5e-6, times).values
        ds.kijowski_density(spec, 5e-6, times)
        assert len(calls) == 1
        k, waves, _ = ds._free_waves(spec, 5e-6, times)
        assert not (k.flags.writeable or waves.flags.writeable)
        ds.free_flux(spec, 6e-6, times)
        assert len(calls) == 2
        assert np.array_equal(ds.free_flux(spec, 5e-6, times).values, flux)
        assert len(calls) == 3
        del spec, calls[:]
        gc.collect()
        assert len(ds._FREE_BASIS) == 0


class TestDistributionCsv:
    def test_round_trip_keeps_kind(self):
        import io

        times = grid(0.0, 40e-6, 50)
        f = gaussian_series(times, 20e-6, 4e-6)
        buf = io.StringIO()
        ds.write_distribution_csv(f, buf, comments=["demo"])
        buf.seek(0)
        back = ds.read_distribution_csv(buf)
        assert back.kind == "ideal"
        assert np.abs(back.values - f.values).max() < 1e-12 * f.values.max()


class TestIdealKernelBracket:
    def test_limits_linear(self):
        k = MASS * 166.2 / HBAR
        target = lambda kp: HBAR * (k + kp) / (2 * MASS)
        # gamma -> 0 at fixed separation: error vanishes linearly
        delta = 0.01 * k
        gammas = np.array([1e6, 1e5, 1e4, 1e3])
        errs = np.array([
            abs(ds.ideal_kernel_bracket(k, k + delta, g, MASS, HBAR) - target(k + delta))
            for g in gammas
        ])
        slope = np.polyfit(np.log(gammas), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)
        # separation -> 0 at fixed gamma: error vanishes linearly while the
        # separation stays above the crossover scale gamma m / (hbar k)
        gamma = 1e6
        deltas = np.array([3e-2, 1e-2, 3e-3, 1e-3]) * k
        assert deltas.min() > 10 * gamma * MASS / (HBAR * k)
        errs = np.array([
            abs(ds.ideal_kernel_bracket(k, k + d, gamma, MASS, HBAR) - target(k + d))
            for d in deltas
        ])
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_diagonal_value(self):
        k = MASS * 100.0 / HBAR
        assert ds.ideal_kernel_bracket(k, k, 1e6, MASS, HBAR) == pytest.approx(
            HBAR * k / MASS, rel=1e-12
        )
