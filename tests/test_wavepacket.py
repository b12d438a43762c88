import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GAMMA, HBAR, MASS, k_of
from oracle import dense_gram, mpmath_gram
from toa_sim import distributions as ds
from toa_sim import kernels, wavepacket
from toa_sim.errors import ConsistencyFailure, DomainTooSmall, NormDeficit, RegimeWarning
from toa_sim.model import RabiProfile, cesium_config
from toa_sim.scattering import Region, _newton_wave
from toa_sim.series import TimeSeries, _node_count, l1_distance
from toa_sim.wavepacket import (
    ConditionalPropagator,
    GaussianComponent,
    KGrid,
    OVERLAP_TILE,
    PacketSpec,
    _collect,
    _gauss_legendre,
    _overlap_sums,
    _pair_groups,
    _pivoted_cholesky,
    _region_gram,
    _tile_pass,
    conditional_evolve,
    default_kgrid,
    first_photon_density,
    grid_amplitude,
    no_detection_probability,
    ridge_photon_density,
    spectral_amplitude,
)


def packet(v=166.2, delta_x=50e-6, waist=5e-6, offset_sigmas=12.0):
    tw = (offset_sigmas * delta_x + waist) / v
    comp = GaussianComponent(mean_velocity=v, delta_x=delta_x,
                             waist_position=waist, waist_time=tw)
    return PacketSpec(components=(comp,), mass=MASS), tw


def mode_values(modes, k0, x):
    """The sum of ``Region`` modes at the points x, (nk, nx)."""
    total = 0.0
    for coef, sign, delta, anchor, gap in modes:
        wave = (kernels._wave(k0, sign, delta, x - anchor) if gap is None
                else _newton_wave(k0, sign, delta, gap, x - anchor)[1])
        total = total + coef[:, None] * wave
    return total


def engine(nk, k0, half_lines=(), interiors=()):
    """The overlap engine's matrix for these terms, finished."""
    return _overlap_sums(k0, nk, half_lines, interiors)


def both_matrices(prop, window):
    """The detection matrix and the norm matrix on ``window``, in that order."""
    return prop.detection_matrix(), prop.norm_matrix(*window)


def fig6_packet():
    v1 = 167.05
    sigx = 4233e-6
    L = 5e-6
    tw = (12 * sigx + L) / v1
    comps = tuple(
        GaussianComponent(mean_velocity=v, delta_x=sigx, waist_position=L, waist_time=tw)
        for v in (v1, v1 + 0.9e-6)
    )
    return PacketSpec(components=comps, mass=MASS), tw


def free_gaussian(x, t, comp, mass, hbar):
    """Closed-form freely evolving Gaussian (test oracle)."""
    kbar = mass * comp.mean_velocity / hbar
    dk = 0.5 / comp.delta_x
    tau = t - comp.waist_time
    a = 1.0 / (4 * dk * dk) + 0.5j * hbar * tau / mass
    b = x - comp.waist_position - hbar * kbar * tau / mass
    pref = (2 * math.pi * dk * dk) ** -0.25 / math.sqrt(2 * math.pi)
    return pref * np.sqrt(math.pi / a) * np.exp(
        1j * kbar * (x - comp.waist_position)
        - 1j * hbar * kbar**2 * tau / (2 * mass)
        - b * b / (4 * a)
    )


class TestPacketSpec:
    def test_single_component_norm(self):
        spec, _ = packet()
        grid = default_kgrid(spec)
        psi = grid_amplitude(spec, grid)
        assert np.sum(grid.weights * np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_two_component_norm_with_cross_terms(self):
        spec, _ = fig6_packet()
        grid = default_kgrid(spec)
        psi = grid_amplitude(spec, grid)
        assert np.sum(grid.weights * np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)
        # two nearly overlapping humps in |psi(k)|
        from scipy.signal import find_peaks

        peaks, _ = find_peaks(np.abs(psi))
        assert len(peaks) == 2

    def test_peak_at_mean_wavenumber(self):
        spec, _ = packet(v=100.0)
        kbar = MASS * 100.0 / HBAR
        ks = kbar + np.linspace(-3, 3, 7) * 1e4
        vals = np.abs(spectral_amplitude(spec, ks))
        assert np.argmax(vals) == 3

    @pytest.mark.parametrize("make", [packet, fig6_packet])
    def test_spectral_amplitude_matches_grid_amplitude(self, make):
        # one amplitude core: at the grid nodes the two forms differ only by
        # the rounding of the carrier-sized k - kbar in spectral_amplitude
        spec, _ = make()
        grid = default_kgrid(spec)
        on_grid = grid_amplitude(spec, grid)
        direct = spectral_amplitude(spec, grid.nodes)
        assert np.abs(direct - on_grid).max() <= 1e-6 * np.abs(on_grid).max()

    def test_negative_momentum_rejected(self):
        # a packet with sizeable negative-momentum content must not build
        with pytest.raises(NormDeficit):
            PacketSpec(
                components=(GaussianComponent(mean_velocity=0.5, delta_x=1e-9),),
                mass=MASS,
            )

    def test_gauss_legendre_rule_computed_once_per_size(self):
        spec, _ = packet()
        a = default_kgrid(spec, n_nodes=300)
        b = default_kgrid(spec, n_nodes=300)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)
        x, w = _gauss_legendre(300)
        assert _gauss_legendre(300)[0] is x
        assert not x.flags.writeable and not w.flags.writeable

    def test_grid_nodes_positive(self):
        spec, _ = packet()
        grid = default_kgrid(spec)
        assert np.all(grid.nodes > 0.0)


class TestConditionalEvolve:
    def test_free_limit_matches_closed_form(self):
        comp = GaussianComponent(mean_velocity=1.0, delta_x=100e-6)
        spec = PacketSpec(components=(comp,), mass=MASS)
        cfg = cesium_config(omega=0.0)
        xs = np.array([-4e-4, 3e-4, 5e-4, 9e-4])
        t = 5e-4
        state = conditional_evolve(spec, cfg, default_kgrid(spec), xs, t)
        oracle = free_gaussian(xs, t, comp, MASS, HBAR)
        assert np.abs(state[0] - oracle).max() / np.abs(oracle).max() < 1e-8
        assert np.abs(state[1]).max() == 0.0

    def test_norm_before_arrival(self):
        spec, tw = packet()
        cfg = cesium_config(omega=104.43e6)
        n0 = no_detection_probability(spec, cfg, default_kgrid(spec), 0.0)
        assert n0 == pytest.approx(1.0, abs=1e-6)

    def test_uncoupled_norm_constant(self):
        spec, tw = packet()
        cfg = cesium_config(omega=0.0)
        grid = default_kgrid(spec)
        for t in (0.0, tw, 2 * tw):
            assert no_detection_probability(spec, cfg, grid, t) == pytest.approx(1.0, abs=1e-6)

    def test_near_total_detection_on_ridge(self):
        # packet matched to the first full-excitation ridge: almost nothing
        # survives after transit
        cfg = cesium_config(omega=104.43e6)
        v0 = cfg.beam_width * cfg.omega / math.pi
        spec, tw = packet(v=v0)
        grid = default_kgrid(spec)
        t_end = tw + 12 * 50e-6 / v0 + 15 / GAMMA
        n_end = no_detection_probability(spec, cfg, grid, t_end)
        assert n_end < 0.05

    def test_domain_too_small(self):
        spec, tw = packet()
        cfg = cesium_config(omega=104.43e6)
        with pytest.raises(DomainTooSmall):
            no_detection_probability(spec, cfg, default_kgrid(spec), 0.0,
                                     spatial_domain=(-1e-4, 1e-4))

    @pytest.mark.parametrize("window", [
        pytest.param((3e-4, -3e-4), id="reversed"),
        pytest.param((-3e-4, -3e-4), id="empty"),
        pytest.param((-math.inf, 3e-4), id="infinite"),
        pytest.param((-3e-4, math.nan), id="nan"),
    ])
    def test_bad_window_is_domain_too_small(self, window):
        prop = small_propagator(104.43e6)
        with pytest.raises(DomainTooSmall):
            no_detection_probability(prop.spec, prop.config, prop.grid, 0.0,
                                     spatial_domain=window)
        with pytest.raises(DomainTooSmall):
            prop.norm_matrix(*window)
        assert prop._detection_matrix is None and not prop._norm_matrix_cache

    def test_norm_windows_are_keyed_exactly(self):
        prop = small_propagator(104.43e6)
        n = prop.norm_matrix(-3e-4, 6e-4)
        assert prop.norm_matrix(-3e-4 + 2e-13, 6e-4) is not n
        assert prop.norm_matrix(-3e-4, 6e-4) is n

    def test_backend_uniformity(self):
        # analytic and transfer backends produce the same evolving state
        spec, tw = packet()
        cfg = cesium_config(omega=104.43e6)
        grid = default_kgrid(spec)
        xs = np.array([-2e-5, 2e-6, 3e-5])
        a = conditional_evolve(spec, cfg, grid, xs, tw, backend="analytic")
        b = conditional_evolve(spec, cfg, grid, xs, tw, backend="transfer")
        assert np.abs(a - b).max() / np.abs(a).max() < 1e-9


class TestFirstPhotonDensity:
    def make(self, omega=104.43e6, v=None, sigx=50e-6, n_t=1200):
        cfg = cesium_config(omega=omega)
        if v is None:
            v = cfg.beam_width * cfg.omega / math.pi
        spec, tw = packet(v=v, delta_x=sigx)
        grid = default_kgrid(spec, n_nodes=513)
        t_end = tw + 12 * sigx / v + 15 / GAMMA
        times = TimeSeries(t0=0.0, dt=t_end / n_t, values=np.zeros(n_t + 1))
        return cfg, spec, grid, times

    def test_probability_balance_and_consistency(self):
        cfg, spec, grid, times = self.make()
        pi = first_photon_density(spec, cfg, grid, times)
        assert pi.meta["route_discrepancy"] < 1e-3
        prop = ConditionalPropagator(spec, cfg, grid)
        t_end = float(times.times[-1])
        n_end = prop.norm(np.array([t_end]), *prop.default_domain(t_end))[0]
        total = float(np.trapezoid(pi.values, dx=times.dt))
        assert total + n_end == pytest.approx(1.0, abs=1e-4)
        # total detection equals the spectrally weighted absorption
        R1, _, T1, _ = prop.amplitudes
        absorbed = 1.0 - np.abs(T1) ** 2 - np.abs(R1) ** 2
        weighted = float(np.sum(grid.weights * np.abs(prop.psi) ** 2 * absorbed))
        assert total == pytest.approx(weighted, abs=1e-4)

    def test_survival_ends_reported(self):
        cfg, spec, grid, times = self.make()
        pi = first_photon_density(spec, cfg, grid, times)
        prop = ConditionalPropagator(spec, cfg, grid)
        t = times.times
        lo0, hi0 = prop.default_domain(float(t[0]))
        lo1, hi1 = prop.default_domain(float(t[-1]))
        window = (min(lo0, lo1), max(hi0, hi1))
        for key, when in (("survival_start", t[0]), ("survival_end", t[-1])):
            direct = prop.norm([when], *window)[0]
            assert pi.meta[key] == pytest.approx(direct, rel=1e-12)
        assert pi.meta["survival_start"] == pytest.approx(1.0, abs=1e-9)

    def test_sample_nodes_made_once(self, monkeypatch):
        # the detection and the norm forms are sampled on the same times
        calls = []
        sample = wavepacket.chebyshev_samples
        monkeypatch.setattr(wavepacket, "chebyshev_samples",
                            lambda *args: calls.append(args) or sample(*args))
        cfg, spec, grid, times = self.make()
        pi = first_photon_density(spec, cfg, grid, times)
        assert len(calls) == 1
        prop = ConditionalPropagator(spec, cfg, grid)
        t = times.times
        assert np.array_equal(prop.photon_density(t), pi.values)
        before = prop.photon_density(t[::2])
        t[::2] = 0.0  # the kept times are a copy
        assert np.array_equal(prop.photon_density(times.times[::2]), before)
        assert len(calls) == 3

    def test_phase_basis_made_once(self, monkeypatch):
        # the detection and the norm forms share the (nk, nodes) basis
        calls = []
        phases = ConditionalPropagator._phases
        monkeypatch.setattr(ConditionalPropagator, "_phases",
                            lambda prop, nodes: calls.append(nodes) or phases(prop, nodes))
        cfg, spec, grid, times = self.make()
        first_photon_density(spec, cfg, grid, times)
        assert len(calls) == 1

    def test_phase_basis_is_the_complex_exponential(self):
        # cos - i sin of the real phases, times the coefficients in place:
        # the complex exponential's basis to the bit
        cfg, spec, grid, times = self.make()
        prop = ConditionalPropagator(spec, cfg, grid)
        nodes, _ = wavepacket.chebyshev_samples(times.times, np.ptp(prop.omega_rel))
        want = np.exp(-1j * np.outer(prop.omega_rel, nodes))
        want *= prop.coeff[:, None]
        assert np.array_equal(prop._phases(nodes), want)

    def test_shared_basis_matches_fresh_forms(self):
        # gamma*P2 and (N, -dN/dt) on one basis equal each form on its own
        cfg, spec, grid, times = self.make()
        t = times.times
        props = [ConditionalPropagator(spec, cfg, grid) for _ in range(3)]
        window = props[0].default_domain(float(t[-1]))
        for prop in props:
            both_matrices(prop, window)
        shared, alone_pi, alone_norm = props
        pi = shared.photon_density(t)
        survival, rate = shared.norm_and_rate(t, *window)
        assert np.array_equal(pi, alone_pi.photon_density(t))
        want_survival, want_rate = alone_norm.norm_and_rate(t, *window)
        assert np.array_equal(survival, want_survival)
        assert np.array_equal(rate, want_rate)

    @pytest.mark.parametrize("n_t", [60, 1200])
    def test_route_exact_whatever_the_time_step(self, n_t):
        # -dN/dt is the derivative of the quadratic form, not a difference
        # quotient, so a coarse grid carries no truncation error
        cfg, spec, grid, times = self.make(n_t=n_t)
        pi = first_photon_density(spec, cfg, grid, times)
        assert pi.meta["route_discrepancy"] < 1e-8

    def test_rate_is_derivative_of_norm(self):
        cfg, spec, grid, times = self.make()
        prop = ConditionalPropagator(spec, cfg, grid)
        window = prop.default_domain(float(times.times[-1]))
        t = times.times[::50]
        survival, rate = prop.norm_and_rate(t, *window)
        assert np.array_equal(survival, prop.norm(t, *window))
        h = 1e-2 * times.dt
        steps = [prop.norm(t + j * h, *window) for j in (-2, -1, 1, 2)]
        fd = -(steps[0] - 8 * steps[1] + 8 * steps[2] - steps[3]) / (12 * h)
        assert np.abs(rate - fd).max() <= 1e-6 * np.abs(rate).max()

    def test_route_flags_inconsistent_density(self, monkeypatch):
        # the detection factor F scaled by sqrt(1.01): D = F^T conj(F) 1 % too large
        cfg, spec, grid, times = self.make()
        detection = ConditionalPropagator._detection

        def corrupted(prop):
            factor = detection(prop)
            assert factor.shape[0] < factor.shape[1]
            return math.sqrt(1.01) * factor

        monkeypatch.setattr(ConditionalPropagator, "_detection", corrupted)
        with pytest.raises(ConsistencyFailure, match="gamma"):
            first_photon_density(spec, cfg, grid, times)

    def test_density_nonnegative_and_monotone_norm(self):
        cfg, spec, grid, times = self.make()
        pi = first_photon_density(spec, cfg, grid, times)
        assert pi.values.min() > -1e-9 * pi.values.max()
        prop = ConditionalPropagator(spec, cfg, grid)
        t_end = float(times.times[-1])
        dom = prop.default_domain(t_end)
        survival = prop.norm(times.times[::40], *dom)
        assert np.all(np.diff(survival) <= 1e-9)

    def test_uncoupled_density_vanishes(self):
        cfg, spec, grid, times = self.make(omega=0.0, v=166.2)
        pi = first_photon_density(spec, cfg, grid, times)
        assert np.abs(pi.values).max() == 0.0

    def test_absorption_identity_diagonal(self):
        # detection-matrix diagonal reproduces the stationary absorption
        cfg, spec, grid, _ = self.make()
        prop = ConditionalPropagator(spec, cfg, grid)
        d2 = prop.detection_matrix()
        R1, _, T1, _ = prop.amplitudes
        a_amp = 1.0 - np.abs(T1) ** 2 - np.abs(R1) ** 2
        a_gram = GAMMA * (2 * math.pi * MASS / (HBAR * prop.k)) * np.real(np.diag(d2))
        assert np.abs(a_amp - a_gram).max() < 1e-9


class TestRidgeApproximation:
    def test_matches_exact_route_on_ridge(self):
        # moderate spectral width keeps the packet well inside the ridge;
        # wide enough in time that transit-scale distortions are small
        omega = 10 * GAMMA
        cfg = cesium_config(omega=omega)
        v0 = cfg.beam_width * omega / math.pi
        sigx = 200e-6
        spec, tw = packet(v=v0, delta_x=sigx)
        grid = default_kgrid(spec)
        prop = ConditionalPropagator(spec, cfg, grid)
        sig_t = sigx / v0
        n_t = 1600
        t0 = tw - 6 * sig_t
        dt = (12 * sig_t + 20 / GAMMA) / n_t
        times = TimeSeries(t0=t0, dt=dt, values=np.zeros(n_t + 1))
        exact = ds.DistributionSeries(t0=t0, dt=dt,
                                      values=prop.photon_density(times.times),
                                      kind="observed")
        with pytest.warns(RegimeWarning):
            ridge = ridge_photon_density(spec, cfg, times)
        ridge_d = ds.DistributionSeries(t0=t0, dt=dt, values=ridge.values, kind="observed")
        assert l1_distance(ds.normalize(exact), ds.normalize(ridge_d)) < 0.02

    def test_deconvolved_ridge_matches_flux_for_interference_preset(self):
        # two-Gaussian interference packet: the deconvolved ridge kernel,
        # normalized, reproduces the free flux shape
        v1 = 167.05
        sigx = 4233e-6
        cfg = cesium_config(omega=104.43e6)
        L = cfg.beam_width
        tw = (12 * sigx + L) / v1
        comps = tuple(
            GaussianComponent(mean_velocity=v, delta_x=sigx, waist_position=L, waist_time=tw)
            for v in (v1, v1 + 0.9e-6)
        )
        spec = PacketSpec(components=comps, mass=MASS)
        prop = ConditionalPropagator(spec, cfg, default_kgrid(spec))
        sig_t = sigx / v1
        n_t = 1500
        times = TimeSeries(t0=tw - 5 * sig_t, dt=10 * sig_t / n_t, values=np.zeros(n_t + 1))
        pid = ds.DistributionSeries(t0=times.t0, dt=times.dt,
                                    values=prop.ideal_ridge_density(times.times),
                                    kind="ideal")
        flux = ds.free_flux(spec, L, times)
        assert l1_distance(ds.normalize(pid), ds.normalize(flux)) < 0.02

    def test_delay_scale(self):
        # the mean detection time lags the mean free arrival by roughly the
        # excited-state lifetime
        omega = 10 * GAMMA
        cfg = cesium_config(omega=omega)
        v0 = cfg.beam_width * omega / math.pi
        sigx = 200e-6
        spec, tw = packet(v=v0, delta_x=sigx)
        prop = ConditionalPropagator(spec, cfg, default_kgrid(spec))
        sig_t = sigx / v0
        tt = np.linspace(tw - 6 * sig_t, tw + 6 * sig_t + 20 / GAMMA, 4001)
        dt = tt[1] - tt[0]
        pi = prop.photon_density(tt)
        mean_pi = np.trapezoid(tt * pi, dx=dt) / np.trapezoid(pi, dx=dt)
        assert mean_pi - tw == pytest.approx(1.0 / GAMMA, rel=0.3)


class TestIdealSpectralDeconvolution:
    def test_matches_grid_deconvolution(self):
        # the per-pair delay division must agree with FFT deconvolution of
        # the sampled exact density
        cfg = cesium_config(omega=104.43e6)
        v0 = cfg.beam_width * cfg.omega / math.pi
        spec, tw = packet(v=v0, delta_x=100e-6)
        grid = default_kgrid(spec)
        prop = ConditionalPropagator(spec, cfg, grid)
        sig_t = 100e-6 / v0
        n_t = 4000
        t0 = tw - 6 * sig_t
        dt = 12 * sig_t / n_t
        times = TimeSeries(t0=t0, dt=dt, values=np.zeros(n_t + 1))
        pi = ds.DistributionSeries(t0=t0, dt=dt, values=prop.photon_density(times.times),
                                   kind="observed")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fft_route = ds.deconvolve(pi, GAMMA, method="fourier")
        spectral = prop.ideal_density(times.times)
        scale = np.abs(spectral).max()
        sel = slice(100, -100)  # FFT route has small wrap-around at the ends
        assert np.abs(fft_route.values[sel] - spectral[sel]).max() < 5e-3 * scale


def small_propagator(omega, v=166.2, backend="analytic", profile=None, n_nodes=24):
    """Propagator on a hand-built Gauss-Legendre grid across the packet's spectrum."""
    cfg = cesium_config(omega=omega, profile=profile)
    spec, _ = packet(v=v)
    k0 = MASS * v / HBAR
    dk = 0.5 / 50e-6
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    grid = KGrid(origin=k0, offsets=8 * dk * x, weights=8 * dk * w)
    return ConditionalPropagator(spec, cfg, grid, backend=backend, n_slices=16)


GAUSSIAN_BEAM = RabiProfile(kind="gaussian", omega0=104.43e6, center=2.5e-6, width=0.529e-6)

# nk below the row tile of the overlap engine, and one row past a multiple of it
TILE_SIZES = [24, OVERLAP_TILE + 1, 3 * OVERLAP_TILE + 1]
OVERLAP_CASES = [
    pytest.param(104.43e6, "analytic", None, id="sharp"),
    pytest.param(0.0, "analytic", None, id="sharp-uncoupled"),
    pytest.param(104.43e6, "transfer", GAUSSIAN_BEAM, id="transfer-gaussian"),
]


class TestOverlapEngine:
    @pytest.mark.parametrize("omega,backend,profile", OVERLAP_CASES)
    def test_modes_bounded_at_region_endpoints(self, omega, backend, profile):
        # the endpoint factors of the overlap engine rely on this bound: both
        # waves of a Newton mode bounded, so that |N| <= width
        prop = small_propagator(omega, backend=backend, profile=profile)
        checked = 0
        for region in prop.regions:
            for modes in region.channel_modes:
                for _coef, _sign, delta, anchor, gap in modes:
                    for x in (region.x1, region.x2):
                        if math.isinf(x):
                            continue
                        waves = [delta] if gap is None else [delta, delta - gap]
                        for d in waves:
                            assert np.abs(np.exp(1j * d * (x - anchor))).max() <= 1.0 + 1e-12
                        if gap is not None:
                            newton = kernels.newton_mode(1.0, delta, delta - gap, gap, x - anchor)[0]
                            width = region.x2 - region.x1
                            assert np.abs(newton).max() <= width * (1.0 + 1e-12)
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("omega,backend,profile", OVERLAP_CASES)
    def test_matrices_exactly_hermitian(self, omega, backend, profile):
        prop = small_propagator(omega, backend=backend, profile=profile)
        d2 = prop.detection_matrix()
        n = prop.norm_matrix(*prop.default_domain(0.0))
        assert np.array_equal(d2, d2.conj().T)
        assert np.array_equal(n, n.conj().T)
        assert np.abs(n).max() > 0.0

    @pytest.mark.parametrize("omega", [5 * GAMMA, 0.3 * GAMMA, 0.0])
    def test_interior_gram_matches_quadrature(self, omega):
        # at 0.5 m/s the fastest mode products oscillate ~1700 times across
        # the beam, which 2000 16-node Gauss-Legendre panels resolve
        prop = small_propagator(omega, v=0.5)
        L = prop.config.beam_width
        interior = prop.regions[1]
        assert (interior.x1, interior.x2) == (0.0, L)
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, L, 2001)
        half = 0.5 * np.diff(edges)
        xs = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
        ws = (half[:, None] * w).ravel()
        k0 = interior.carrier
        for modes in interior.channel_modes:
            if not modes:
                continue
            psi = mode_values(modes, k0, xs)
            quad = (psi * ws) @ psi.conj().T
            gram = _region_gram(modes, 0.0, L, interior)
            assert np.abs(gram - quad).max() <= 1e-10 * np.abs(quad).max()

    def test_closed_channel_is_one_field(self, monkeypatch):
        # without decay, below the dressed threshold k+ is imaginary: a
        # forward and a backward k+ wave resonate (alpha = 2 Re k+ = 0),
        # so the two directions do not separate and the channel is
        # integrated as one field, carrier included, in panels; past one
        # row tile its low-rank products span several tiles
        taken = gauss_sets(monkeypatch)
        spec, _ = packet(v=0.05)
        k0 = k_of(0.05)
        for n_nodes in TILE_SIZES:
            x, w = np.polynomial.legendre.leggauss(n_nodes)
            grid = KGrid(origin=k0, offsets=8e4 * x, weights=8e4 * w)
            prop = ConditionalPropagator(spec, cesium_config(omega=5 * GAMMA, gamma=0.0), grid)
            interior = prop.regions[1]
            rows = [0, n_nodes // 2 - 1, n_nodes - 1]
            for modes in interior.channel_modes:
                # the oracle is mpmath's; dense_gram, whose Newton modes
                # take the larger wave from its offset as the engine's do,
                # reads 3.6e-15 at 24 nodes (NaN where it formed exp(i gap
                # y), which overflows here)
                got = _region_gram(modes, interior.x1, interior.x2, interior)
                want = mpmath_gram(modes, interior.x1, interior.x2, k0, rows=rows)
                assert np.abs(got[rows] - want).max() <= 1e-12 * np.abs(got).max()
        assert any(len(set(signs)) == 2 for signs in taken)

    def test_dense_oracle_is_finite_in_a_closed_channel(self):
        # the closed channel above, on a quarter of the beam and four nodes:
        # exp(i gap y) reaches exp(726) there, and dense_gram, which formed
        # it, read NaN; its Newton modes now take the larger wave from its
        # offset, as the engine's do
        spec, _ = packet(v=0.05)
        k0 = k_of(0.05)
        x, w = np.polynomial.legendre.leggauss(4)
        grid = KGrid(origin=k0, offsets=8e4 * x, weights=8e4 * w)
        prop = ConditionalPropagator(spec, cesium_config(omega=5 * GAMMA, gamma=0.0), grid)
        interior = prop.regions[1]
        x2 = interior.x1 + 0.25 * (interior.x2 - interior.x1)
        ground = interior.channel_modes[0]
        want = mpmath_gram(ground, interior.x1, x2, k0)
        got = dense_gram(ground, interior.x1, x2, k0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_series_branch_at_near_resonance(self):
        # a Cauchy (half-line) group with nodes at |u| = |k_i - k_j| (x2 -
        # x1) on both sides of the switch at 1 (and of the earlier one at
        # 1e-2); below it the difference quotient alone would lose
        # -log10(u) digits
        width = 2.0
        u = np.array([0.0, 1e-7, 1e-5, 1e-3, 0.5e-2, 0.99e-2, 1.25e-2, 3e-2, 0.5, 0.99, 1.25, 3.0])
        modes = [(np.ones(u.size, dtype=complex), 1.0, (u / width).astype(complex), 0.0, None)]
        gram = engine(u.size, 0.0, half_lines=[(modes, 0.0, width, 1.0)])
        assert np.array_equal(np.diag(gram), np.full(u.size, width, dtype=complex))
        closed = width * np.exp(-0.5j * u) * np.sinc(u / (2 * np.pi))
        assert np.abs(gram[0] - closed).max() <= 1e-14 * width


def region_dense_gram(modes, x1, x2, region):
    """``oracle.dense_gram`` with the carrier of the region [x1, x2] lies in."""
    return dense_gram(modes, x1, x2, region.carrier)


def region_detection(prop, gram=_region_gram):
    """Detection matrix as the plain per-region sum (oracle for the shared engine).

    ``gram`` integrates one channel over one interval of one region: the
    engine's one-term call by default, ``region_dense_gram`` for a
    pair-by-pair reference in the same offset form.
    """
    nk = prop.k.shape[0]
    out = np.zeros((nk, nk), dtype=complex)
    for region in prop.regions:
        if region.channel_modes[1]:
            out += gram(region.channel_modes[1], region.x1, region.x2, region)
    return out / (2 * math.pi)


def region_norm(prop, x_min, x_max, gram=_region_gram):
    """Norm matrix as the plain per-region, per-channel sum over the clipped window."""
    nk = prop.k.shape[0]
    out = np.zeros((nk, nk), dtype=complex)
    for region in prop.regions:
        lo, hi = max(x_min, region.x1), min(x_max, region.x2)
        if hi <= lo:
            continue
        for ch in (0, 1):
            if region.channel_modes[ch]:
                out += gram(region.channel_modes[ch], lo, hi, region)
    return out / (2 * math.pi)


def assert_matches(matrix, reference):
    """Equal to the region sum up to summation order, and exactly Hermitian."""
    assert np.abs(matrix - reference).max() <= 1e-13 * np.abs(reference).max()
    assert np.array_equal(matrix, matrix.conj().T)


SHARED_CASES = [
    pytest.param(104.43e6, "analytic", None, id="sharp"),
    pytest.param(0.0, "analytic", None, id="sharp-uncoupled"),
    pytest.param(GAMMA / 2 * (1 + 1e-3), "analytic", None, id="sharp-near-degenerate"),
    pytest.param(104.43e6, "transfer", GAUSSIAN_BEAM, id="transfer-gaussian"),
]


class TestSharedExcitedBlocks:
    @pytest.mark.parametrize("omega,backend,profile", SHARED_CASES)
    def test_matrices_match_region_sums(self, omega, backend, profile):
        prop = small_propagator(omega, backend=backend, profile=profile)
        assert_matches(prop.detection_matrix(), region_detection(prop))
        x_left, x_right = prop.regions[0].x2, prop.regions[-1].x1
        decay = 166.2 / GAMMA  # excited decay length at the packet speed
        windows = [prop.default_domain(0.0),
                   (x_left - 0.5 * decay, x_right + 2.0 * decay),
                   (x_left, x_right + decay)]
        for window in windows:
            assert_matches(prop.norm_matrix(*window), region_norm(prop, *window))

    def test_windows_inside_the_beam(self):
        prop = small_propagator(104.43e6)
        L = prop.config.beam_width
        for window in ((0.5 * L, 50e-6), (-50e-6, 0.5 * L), (0.25 * L, 0.75 * L)):
            assert_matches(prop.norm_matrix(*window), region_norm(prop, *window))

    @pytest.mark.parametrize("omega,backend,profile", SHARED_CASES[:1] + SHARED_CASES[3:])
    def test_norm_only_covering_build_caches_detection_matrix(self, omega, backend, profile):
        # a covering norm adds the detection matrix's factor, so a caller
        # that asks only for the norm builds it, and it is the one a fresh
        # build gives
        first = small_propagator(omega, backend=backend, profile=profile)
        first.norm_matrix(*first.default_domain(0.0))
        cached = first._detection_matrix
        assert cached is not None and first._detection() is cached
        assert cached.shape[0] < cached.shape[1]
        fresh = small_propagator(omega, backend=backend, profile=profile)
        assert np.array_equal(cached, fresh._detection())
        assert np.array_equal(first.detection_matrix(), fresh.detection_matrix())


def sliced_inside_windows(prop):
    """Norm windows that cut the outer slices of a sliced beam.

    There the weakly coupled modes come within the series switch of both
    the whole slice (detection term) and its part in the window (norm term).
    """
    first, last = prop.regions[1], prop.regions[-2]
    lo = first.x1 + 0.4 * (first.x2 - first.x1)
    hi = last.x1 + 0.6 * (last.x2 - last.x1)
    return [(lo, 50e-6), (-50e-6, hi), (lo, hi), (lo, 0.5 * (first.x1 + last.x2))]


class TestOverlapMatrices:
    @pytest.mark.parametrize("n_nodes", TILE_SIZES)
    @pytest.mark.parametrize("omega,backend,profile", SHARED_CASES)
    def test_one_pass_matches_separate_builds(self, omega, backend, profile, n_nodes):
        # each matrix is one engine run: the norm built on a cached detection
        # matrix is the norm whose build forms that matrix first, to the bit
        prop = small_propagator(omega, backend=backend, profile=profile, n_nodes=n_nodes)
        window = prop.default_domain(0.0)
        d2, n = both_matrices(prop, window)
        detection = prop._detection()
        assert prop._detection() is detection
        assert prop.norm_matrix(*window) is n
        separate = small_propagator(omega, backend=backend, profile=profile, n_nodes=n_nodes)
        assert np.array_equal(n, separate.norm_matrix(*window))
        assert np.array_equal(detection, separate._detection())
        assert np.array_equal(d2, separate.detection_matrix())
        assert_matches(d2, region_detection(prop))
        assert_matches(n, region_norm(prop, *window))

    @pytest.mark.parametrize("shape", ["ridge", "plateau", "weak", "fig6", "fig7-150"])
    def test_norm_is_independent_of_call_order(self, shape, monkeypatch):
        # a covering norm takes the detection-matrix path whether or not the
        # detection matrix was asked for first, so both orders give its bits.
        # Asked for first, it builds the detection matrix in one pass over
        # the beam's waves with its own ground channel, and on the fig7
        # slices both matrices' buffers flush past LOW_RANK_COLUMNS during
        # that pass; a window that does not cover the beam shares no pass
        if shape == "fig7-150":
            make = functools.partial(arrival_propagator, 5 * GAMMA, (150.0,), 2e-6, 5.0,
                                     FIG7_BEAM, 48)
        else:
            make = functools.partial(arrival_propagator, *ARRIVAL_SHAPES[shape])
        buffers, flushed = [], set()
        products, tile_pass = wavepacket._gauss_products, wavepacket._tile_pass

        def spy_products(*args):
            buffers.append(len(args[-1]))
            return products(*args)

        def spy_tile_pass(low_rank, *args, **kwargs):
            if not (args or kwargs):   # a flush of LOW_RANK_COLUMNS
                flushed.add(id(low_rank))
            return tile_pass(low_rank, *args, **kwargs)

        monkeypatch.setattr(wavepacket, "_gauss_products", spy_products)
        monkeypatch.setattr(wavepacket, "_tile_pass", spy_tile_pass)
        norm_first, window = make()
        n = norm_first.norm_matrix(*window)
        assert buffers and set(buffers) == {2}
        assert len(flushed) == (2 if shape == "fig7-150" else 0)
        detection_first, _ = make()
        d2 = detection_first.detection_matrix()
        assert np.array_equal(n, detection_first.norm_matrix(*window))
        assert np.array_equal(d2, norm_first.detection_matrix())
        regions = norm_first.regions
        short = (window[0], 0.5 * (regions[0].x2 + regions[-1].x1))
        buffers.clear()
        partial_first, _ = make()
        partial = partial_first.norm_matrix(*short)
        assert partial_first._detection_matrix is None and set(buffers) == {1}
        assert np.array_equal(partial, detection_first.norm_matrix(*short))

    @pytest.mark.parametrize("n_nodes", TILE_SIZES)
    def test_windows_inside_the_beam(self, n_nodes):
        # the interior terms hold the detection term over [0, L] and the
        # norm terms over the part of the beam in the window
        L = small_propagator(104.43e6).config.beam_width
        for window in ((0.5 * L, 50e-6), (-50e-6, 0.5 * L), (0.25 * L, 0.75 * L)):
            prop = small_propagator(104.43e6, n_nodes=n_nodes)
            d2, n = both_matrices(prop, window)
            assert_matches(n, small_propagator(104.43e6, n_nodes=n_nodes).norm_matrix(*window))
            assert_matches(d2, region_detection(prop))
            assert_matches(n, region_norm(prop, *window))

    @pytest.mark.parametrize("n_nodes", TILE_SIZES)
    def test_windows_inside_the_sliced_beam(self, n_nodes):
        # detection elements between the two switches take the quotient,
        # norm elements the series.  The norm is compared with its own build
        # only: its ground and excited pairs share numerators, and near the
        # switch the per-channel sums differ from that by rounding of the
        # carrier-size phases (both lie ~1e-8 off a 40-digit evaluation).
        make = functools.partial(small_propagator, 104.43e6, backend="transfer",
                                 profile=GAUSSIAN_BEAM, n_nodes=n_nodes)
        for window in sliced_inside_windows(make()):
            prop = make()
            d2, n = both_matrices(prop, window)
            assert_matches(n, make().norm_matrix(*window))
            assert_matches(d2, region_detection(prop))

    def test_two_series_switches_in_one_group(self):
        # one Cauchy group holds a term over [0, 2] and one over [2 - 2e-3,
        # 2]: the elements on both sides of the long term's switch (|u_i -
        # u_j| = 1) take the form about x1 for the short term, where a
        # quotient would lose up to nine digits.  That form holds to
        # rounding up to |u| = 1, so on both sides of each switch the
        # elements sit at rounding
        u = np.array([0.0, 1e-7, 1e-5, 3e-5, 1e-3, 0.5e-2, 0.99e-2, 1.25e-2, 3e-2, 0.1,
                      0.99, 1.25, 3.0])
        modes = [(np.ones(u.size, dtype=complex), 1.0, (u / 2.0).astype(complex), 0.0, None)]
        terms = [(modes, 0.0, 2.0, 1.0), (modes, 2.0 - 2e-3, 2.0, 1.0)]
        alpha = np.subtract.outer(u, u) / 2.0

        def closed(x1, x2):
            w = x2 - x1
            return w * np.exp(0.5j * alpha * (x1 + x2)) * np.sinc(alpha * w / (2 * np.pi))

        got = engine(u.size, 0.0, half_lines=terms)
        assert np.abs(got - closed(0.0, 2.0) - closed(2.0 - 2e-3, 2.0)).max() <= 1e-14 * 2.0

    def test_detection_built_after_the_norm(self):
        prop = small_propagator(104.43e6)
        window = prop.default_domain(0.0)
        n = prop.norm_matrix(*window)
        d2, again = both_matrices(prop, window)
        assert again is n
        assert_matches(d2, region_detection(prop))

    def test_requires_decay(self):
        # without decay the excited half-lines do not converge: there is no
        # detection matrix, and a norm integrates both channels over its window
        spec, _ = packet()
        prop = ConditionalPropagator(spec, cesium_config(omega=104.43e6, gamma=0.0),
                                     default_kgrid(spec, n_nodes=32))
        with pytest.raises(ValueError, match="gamma > 0"):
            prop.detection_matrix()
        n = prop.norm_matrix(-1e-3, 1e-3)
        assert np.array_equal(n, n.conj().T) and prop._detection_matrix is None
        # the per-region sum takes the wide clips of the half-lines as the
        # engine does, as Cauchy groups
        assert_matches(n, region_norm(prop, -1e-3, 1e-3))


class TestGramOracle:
    @pytest.mark.parametrize("v", [2.0, 10.0])
    def test_sharp_detection_matrix_matches_mpmath(self, v):
        # slow atoms: the interior fields are carrier-free products of
        # decaying waves, and the oracle takes the carrier phases exactly
        prop = small_propagator(104.43e6, v=v)
        want = sum(mpmath_gram(region.channel_modes[1], region.x1, region.x2, region.carrier)
                   for region in prop.regions) / (2 * math.pi)
        got = prop.detection_matrix()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestNormOracleAt641:
    def test_ridge_norm_rows_match_mpmath(self):
        # the covering norm of the ridge packet at the benchmark's 641
        # nodes, in the last row tiles, where the near set is cut, and at a
        # mid-grid row.  The Legendre nodes crowd at the grid's edge, so
        # there pairs sit just past the series switch; with the switch at
        # |u| = 1e-2 the quotient lost two digits to the rounding of the
        # endpoint phases: 2.4e-13 at element (637, 639) of the benchmark's
        # ridge packet (seed 5), 1.2e-12 at (637, 638) here.  At |u| = 1
        # they are 1.9e-14
        prop, window = arrival_propagator(*ARRIVAL_SHAPES["ridge"], n_nodes=641)
        rows = [320, 600, 620, 637, 640]
        cols = [320, 600, 620, 630, 636, 637, 638, 639, 640]
        want = sum(mpmath_gram(modes, max(window[0], region.x1), min(window[1], region.x2),
                               region.carrier, rows=rows, cols=cols)
                   for region in prop.regions for modes in region.channel_modes if modes)
        got = prop.norm_matrix(*window)
        gap = np.abs(got[np.ix_(rows, cols)] - want / (2 * math.pi)).max()
        assert gap <= 1e-13 * np.abs(got).max()

    def test_dense_oracle_matches_mpmath_at_the_grid_edge(self):
        # the dense reference on the same packet's incident ground clip,
        # rows and columns 600-640 about the diagonal: with its form about
        # x1 switched in at |u| = 1e-2 it read 1.2e-12 there, now 2.6e-14
        prop, window = arrival_propagator(*ARRIVAL_SHAPES["ridge"], n_nodes=641)
        region = prop.regions[0]
        x1, x2 = max(window[0], region.x1), min(window[1], region.x2)
        ground = region.channel_modes[0]
        got = dense_gram(ground, x1, x2, region.carrier)
        edge = list(range(600, 641))
        want = mpmath_gram(ground, x1, x2, region.carrier, rows=edge, cols=edge)
        assert np.abs(got[600:, 600:] - want).max() <= 1e-13 * np.abs(got).max()


def near_set_windows(prop):
    """Norm windows: covering, inside the incident half-line, inside the transmitted one.

    The last is one excited decay length wide, so that its excited clip,
    whose denominators are complex, comes within the series switch near
    the diagonal, and its ground clip everywhere.
    """
    window = prop.default_domain(0.0)
    x_left, x_right = prop.regions[0].x2, prop.regions[-1].x1
    decay = 166.2 / GAMMA
    return [window, (window[0], x_left - 2.0 * decay), (x_right + decay, x_right + 2.0 * decay)]


class TestNearSet:
    @pytest.mark.parametrize("n_nodes", TILE_SIZES + [641])
    def test_near_set_is_the_brute_force_mask(self, n_nodes):
        # every group the half-lines form, clips and tails apart as the
        # engine takes them: the near set is the mask |a_i - b_j| < bound
        # on the upper row tiles, element for element, rows in order
        prop = small_propagator(104.43e6, n_nodes=n_nodes)
        k0 = prop.grid.origin
        columns = np.arange(n_nodes)
        upper = columns >= (columns // OVERLAP_TILE * OVERLAP_TILE)[:, None]
        for window, (covering, inside, transmitted) in zip(near_set_windows(prop), np.eye(3)):
            half_lines = prop._overlap_terms(window)[0]
            clips = [term for term in half_lines if math.isfinite(term[1] - term[2])]
            tails = [term for term in half_lines if not math.isfinite(term[1] - term[2])]
            assert bool(tails) == covering
            complex_near = 0
            for group in _pair_groups(k0, clips) + _pair_groups(k0, tails):
                bound = max(term.bound for term in group.terms)
                want = upper & (np.abs(group.i_kappa_a[:, None] - group.i_kappa_b) < bound)
                rows, cols, values = group.near
                got = np.zeros_like(want)
                got[rows, cols] = True
                assert np.array_equal(got, want) and rows.size == np.count_nonzero(want)
                assert np.all(np.diff(rows) >= 0) and values.shape == rows.shape
                assert np.all(np.isfinite(values))
                if np.any(group.i_kappa_a.real != 0.0):
                    complex_near += rows.size
            if transmitted:
                assert complex_near > 0

    def test_group_without_near_elements_is_empty(self):
        # the ground clip's pairs across the carrier (alpha about 2 k0) and
        # the excited clip beside the beam lie far from resonance: their
        # sets are empty.  The pairs across the carrier join the low-rank
        # products; the other two groups are tiled
        prop = small_propagator(104.43e6)
        k0, nk = prop.grid.origin, prop.k.shape[0]
        clips = prop._overlap_terms(near_set_windows(prop)[1])[0]
        groups = _pair_groups(k0, clips)
        empty = [group for group in groups if not group.near[0].size]
        assert len(empty) == 2
        for group in empty:
            assert all(part.size == 0 for part in group.near)
            assert np.abs(group.i_kappa_a[:, None] - group.i_kappa_b).min() >= max(
                term.bound for term in group.terms)
        crossing = [np.abs(group.i_kappa_a).min() > k0 for group in groups]
        assert sum(crossing) == 1 and not groups[crossing.index(True)].near[0].size
        _, cauchy = _collect(k0, nk, clips, ())
        assert len(cauchy) == 2 and all(np.abs(group.i_kappa_a).max() < k0 for group in cauchy)


# The benchmark's four arrival packets (without its jitter): coupling,
# component velocities, width and the time window in temporal widths about
# the waist (None: from 0 until 15 lifetimes after the passage).
ARRIVAL_SHAPES = {
    "ridge": (104.43e6, (5e-6 * 104.43e6 / math.pi,), 50e-6, None),
    "plateau": (5 * GAMMA, (10.0,), 20e-6, None),
    "weak": (GAMMA / 2 * 1.01, (50.0,), 30e-6, None),
    "fig6": (104.43e6, (167.05, 167.05 + 0.9e-6), 4233e-6, 5.0),
}
FIG7_BEAM = RabiProfile(kind="gaussian", omega0=5 * GAMMA, center=2.5e-6, width=0.529e-6)


def arrival_propagator(omega, velocities, delta_x, window_sigmas, profile=None, n_nodes=64,
                       backend=None):
    """Packet with its waist at the beam exit on a reduced +-10 dk grid, and its covering window.

    The backend is the transfer one for a profile, else the analytic one.
    """
    cfg = cesium_config(omega=omega, profile=profile)
    v = velocities[0]
    tw = (12.0 * delta_x + cfg.beam_width) / v
    spec = PacketSpec(components=tuple(
        GaussianComponent(mean_velocity=u, delta_x=delta_x, waist_position=cfg.beam_width,
                          waist_time=tw) for u in velocities), mass=MASS)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    dk = 0.5 / delta_x
    grid = KGrid(origin=k_of(v), offsets=10 * dk * x, weights=10 * dk * w)
    backend = backend or ("analytic" if profile is None else "transfer")
    prop = ConditionalPropagator(spec, cfg, grid, backend=backend)
    if window_sigmas is None:
        times = (0.0, tw + 12.0 * delta_x / v + 15.0 / GAMMA)
    else:
        times = (tw - window_sigmas * delta_x / v, tw + window_sigmas * delta_x / v)
    (lo0, hi0), (lo1, hi1) = (prop.default_domain(t) for t in times)
    return prop, (min(lo0, lo1), max(hi0, hi1))


# Rows of the mpmath comparisons, against every third column: a fixed
# sample, so that the oracle stays cheap.
ORACLE_ROWS = (0, 21, 42, 63)


def interior_oracle_error(region, rows=ORACLE_ROWS):
    """Largest max-abs normalised gap of a region's channel Grams to the offset-form oracle."""
    worst = 0.0
    for modes in region.channel_modes:
        if not modes:
            continue
        got = _region_gram(modes, region.x1, region.x2, region)
        rows = [row for row in rows if row < got.shape[0]]
        cols = list(range(0, got.shape[0], 3))
        want = mpmath_gram(modes, region.x1, region.x2, region.carrier, rows=rows, cols=cols)
        worst = max(worst, np.abs(got[np.ix_(rows, cols)] - want).max() / np.abs(got).max())
    return worst


class TestOffsetFormOracle:
    @pytest.mark.parametrize("shape", list(ARRIVAL_SHAPES))
    def test_interior_grams_match_mpmath(self, shape):
        prop, _ = arrival_propagator(*ARRIVAL_SHAPES[shape])
        assert interior_oracle_error(prop.regions[1]) <= 1e-12

    @pytest.mark.parametrize("side", [-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    def test_near_degenerate_interior_grams_match_mpmath(self, side):
        # on and beside gamma = 2 Omega the interior holds the kernel's
        # Newton modes; at the point itself the oracle takes their Jordan
        # form, as a derivative
        prop, _ = arrival_propagator(GAMMA / 2 * (1.0 + side), (50.0,), 30e-6, None)
        assert interior_oracle_error(prop.regions[1], ORACLE_ROWS[:2]) <= 1e-13

    @pytest.mark.parametrize("side", [-1e-6, 0.0, 1e-9, 1e-3])
    def test_one_slice_interior_grams_match_mpmath(self, side):
        # the transfer backend's slice, fitted in the Newton basis
        prop, _ = arrival_propagator(GAMMA / 2 * (1.0 + side), (50.0,), 30e-6, None,
                                     backend="transfer")
        assert len(prop.regions) == 3
        assert interior_oracle_error(prop.regions[1], ORACLE_ROWS[1:2]) <= 1e-13

    def test_sliced_gaussian_interior_grams_match_mpmath(self):
        # the fig7 packet through the 256-slice beam: all slices in one
        # batch equal their one-slice builds, and those the oracle
        prop, _ = arrival_propagator(5 * GAMMA, (150.0,), 2e-6, 5.0, FIG7_BEAM, 48)
        k0 = prop.grid.origin
        slices = prop.regions[1:-1]
        terms = [(region.channel_modes[1], region.x1, region.x2, 1.0) for region in slices]
        batched = engine(48, k0, interiors=terms)
        alone = sum(_region_gram(*term[:3], region) for term, region in zip(terms, slices))
        assert np.abs(batched - alone).max() <= 1e-14 * np.abs(alone).max()
        for region in (slices[0], slices[64], slices[128], slices[-1]):
            assert interior_oracle_error(region, (0, 24, 47)) <= 1e-12


# Packets whose detection matrix is compressed or kept: the four arrival
# shapes at the benchmark's 641 nodes (factors of rank 4-13), the fig7
# transfer packet, the degenerate point, a slow atom, and a fast narrow
# packet whose excited channel the grid resolves over many decay lengths
# (pivoted to the end, rank 372 of 641).
FACTOR_CASES = {
    **{shape: args + (None, 641) for shape, args in ARRIVAL_SHAPES.items()},
    "fig7-150": (5 * GAMMA, (150.0,), 2e-6, 5.0, FIG7_BEAM, 280),
    "degenerate": (GAMMA / 2, (20.0,), 2e-6, 5.0, None, 257),
    "2-mps": (5 * GAMMA, (2.0,), 2e-6, 5.0, None, 257),
    "400-mps": (5 * GAMMA, (400.0,), 2e-6, 5.0, None, 641),
}


def dense_detection(prop):
    """The detection matrix from one tile pass over all the engine's parts (no factor)."""
    half_lines, interiors, _ = prop._overlap_terms()
    return _tile_pass(*_collect(prop.grid.origin, prop.k.shape[0], half_lines, interiors),
                      finish=True)


class TestDetectionFactor:
    @pytest.mark.parametrize("shape", list(FACTOR_CASES))
    def test_factor_matches_the_dense_build(self, shape):
        # the detection matrix as the engine keeps it, and a factor pivoted
        # without the rank limit, against the dense build of the same parts;
        # P2 and -dP2/dt from g = F v and h = F (omega v) for both, against
        # the dense form
        prop, _ = arrival_propagator(*FACTOR_CASES[shape])
        nk = prop.k.shape[0]
        want = dense_detection(prop)
        scale = np.abs(want).max()
        assert np.abs(prop.detection_matrix() - want).max() <= 1e-13 * scale
        if shape in ARRIVAL_SHAPES:
            assert prop._detection().shape[0] <= 16
        t = np.linspace(0.0, 2.0 * prop.spec.components[0].waist_time, 101)
        forms = prop._quadratic(want, t)
        bound = 1e-12 * np.abs(forms).max(axis=1)
        assert np.all(np.abs(prop._quadratic(prop._detection(), t) - forms).max(axis=1) <= bound)
        factor = _pivoted_cholesky(want.diagonal().real, lambda p: want[:, p], nk)
        assert np.abs(factor.T @ factor.conj() - want).max() <= 1e-13 * scale
        prop._detection_matrix = factor
        assert np.all(np.abs(prop._quadratic(prop._detection(), t) - forms).max(axis=1) <= bound)


class TestExactIdealColumn:
    @pytest.mark.parametrize("shape", ["fig6", "fig7-150"])
    def test_route_product_gives_the_ideal_density(self, shape):
        # Pi_id = gamma P2 + dP2/dt from the route's own product equals the
        # per-pair spectral deconvolution, each pair times gamma - i (omega_mu
        # - omega_nu), window ends included, and is ideal_density to the bit.
        # The reduced grid of 256 nodes resolves the fig7 packet over its
        # covering window: on 128-224 nodes aliased copies lift its survival
        # to 1.7-2.7, which first_photon_density refuses
        if shape == "fig6":
            omega, velocities, delta_x, sigmas = ARRIVAL_SHAPES["fig6"]
            profile, backend = None, "analytic"
        else:
            omega, velocities, delta_x, sigmas = 5 * GAMMA, (150.0,), 2e-6, 5.0
            profile, backend = FIG7_BEAM, "transfer"
        prop, _ = arrival_propagator(omega, velocities, delta_x, sigmas, profile, 256)
        spec, cfg, grid = prop.spec, prop.config, prop.grid
        v = velocities[0]
        tw = spec.components[0].waist_time
        half = sigmas * delta_x / v
        times = TimeSeries(t0=tw - half, dt=2 * half / 400, values=np.zeros(401))
        observed = first_photon_density(spec, cfg, grid, times, backend=backend)
        dw = np.subtract.outer(prop.omega_rel, prop.omega_rel)
        want = prop._quadratic(prop.detection_matrix() * (cfg.gamma - 1j * dw), times.times)[0]
        got = observed.meta["ideal_density"]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(got, prop.ideal_density(times.times))


def gauss_sets(monkeypatch):
    """Record the mode signs of every field the interior Gauss-Legendre products integrate."""
    taken = []
    products = wavepacket._gauss_products

    def spy(k0, signs, *args):
        taken.append(tuple(signs))
        return products(k0, signs, *args)

    monkeypatch.setattr(wavepacket, "_gauss_products", spy)
    return taken


class TestFarFactors:
    @pytest.mark.parametrize("shape", list(ARRIVAL_SHAPES) + ["fig7-150"])
    def test_matrices_match_dense_oracle(self, shape, monkeypatch):
        # the arrival shapes on the sharp beam, and the CLI's fig7 packet
        # (150 m/s, 2 um) through the 256-slice Gaussian beam
        if shape == "fig7-150":
            prop, window = arrival_propagator(5 * GAMMA, (150.0,), 2e-6, 5.0, FIG7_BEAM, 48)
        else:
            prop, window = arrival_propagator(*ARRIVAL_SHAPES[shape])
        taken = gauss_sets(monkeypatch)
        d2, n = both_matrices(prop, window)
        # every interior field is one direction: the crossing products are separable
        assert taken and all(len(set(signs)) == 1 for signs in taken)
        for got, want in ((d2, region_detection(prop, region_dense_gram)),
                          (n, region_norm(prop, *window, region_dense_gram))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("v", [10.0, 166.2])
    def test_carrier_crossing_pairs_match_mpmath(self, v, monkeypatch):
        # over a tenth of a radian of the carrier the pairs across it,
        # 1/(2k) in size, outweigh the others, and those lie deep inside
        # the series switch: the incident and reflected ground waves beside
        # the beam, then forward and backward interior modes, all anchored
        # at x = 0 so that no phase is large
        prop = small_propagator(5 * GAMMA, v=v)
        width = 0.1 / k_of(v)
        taken = gauss_sets(monkeypatch)
        left = prop.regions[0]
        k0 = left.carrier
        got = prop.norm_matrix(-width, 0.0)
        want = sum(mpmath_gram(modes, -width, 0.0, k0)
                   for modes in left.channel_modes if modes) / (2 * math.pi)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        rng = np.random.default_rng(7)
        _, _, d_p, _, gap = prop.regions[1].channel_modes[0][1]   # the forward Newton mode
        modes = [(rng.normal(size=d_p.shape) + 1j * rng.normal(size=d_p.shape), sign,
                  sign * delta, 0.0, None) for delta in (d_p, d_p - gap) for sign in (1.0, -1.0)]
        got = _region_gram(modes, 0.0, width, Region(0.0, width, (modes, []), k0))
        want = mpmath_gram(modes, 0.0, width, k0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the window holds no interior region; the two directions of the
        # random set are integrated apart, their products as separable sums
        assert sorted(taken) == [(-1.0, -1.0), (1.0, 1.0)]

    @pytest.mark.parametrize("omega,backend,profile", SHARED_CASES)
    def test_one_column_flushes_match_the_default(self, omega, backend, profile, monkeypatch):
        make = functools.partial(small_propagator, omega, backend=backend, profile=profile)
        window = make().default_domain(0.0)
        default = both_matrices(make(), window)
        monkeypatch.setattr(wavepacket, "LOW_RANK_COLUMNS", 1)
        for got, want in zip(both_matrices(make(), window), default):
            assert_matches(got, want)

    @pytest.mark.parametrize("nk", [24, 129, 641])
    def test_blocked_completion_is_bitwise(self, nk):
        # the tile pass finishes each row tile as whole-matrix passes would:
        # the Hermitian sum, a finished matrix added, and, for the rows of
        # the detection factor, the Hermitian completion of their upper
        # row-tile products
        prop = small_propagator(104.43e6, n_nodes=nk)
        k0 = prop.grid.origin
        interior = prop.regions[1]
        inside = [(modes, interior.x1, interior.x2, 1.0)
                  for modes in interior.channel_modes if modes]
        clips = [term for term in sum(half_line_entry(prop, prop.default_domain(0.0)), [])
                 if math.isfinite(term[1]) and math.isfinite(term[2])]
        gram = engine(nk, k0, clips, inside)
        detection = prop.detection_matrix()
        fused = _overlap_sums(k0, nk, clips, inside, [(detection, 1.0)])
        assert np.array_equal(gram, gram.conj().T)
        assert np.array_equal(fused, gram + detection)
        factor = prop._detection()
        assert factor.shape[0] < nk
        want = np.zeros((nk, nk), dtype=complex)
        for start in range(0, nk, OVERLAP_TILE):
            rows = slice(start, start + OVERLAP_TILE)
            n = min(OVERLAP_TILE, nk - start)
            upper = factor[:, rows].T @ factor.conj()[:, start:]
            upper[:, :n] *= 0.5
            upper[:, :n] += upper[:, :n].conj().T
            want[rows, start:] = upper
            want[start + n:, rows] = upper[:, n:].conj().T
        assert np.array_equal(detection, want)


def half_line_entry(prop, window):
    """The half-lines' Gram terms as ``_build_overlaps`` passes them, per matrix.

    The first list is the detection matrix's (excited channel to -inf and
    +inf), the second the norm's on ``window`` less the excited tails
    beyond it (ground channel over the window's finite parts).
    """
    left, right = prop.regions[0], prop.regions[-1]
    x_min, x_max = window
    detection = [(left.channel_modes[1], -math.inf, left.x2, 1.0),
                 (right.channel_modes[1], right.x1, math.inf, 1.0)]
    norm = [(left.channel_modes[1], -math.inf, x_min, -1.0),
            (left.channel_modes[0], x_min, left.x2, 1.0),
            (right.channel_modes[1], x_max, math.inf, -1.0),
            (right.channel_modes[0], right.x1, x_max, 1.0)]
    return [[term for term in terms if term[0]] for terms in (detection, norm)]


class TestUpperTiles:
    @pytest.mark.parametrize("n_nodes", TILE_SIZES)
    @pytest.mark.parametrize("omega,backend,profile", SHARED_CASES)
    def test_half_lines_match_dense_oracle(self, omega, backend, profile, n_nodes):
        prop = small_propagator(omega, backend=backend, profile=profile, n_nodes=n_nodes)
        k0 = prop.grid.origin
        for terms in half_line_entry(prop, prop.default_domain(0.0)):
            got = engine(n_nodes, k0, half_lines=terms)
            want = sum((scale * dense_gram(modes, x1, x2, k0)
                        for modes, x1, x2, scale in terms), np.zeros_like(got))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_nodes", TILE_SIZES)
    def test_only_half_line_tiles_are_upper(self, n_nodes, monkeypatch):
        # the ground channel's clips of the half-lines are the only Cauchy
        # groups the engine tiles, on the upper row tiles, whose mirror fills
        # the rest: without the low-rank products their output is exactly
        # Hermitian and not zero.  The excited half-lines, which run to
        # +-inf, are read column by column into the detection factor with
        # no tile pass at all, the norm's excited tails too, and the beam
        # interior forms no tile at all
        prop = small_propagator(104.43e6, n_nodes=n_nodes)
        k0 = prop.grid.origin
        interior = prop.regions[1]
        inside = [(interior.channel_modes[1], interior.x1, interior.x2, 1.0)]
        got = engine(n_nodes, k0, interiors=inside)
        want = dense_gram(interior.channel_modes[1], interior.x1, interior.x2, k0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        tiled = []
        tile_pass = wavepacket._tile_pass

        def spy(low_rank, cauchy=(), *args, **kwargs):
            tiled.append([term.width for group in cauchy for term in group.terms])
            return tile_pass(low_rank, cauchy, *args, **kwargs)

        monkeypatch.setattr(wavepacket, "_tile_pass", spy)
        assert prop._detection().shape[0] < n_nodes and not tiled
        window = prop.default_domain(0.0)
        prop.norm_matrix(*window)
        widths = sum(tiled, [])
        assert widths and all(math.isfinite(width) for width in widths)
        monkeypatch.setattr(wavepacket._LowRank, "add", lambda self, *factors: None)
        clips = [term for term in half_line_entry(prop, window)[1]
                 if math.isfinite(term[1]) and math.isfinite(term[2])]
        got = engine(n_nodes, k0, half_lines=clips)
        assert np.abs(got).max() > 0.0
        assert np.array_equal(got, got.conj().T)
        assert not np.any(engine(n_nodes, k0, interiors=inside))


class TestRegionField:
    def test_state_continuous_on_slice_edges(self):
        # every x belongs to exactly one region, so a point on a slice edge
        # takes the field of the slice that starts there
        prop = small_propagator(104.43e6, backend="transfer", profile=GAUSSIAN_BEAM)
        _, tw = packet(v=166.2)
        edges = np.array([region.x1 for region in prop.regions[1:]])
        on_edge = prop.state(edges, tw)
        scale = np.abs(on_edge).max(axis=0)
        assert np.all(scale > 0.0)
        for side in (-math.inf, math.inf):
            beside = prop.state(np.nextafter(edges, side), tw)
            assert np.all(np.abs(on_edge - beside).max(axis=0) <= 1e-9 * scale)


class TestTransmittedExcitedAnchor:
    def test_slow_packet_matrices_and_state_finite(self):
        # at 0.05 m/s exp(iqL) underflows: T2 itself is out of float range,
        # but the exit-anchored transmitted mode is not
        prop = small_propagator(5 * GAMMA, v=0.05)
        assert not np.any(np.isfinite(prop.amplitudes[3]))
        assert np.all(np.isfinite(prop.detection_matrix()))
        assert np.all(np.isfinite(prop.norm_matrix(*prop.default_domain(0.0))))
        L = prop.config.beam_width
        x = np.array([-10e-6, 0.0, 0.5 * L, L, L + 1e-9, 20e-6])
        assert np.all(np.isfinite(prop.state(x, 0.0)))

    def test_matches_zero_anchored_t2(self):
        # where T2 is representable, (T2_L, q, L) and (T2, q, 0) are one mode
        prop = small_propagator(104.43e6, v=20.0)
        oracle = small_propagator(104.43e6, v=20.0)
        right = oracle.regions[-1]
        _, sign, delta_q, _, _ = right.channel_modes[1][0]
        right.channel_modes = (right.channel_modes[0],
                               [(oracle.amplitudes[3], sign, delta_q, 0.0, None)])
        window = prop.default_domain(0.0)
        for got, want in ((prop.detection_matrix(), region_detection(oracle)),
                          (prop.norm_matrix(*window), region_norm(oracle, *window))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def passage(omega_in_gamma, v, delta_x, backend="analytic", n_t=1000):
    """Photon density over the whole passage and the survival norm after it."""
    cfg = cesium_config(omega=omega_in_gamma * GAMMA)
    spec, tw = packet(v=v, delta_x=delta_x)
    prop = ConditionalPropagator(spec, cfg, default_kgrid(spec, n_nodes=64), backend=backend)
    t = np.linspace(0.0, tw + 12 * delta_x / v + 15 / GAMMA, n_t)
    n_end = prop.norm(t[-1:], *prop.default_domain(t[-1]))[0]
    return t, prop.photon_density(t), n_end


# Omega/gamma on, and on both sides of, the degenerate point gamma = 2 Omega.
DEGENERATE_SIDES = [0.5, 0.5 * (1.0 - 1e-6), 0.5 * (1.0 + 1e-6)]
BACKENDS = st.sampled_from(["analytic", "transfer"])
PACKET_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


class TestDegeneratePoint:
    @PACKET_SETTINGS
    @given(omega_in_gamma=st.sampled_from(DEGENERATE_SIDES + [0.3, 5.0]),
           v=st.floats(10.0, 100.0), delta_x=st.floats(2e-6, 10e-6), backend=BACKENDS)
    @example(omega_in_gamma=0.5, v=20.0, delta_x=2e-6, backend="analytic")
    @example(omega_in_gamma=0.5, v=20.0, delta_x=2e-6, backend="transfer")
    def test_probability_balance(self, omega_in_gamma, v, delta_x, backend):
        t, pi, n_end = passage(omega_in_gamma, v, delta_x, backend)
        assert abs(np.trapezoid(pi, t) + n_end - 1.0) <= 1e-4

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(v=st.floats(10.0, 100.0), delta_x=st.floats(2e-6, 10e-6), backend=BACKENDS)
    @example(v=20.0, delta_x=2e-6, backend="transfer")
    def test_density_continuous_across_the_point(self, v, delta_x, backend):
        (_, exact, _), (_, below, _), (_, above, _) = (
            passage(f, v, delta_x, backend) for f in DEGENERATE_SIDES)
        assert np.abs(exact - 0.5 * (below + above)).max() <= 1e-5 * np.abs(exact).max()


@functools.cache
def sampled_propagator():
    """A ridge packet's propagator with both matrices built, and its waist time."""
    spec, tw = packet()
    prop = ConditionalPropagator(spec, cesium_config(omega=104.43e6),
                                 default_kgrid(spec, n_nodes=64))
    prop.detection_matrix()
    return prop, tw


def direct_forms(prop, matrix, t):
    """Re v^H M^T v and 2 Im sum omega conj(v) (M^T v), formed at every time."""
    v = prop.coeff[:, None] * np.exp(-1j * np.outer(prop.omega_rel, t))
    terms = np.conj(v) * (matrix.T @ v)
    return terms.real.sum(axis=0), 2.0 * (prop.omega_rel @ terms.imag)


class TestBandLimitedSampling:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(half=st.floats(1e-3, 20.0), offset=st.floats(-3.0, 3.0),
           layout=st.sampled_from(["uniform", "unsorted", "nonuniform"]),
           size=st.sampled_from([1, 2, -1, 0, 1j]) | st.integers(1, 800),
           seed=st.integers(0, 2**16))
    def test_forms_match_direct_evaluation(self, half, offset, layout, size, seed):
        # size -1, 0, 1j: one below, at and above the node count
        prop, tw = sampled_propagator()
        sig_t = prop.spec.components[0].delta_x / prop.spec.components[0].mean_velocity
        lo, hi = tw + (offset - half) * sig_t, tw + (offset + half) * sig_t
        r = _node_count(0.5 * np.ptp(prop.omega_rel) * (hi - lo))
        n = r + int(size.imag) + int(size.real) if size in (-1, 0, 1j) else size
        rng = np.random.default_rng(seed)
        t = np.linspace(lo, hi, n)
        if layout == "unsorted":
            t = rng.permutation(t)
        elif layout == "nonuniform" and n > 2:
            t[1:-1] = np.sort(rng.uniform(lo, hi, n - 2))
        window = prop.default_domain(tw)
        d2 = prop.detection_matrix()
        dw = np.subtract.outer(prop.omega_rel, prop.omega_rel)
        gamma = prop.config.gamma

        def direct(t):
            return (gamma * direct_forms(prop, d2, t)[0],
                    direct_forms(prop, d2 * (gamma - 1j * dw), t)[0],
                    *direct_forms(prop, prop.norm_matrix(*window), t))

        got = (prop.photon_density(t), prop.ideal_density(t), *prop.norm_and_rate(t, *window))
        # each output is normalised by its size over the passage, so a window
        # far from the beam, where the forms cancel to rounding, is judged fairly
        passage = direct(np.linspace(tw - 6 * sig_t, tw + 6 * sig_t, 121))
        for g, want, ref in zip(got, direct(t), passage):
            assert g.shape == want.shape
            assert np.abs(g - want).max() <= 1e-12 * max(np.abs(want).max(), np.abs(ref).max())
