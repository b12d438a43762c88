"""Command-line front end: parameter scans, figure datasets, regime reports.

All output is CSV with '#'-prefixed header comments recording the full
run configuration; floats are printed with 17 significant digits so
identical runs produce byte-identical files.  Plotting is out of scope.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from multiprocessing import Pool

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceWarning, NumericError, ToaSimError, ZeroIntegral
from .model import (
    RabiProfile,
    ValidatedConfig,
    cesium_config,
    config_summary,
    load_config,
    with_omega,
)
from .regimes import (
    RegimeReport,
    classify,
    critical_temperature,
    penetration_length,
    ridge_locations,
)
from .scattering import absorption_status, sharp_edge_rows
from .series import TimeSeries
from . import distributions as dist
from . import transfer
from . import wavepacket as wpk

GAMMA_CS = 33.3e6

FIG6_PACKET = {
    "v1_mps": 167.05,
    "v2_mps": 167.05 + 0.9e-6,
    "delta_x_um": 4233.0,
    "omega_per_s": 104.43e6,
    "L_um": 5.0,
}


def _float_fmt(x: float) -> str:
    return f"{x:.17g}"


def _text_column(values) -> list[str]:
    """Each value as ``_float_fmt`` text, "" where it is not finite."""
    values = np.asarray(values, dtype=float)
    text = ["%.17g" % x for x in values.tolist()]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = ""
    return text


def _csv_rows(*columns) -> list[str]:
    """Comma-joined rows of equally long text columns."""
    return [",".join(row) for row in zip(*columns)]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="toa-sim",
        description="Fluorescence time-of-arrival simulator for a finite-width laser beam",
    )
    # Config errors (including bad usage) must exit 1, not argparse's 2.
    parser.error = _argparse_error.__get__(parser)
    parser.add_argument("--version", action="version", version=f"toa-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, backend=False, jobs=False):
        """--config, --preset and --out, plus --backend and --jobs where they are read."""
        p.error = _argparse_error.__get__(p)
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--preset", help="figure preset: fig1 fig2 fig3 fig4 fig5 fig6 fig7")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for transfer-backend scans "
                                "(an analytic scan is one batched solve)")
        if backend:
            p.add_argument("--backend", choices=["analytic", "transfer"], default=None,
                           help="scattering backend (default: analytic for sharp edges, "
                                "transfer otherwise)")

    p = map_parser = sub.add_parser("absorption-map", help="A(v, omega) on a rectangular grid")
    add_common(p, backend=True, jobs=True)
    p.add_argument("--v-min", type=float, default=2.0)
    p.add_argument("--v-max", type=float, default=400.0)
    p.add_argument("--n-v", type=int, default=161)
    p.add_argument("--omega-min", type=float, default=2e6)
    p.add_argument("--omega-max", type=float, default=2.2e8)
    p.add_argument("--n-omega", type=int, default=161)
    p.add_argument("--n-slices", type=int, default=transfer.DEFAULT_SLICES)

    p = sub.add_parser("absorption-cut", help="A(v) at fixed omega")
    add_common(p, backend=True, jobs=True)
    p.add_argument("--v-min", type=float, default=2.0)
    p.add_argument("--v-max", type=float, default=900.0)
    p.add_argument("--n-v", type=int, default=1200)
    p.add_argument("--omega-in-gamma", type=float, default=None)
    p.add_argument("--n-slices", type=int, default=transfer.DEFAULT_SLICES)
    p.add_argument("--ridge-markers", type=int, default=3, help="annotate ridges 0..n")

    p = sub.add_parser("plane", help="regime boundary families in the omega-v plane")
    add_common(p)
    p.add_argument("--omega-min", type=float, default=2e6)
    p.add_argument("--omega-max", type=float, default=2.2e8)
    p.add_argument("--n-omega", type=int, default=161)
    p.add_argument("--n-ridges", type=int, default=20)

    p = sub.add_parser("critical-temperature", help="T_c versus beam width")
    add_common(p)
    p.add_argument("--L-min-um", type=float, default=0.5)
    p.add_argument("--L-max-um", type=float, default=50.0)
    p.add_argument("--n-L", type=int, default=100)

    p = sub.add_parser("distributions", help="arrival-time distribution columns")
    add_common(p, backend=True)
    p.add_argument("--v-mean", type=float, default=None, help="packet mean velocity (m/s)")
    p.add_argument("--delta-x-um", type=float, default=None, help="packet width (um)")
    p.add_argument("--flux-position", type=float, default=None,
                   help="evaluation point for J and the axiomatic density (m, default L)")
    p.add_argument("--n-times", type=int, default=2000)
    p.add_argument("--window-sigmas", type=float, default=5.0)
    p.add_argument("--k-nodes", type=int, default=257)

    p = sub.add_parser("regime", help="operating-regime report at one velocity")
    add_common(p)
    p.add_argument("--velocity", type=float, required=True)
    p.add_argument("--delta-t", type=float, default=None, help="packet time span (s)")
    p.add_argument("--factor", type=float, default=10.0, help="'much less than' factor")

    args = parser.parse_args(argv)
    if args.command == "absorption-map" and args.preset == "fig4":
        # fig4 changes the map's default speed range; explicit flags still win
        map_parser.set_defaults(v_min=0.02, v_max=2.0)
        args = parser.parse_args(argv)
    return args


def _argparse_error(self, message):
    self.print_usage(sys.stderr)
    raise ConfigError(message)


def _base_config(args) -> ValidatedConfig:
    if args.config:
        return load_config(args.config)
    if args.preset == "fig6":
        return cesium_config(omega=FIG6_PACKET["omega_per_s"],
                             beam_width=FIG6_PACKET["L_um"] * 1e-6)
    if args.preset == "fig7":
        profile = RabiProfile(kind="gaussian", omega0=5 * GAMMA_CS,
                              center=2.5e-6, width=0.529e-6)
        return cesium_config(omega=5 * GAMMA_CS, profile=profile)
    return cesium_config(omega=5 * GAMMA_CS)


def _backend(args, config: ValidatedConfig) -> str:
    """The requested backend; by default analytic for a sharp beam, transfer otherwise."""
    sharp = config.profile.kind == "sharp"
    backend = args.backend or ("analytic" if sharp else "transfer")
    if backend == "analytic" and not sharp:
        raise ConfigError("analytic backend requires a sharp-edged profile")
    return backend


def _header(args, config: ValidatedConfig, extra: list[str] = ()) -> list[str]:
    lines = [
        f"toa-sim {__version__}",
        f"command = {args.command}",
        f"preset = {args.preset or '-'}",
    ]
    lines += config_summary(config)
    lines += list(extra)
    return lines


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _transfer_absorption_row(
    config: ValidatedConfig, v: np.ndarray, n_slices: int
) -> tuple[np.ndarray, list[str]]:
    decomp = transfer.discretize(config.profile, n_slices, config=config)
    k = config.mass * v / config.constants.hbar
    return absorption_status(transfer.transfer_rows(k, decomp, config))


def _transfer_worker(task):
    config, v, omega, n_slices = task
    return _transfer_absorption_row(with_omega(config, omega), v, n_slices)


def _absorption_scan(config: ValidatedConfig, v: np.ndarray, omegas, backend: str,
                     n_slices: int, jobs: int = 1) -> tuple[np.ndarray, list[str]]:
    """A and status at every (omega, v) point, omega-major.

    The analytic backend solves the whole scan in one batched call; the
    transfer backend solves one omega per call, in ``jobs`` processes.
    """
    if backend == "analytic":
        k = config.mass * np.tile(v, len(omegas)) / config.constants.hbar
        omega = np.repeat(np.asarray(omegas, dtype=float), len(v))
        return absorption_status(sharp_edge_rows(k, config, omega=omega))
    tasks = [(config, v, float(om), n_slices) for om in omegas]
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_transfer_worker, tasks)
    else:
        results = [_transfer_worker(task) for task in tasks]
    return (np.concatenate([a for a, _ in results]),
            [st for _, status in results for st in status])


def cmd_absorption_map(args) -> str:
    config = _base_config(args)
    if args.n_v < 2 or args.n_omega < 2:
        raise ConfigError("map needs n_v >= 2 and n_omega >= 2")
    if not (0.0 < args.v_min < args.v_max) or not (0.0 < args.omega_min < args.omega_max):
        raise ConfigError("scan ranges must be positive and ordered")
    if args.n_slices < 1 or args.jobs < 1:
        raise ConfigError("map needs n_slices >= 1 and jobs >= 1")
    backend = _backend(args, config)
    v = np.linspace(args.v_min, args.v_max, args.n_v)
    omegas = np.linspace(args.omega_min, args.omega_max, args.n_omega)

    a, status = _absorption_scan(config, v, omegas, backend, args.n_slices, args.jobs)
    if backend == "transfer":
        _convergence_spot_check(config, v, omegas, args.n_slices, a.reshape(len(omegas), -1))

    lines = [f"# {line}" for line in _header(args, config, [
        f"backend = {backend}",
        f"v_mps = linspace({_float_fmt(args.v_min)}, {_float_fmt(args.v_max)}, {args.n_v})",
        f"omega_per_s = linspace({_float_fmt(args.omega_min)}, {_float_fmt(args.omega_max)}, {args.n_omega})",
    ])]
    lines.append("v_mps,omega_per_s,A,status")
    v_txt = _text_column(v)
    om_txt = [txt for txt in _text_column(omegas) for _ in v_txt]
    lines += _csv_rows(v_txt * len(omegas), om_txt, _text_column(a), status)
    return "\n".join(lines) + "\n"


def _convergence_spot_check(config, v, omegas, n_slices, a_map) -> None:
    """Doubled-slice check at the scan corners and center (warns only).

    ``a_map[j, i]`` is the map's A at (omegas[j], v[i]); the coarse-slice A
    at a probe is read from it, so only the doubled-slice values are
    computed here.
    """
    # (v index, omega index): the four scan corners and the centre
    probes = [(0, 0), (-1, 0), (0, -1), (-1, -1), (len(v) // 2, len(omegas) // 2)]
    worst = 0.0
    for i, j in probes:
        cfg = with_omega(config, float(omegas[j]))
        a1 = a_map[j, i]
        a2, _ = _transfer_absorption_row(cfg, np.array([v[i]]), 2 * n_slices)
        if np.isfinite(a1) and np.isfinite(a2[0]):
            worst = max(worst, abs(a1 - a2[0]))
    if worst > 1e-6:
        warnings.warn(
            f"slice doubling moves absorption by {worst:.2e} at scan probes; "
            f"consider more than {n_slices} slices",
            ConvergenceWarning,
            stacklevel=2,
        )


def cmd_absorption_cut(args) -> str:
    config = _base_config(args)
    if args.n_v < 2 or not (0.0 < args.v_min < args.v_max):
        raise ConfigError("cut needs n_v >= 2 and a positive ordered range")
    if args.n_slices < 1 or args.jobs < 1 or args.ridge_markers < 0:
        raise ConfigError("cut needs n_slices >= 1, jobs >= 1 and ridge_markers >= 0")
    backend = _backend(args, config)
    v = np.linspace(args.v_min, args.v_max, args.n_v)

    if args.preset == "fig5":
        marker_cfg = with_omega(config, 5 * config.gamma)
        names, omegas = ["A_strong", "A_weak"], [5 * config.gamma, 0.5 * config.gamma]
    else:
        marker_cfg = config
        if args.omega_in_gamma is not None:
            marker_cfg = with_omega(config, args.omega_in_gamma * config.gamma)
        names, omegas = ["A"], [marker_cfg.omega]
    a, status = _absorption_scan(config, v, omegas, backend, args.n_slices, args.jobs)

    extra = []
    if marker_cfg.omega > 0.0:
        for n, vn, slope in ridge_locations(marker_cfg, args.ridge_markers):
            extra.append(f"ridge n={n}: v_mps = {_float_fmt(vn)}")
    lines = [f"# {line}" for line in _header(args, marker_cfg, extra)]
    lines.append(",".join(["v_mps"] + names + [f"status_{name}" for name in names]))
    n_v = len(v)
    a_txt = _text_column(a)
    lines += _csv_rows(
        _text_column(v),
        *(a_txt[j * n_v:(j + 1) * n_v] for j in range(len(names))),
        *(status[j * n_v:(j + 1) * n_v] for j in range(len(names))),
    )
    return "\n".join(lines) + "\n"


def cmd_plane(args) -> str:
    config = _base_config(args)
    if args.n_omega < 2 or args.n_ridges < 0 or not (0.0 < args.omega_min < args.omega_max):
        raise ConfigError("plane needs n_omega >= 2, n_ridges >= 0 and a positive ordered range")
    omegas = np.linspace(args.omega_min, args.omega_max, args.n_omega)
    L = config.beam_width
    lines = [f"# {line}" for line in _header(args, config)]
    lines.append("family,n,omega_per_s,v_mps")
    hbar = config.constants.hbar
    mass = config.mass
    for om in omegas:
        # beam-width boundary: the penetration length, linear in v, equals L
        v_eq = L / penetration_length(1.0, config.gamma, om)
        lines.append(f"beam_width,,{_float_fmt(om)},{_float_fmt(v_eq)}")
        # reflection boundary: kinetic energy equals the coupling scale
        v_refl = math.sqrt(hbar * om / mass)
        lines.append(f"reflection,,{_float_fmt(om)},{_float_fmt(v_refl)}")
    for n, _, slope in ridge_locations(config, args.n_ridges):
        for om in omegas:
            lines.append(f"ridge,{n},{_float_fmt(om)},{_float_fmt(om / slope)}")
    return "\n".join(lines) + "\n"


def cmd_critical_temperature(args) -> str:
    config = _base_config(args)
    if args.n_L < 1 or not (0.0 < args.L_min_um <= args.L_max_um):
        raise ConfigError("critical-temperature needs a positive ordered L range")
    widths = np.linspace(args.L_min_um, args.L_max_um, args.n_L)
    lines = [f"# {line}" for line in _header(args, config)]
    lines.append("L_um,Tc_K")
    for l_um in widths:
        tc = critical_temperature(l_um * 1e-6, config.gamma, config.mass)
        lines.append(f"{_float_fmt(l_um)},{_float_fmt(tc)}")
    return "\n".join(lines) + "\n"


def cmd_distributions(args) -> str:
    config = _base_config(args)
    if args.n_times < 1 or not args.window_sigmas > 0.0:
        raise ConfigError("distributions needs n_times >= 1 and window_sigmas > 0")
    backend = _backend(args, config)
    L = config.beam_width
    if args.preset == "fig6" or (args.v_mean is None and args.delta_x_um is None):
        sigx = FIG6_PACKET["delta_x_um"] * 1e-6
        velocities = (FIG6_PACKET["v1_mps"], FIG6_PACKET["v2_mps"])
    else:
        if args.v_mean is None or args.delta_x_um is None:
            raise ConfigError("distributions needs --v-mean and --delta-x-um (or --preset fig6)")
        sigx = args.delta_x_um * 1e-6
        velocities = (args.v_mean,)
    v_ref = velocities[0]
    tw = (12.0 * sigx + L) / v_ref
    comps = tuple(wpk.GaussianComponent(mean_velocity=v, delta_x=sigx,
                                        waist_position=L, waist_time=tw)
                  for v in velocities)
    spec = wpk.PacketSpec(components=comps, mass=config.mass)
    grid = wpk.default_kgrid(spec, n_nodes=args.k_nodes)

    report = classify(config, v_ref)
    if not report.ideal_chain_ok:
        warnings.warn(
            "packet velocity outside the ideal-distribution validity chain; "
            "normalized output is still meaningful",
            stacklevel=1,
        )

    sig_t = sigx / v_ref
    half = args.window_sigmas * sig_t
    times = TimeSeries(
        t0=tw - half, dt=2.0 * half / args.n_times, values=np.zeros(args.n_times + 1)
    )
    x_eval = args.flux_position if args.flux_position is not None else L

    route = []
    if config.gamma > 0.0:
        # gamma*P2 with its -dN/dt route check: a ConsistencyFailure exits 2
        observed = wpk.first_photon_density(spec, config, grid, times, backend=backend)
        pi_vals = observed.values
        route = [f"{key} = {_float_fmt(observed.meta[key])}"
                 for key in ("route_discrepancy", "survival_end")]
    else:
        pi_vals = np.zeros(len(times))
    pi = dist.DistributionSeries(t0=times.t0, dt=times.dt, values=pi_vals, kind="observed")
    flux = dist.free_flux(spec, x_eval, times)
    kij = dist.kijowski_density(spec, x_eval, times)
    if config.gamma > 0.0:
        # the exact deconvolution gamma P2 + dP2/dt, from the route's own product
        pi_id = pi.tagged(observed.meta["ideal_density"], "ideal")
        try:
            pi_id_norm = dist.normalize(pi_id)
        except ZeroIntegral:
            # no coupling, nothing detected: normalized column stays zero
            pi_id_norm = pi_id
    else:
        pi_id = pi.tagged(np.zeros(len(pi)), "ideal")
        pi_id_norm = pi_id
    lines = [f"# {line}" for line in _header(args, config, [
        f"packet components = {len(comps)}",
        f"delta_x_m = {_float_fmt(sigx)}",
        f"waist_time_s = {_float_fmt(tw)}",
        f"flux_position_m = {_float_fmt(x_eval)}",
        f"backend = {backend}",
        *route,
    ])]
    lines.append("t_s,J,Pi,Pi_id,Pi_id_norm,Pi_K")
    lines += _csv_rows(*(_text_column(col) for col in (
        times.times, flux.values, pi.values, pi_id.values, pi_id_norm.values, kij.values)))
    return "\n".join(lines) + "\n"


def cmd_regime(args) -> str:
    config = _base_config(args)
    report = classify(config, args.velocity, delta_t=args.delta_t,
                      much_less_factor=args.factor)
    sys.stdout.write(report.to_text() + "\n")
    lines = [f"# {line}" for line in _header(args, config)]
    lines.append(RegimeReport.csv_header())
    lines.append(report.to_csv_row())
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "absorption-map": cmd_absorption_map,
    "absorption-cut": cmd_absorption_cut,
    "plane": cmd_plane,
    "critical-temperature": cmd_critical_temperature,
    "distributions": cmd_distributions,
    "regime": cmd_regime,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
        text = _COMMANDS[args.command](args)
        if args.command == "regime" and not args.out:
            return 0
        _write(args, text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ToaSimError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
