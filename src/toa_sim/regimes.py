"""Closed-form operating-regime diagnostics in the velocity/coupling plane.

Everything here is elementary arithmetic on the configuration; the
absorption solver is only used by the test suite to cross-validate these
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NonPositiveVelocity
from .model import CONSTANTS, ValidatedConfig

RIDGE_INDEX_MAX = 200


def penetration_length(v: float, gamma: float, omega: float) -> float:
    """Depth over which a stationary wave is absorbed: 5 v (2/gamma + gamma/omega^2)."""
    if not (v > 0.0):
        raise NonPositiveVelocity(f"v must be > 0, got {v!r}")
    if not (gamma > 0.0) or not (omega > 0.0):
        raise ConfigError(f"penetration length needs gamma > 0 and omega > 0, "
                          f"got gamma = {gamma:g}, omega = {omega:g}")
    return 5.0 * v * (2.0 / gamma + gamma / (omega * omega))


def ridge_velocity(config: ValidatedConfig, n: int) -> float:
    """Velocity of full-excitation ridge n: L*omega / ((2n+1) pi).

    This is the nominal ridge, the gamma -> 0 position.  With decay inside
    the beam the exact absorption maxima sit lower: the exit phase
    omega' L / (2v), omega' = sqrt(omega^2 - gamma^2/4), is advanced by
    arctan(gamma / (2 omega')) (6.5% below this speed for n = 0 at
    omega = 5 gamma).
    """
    return config.beam_width * config.omega / ((2 * n + 1) * math.pi)


def decay_shifted_ridge(config: ValidatedConfig, n: int) -> float:
    """Velocity of the exact absorption maximum on ridge n, in closed form.

    With decay inside the beam the ground amplitude on exit is
    cos(theta) + gamma/(2 omega') sin(theta), theta = omega' L / (2v),
    omega' = sqrt(omega^2 - gamma^2/4).  Its zeros sit at
    theta_n = (2n+1) pi/2 + arctan(gamma / (2 omega')), below the nominal
    ridge speed of ridge_velocity.  Valid for omega > gamma/2.
    """
    omega, gamma = config.omega, config.gamma
    if not omega > gamma / 2.0:
        raise ValueError("decay-shifted ridge needs omega > gamma/2")
    op = math.sqrt(omega**2 - gamma**2 / 4.0)
    theta = (2 * n + 1) * math.pi / 2 + math.atan(gamma / (2 * op))
    return config.beam_width * op / (2 * theta)


def ridge_locations(config: ValidatedConfig, n_max: int) -> list[tuple[int, float, float]]:
    """Ridges 0..n_max as (n, velocity at the config coupling, slope).

    The slope (2n+1) pi / L gives the ridge line omega = slope * v in the
    coupling/velocity plane.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = []
    for n in range(n_max + 1):
        slope = (2 * n + 1) * math.pi / config.beam_width
        out.append((n, ridge_velocity(config, n), slope))
    return out


def detection_window(config: ValidatedConfig, n: int) -> tuple[float, float]:
    """(window bound, packet sigma) for near-complete detection on ridge n.

    The window bound is the printed upper bound on the full velocity width
    with absorption above 99%; the packet sigma is the matched velocity
    spread, one eighth of the window.  Both use the nominal gamma -> 0 ridge
    speed of ridge_velocity; the exact maximum, around which the >= 99%
    window is centred, sits lower by the decay phase.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    width = (2.0 / (math.pi * (2 * n + 1))) ** 2 * config.beam_width * config.omega / 10.0
    sigma = ridge_velocity(config, n) / (60.0 * (2 * n + 1))
    return width, sigma


def critical_temperature(beam_width: float, gamma: float, mass: float) -> float:
    """Temperature above which the finite beam width matters.

    Uses the velocity v_L = L*gamma/10 at which the penetration length
    under strong driving equals the beam width.
    """
    if not (beam_width > 0.0 and gamma > 0.0 and mass > 0.0):
        raise ConfigError("critical temperature needs beam width, gamma and mass > 0")
    v_l = beam_width * gamma / 10.0
    return mass * v_l * v_l / CONSTANTS.boltzmann


@dataclass(frozen=True)
class InequalityTerm:
    """One term of a regime inequality chain, with its margin."""

    name: str
    lhs: float
    rhs: float
    comparator: str   # "<<" or "<~"
    passed: bool

    @property
    def margin(self) -> float:
        """rhs/lhs; large is comfortable, below the factor is failing."""
        if self.lhs == 0.0:
            return math.inf
        return self.rhs / self.lhs


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one operating point of the measurement."""

    velocity: float
    driving: str                      # "weak" | "strong"
    reflection_flag: bool             # kinetic energy at or below coupling scale
    beam_class: str                   # "semi-infinite-like" | "finite"
    penetration: float                # l (m); inf when undefined
    ridge_index: int | None
    direct_chain: tuple[InequalityTerm, ...]
    ideal_chain: tuple[InequalityTerm, ...]
    much_less_factor: float

    @property
    def direct_chain_ok(self) -> bool:
        return all(t.passed for t in self.direct_chain)

    @property
    def ideal_chain_ok(self) -> bool:
        return all(t.passed for t in self.ideal_chain)

    def to_text(self) -> str:
        lines = [
            f"velocity_mps          {self.velocity:.6g}",
            f"driving               {self.driving}",
            f"reflection_flag       {self.reflection_flag}",
            f"beam_class            {self.beam_class}",
            f"penetration_length_m  {self.penetration:.6g}",
            f"ridge_index           {self.ridge_index if self.ridge_index is not None else '-'}",
            f"much_less_factor      {self.much_less_factor:.6g}",
        ]
        for label, chain in (("direct", self.direct_chain), ("ideal", self.ideal_chain)):
            for term in chain:
                lines.append(
                    f"{label}:{term.name:<20} {term.lhs:.6g} {term.comparator} "
                    f"{term.rhs:.6g}  margin {term.margin:.3g}  "
                    f"{'pass' if term.passed else 'FAIL'}"
                )
        return "\n".join(lines)

    @staticmethod
    def csv_header() -> str:
        return (
            "velocity_mps,driving,reflection_flag,beam_class,penetration_length_m,"
            "ridge_index,direct_chain_ok,ideal_chain_ok"
        )

    def to_csv_row(self) -> str:
        ridge = self.ridge_index if self.ridge_index is not None else ""
        return (
            f"{self.velocity:.17g},{self.driving},{int(self.reflection_flag)},"
            f"{self.beam_class},{self.penetration:.17g},{ridge},"
            f"{int(self.direct_chain_ok)},{int(self.ideal_chain_ok)}"
        )


def _term(name: str, lhs: float, rhs: float, comparator: str, factor: float) -> InequalityTerm:
    if comparator == "<<":
        passed = lhs == 0.0 or rhs >= factor * lhs
    else:  # "<~": same order or smaller, no factor
        passed = lhs == 0.0 or rhs >= lhs
    return InequalityTerm(name=name, lhs=lhs, rhs=rhs, comparator=comparator, passed=passed)


def find_ridge_index(config: ValidatedConfig, v: float) -> int | None:
    """Ridge whose detection window contains v, if any.

    The window of ridge n has the width of detection_window and is centred
    on the absorption maximum: decay_shifted_ridge for omega > gamma/2,
    the nominal ridge_velocity otherwise.  Ridges above RIDGE_INDEX_MAX are
    never reported.
    """
    omega, gamma = config.omega, config.gamma
    if omega <= 0.0:
        return None
    if omega > gamma / 2.0:
        rate = math.sqrt(omega**2 - gamma**2 / 4.0)
        phase = math.atan(gamma / (2 * rate))
        centre = decay_shifted_ridge
    else:
        rate, phase, centre = omega, 0.0, ridge_velocity
    # ridge n peaks where the exit phase rate L / (2v) is (2n+1) pi/2 + phase
    est = (config.beam_width * rate / (2.0 * v) - phase) / math.pi - 0.5
    candidates = {0, max(0, int(math.floor(est))), max(0, int(math.ceil(est)))}
    for n in sorted(candidates):
        if n > RIDGE_INDEX_MAX:
            continue
        width, _ = detection_window(config, n)
        if abs(v - centre(config, n)) <= 0.5 * width:
            return n
    return None


def classify(
    config: ValidatedConfig,
    v: float,
    delta_t: float | None = None,
    much_less_factor: float = 10.0,
) -> RegimeReport:
    """Evaluate every regime criterion at velocity v with explicit margins.

    ``much_less_factor`` operationalizes the "much less than" comparisons;
    raising it can only turn passing terms into failing ones.
    """
    if not (v > 0.0):
        raise NonPositiveVelocity(f"v must be > 0, got {v!r}")
    hbar = config.constants.hbar
    omega, gamma = config.omega, config.gamma
    energy = 0.5 * config.mass * v * v

    driving_ratio = omega / gamma if gamma > 0.0 else math.inf
    driving = "strong" if driving_ratio > 1.0 else "weak"
    reflection = omega > 0.0 and 2.0 * energy / (hbar * omega) <= 1.0

    if gamma > 0.0 and omega > 0.0:
        pen = penetration_length(v, gamma, omega)
    else:
        pen = math.inf
    beam_class = "semi-infinite-like" if config.beam_width > pen else "finite"

    inv_omega = 1.0 / omega if omega > 0.0 else math.inf
    pump_time = inv_omega + (gamma / (omega * omega) if omega > 0.0 else math.inf)
    decay_2 = 2.0 / gamma if gamma > 0.0 else math.inf
    inv_gamma = 1.0 / gamma if gamma > 0.0 else math.inf
    transit = config.beam_width / v

    direct = [
        _term("energy_vs_pumping", hbar / energy, pump_time, "<<", much_less_factor),
        _term("pumping_vs_decay", pump_time, decay_2, "<<", much_less_factor),
        _term("decay_vs_transit", decay_2, transit / 5.0, "<<", much_less_factor),
    ]
    if delta_t is not None:
        direct.append(_term("decay_vs_packet_span", decay_2, delta_t, "<<", much_less_factor))

    ideal = [
        _term("energy_vs_coupling", hbar / energy, inv_omega, "<<", much_less_factor),
        _term("coupling_vs_transit", inv_omega, transit, "<~", much_less_factor),
        _term("transit_vs_lifetime", transit, inv_gamma, "<<", much_less_factor),
    ]

    return RegimeReport(
        velocity=v,
        driving=driving,
        reflection_flag=reflection,
        beam_class=beam_class,
        penetration=pen,
        ridge_index=find_ridge_index(config, v),
        direct_chain=tuple(direct),
        ideal_chain=tuple(ideal),
        much_less_factor=much_less_factor,
    )
