import numpy as np
import pytest

from toa_sim.model import CESIUM_GAMMA_PER_S, CESIUM_MASS_KG, CONSTANTS, cesium_config

GAMMA = CESIUM_GAMMA_PER_S
MASS = CESIUM_MASS_KG
HBAR = CONSTANTS.hbar


@pytest.fixture
def cs_strong():
    """Cesium, strong driving (coupling five times the decay rate), L = 5 um."""
    return cesium_config(omega=5 * GAMMA)


@pytest.fixture
def cs_fig6():
    """Cesium at the two-Gaussian interference preset coupling."""
    return cesium_config(omega=104.43e6)


def k_of(v: float, config=None) -> float:
    mass = config.mass if config is not None else MASS
    hbar = config.constants.hbar if config is not None else HBAR
    return mass * v / hbar


# Omega/gamma of the first draws: the degenerate point gamma = 2 Omega and
# both sides of it at 1e-9
DEGENERATE_DRAWS = (0.5, 0.5 * (1.0 - 1e-9), 0.5 * (1.0 + 1e-9))


def random_draws(rng, n, v_range=(0.5, 500.0), omega_range=(0.05, 10.0),
                 length_range=(0.5e-6, 2e-5), max_depth=8.0):
    """Physically sensible random scattering parameters.

    Log-uniform in each quantity; the optical depth gamma*L/(2v) is capped
    so transmission amplitudes stay well above the double-precision floor.
    The first draws take Omega/gamma from DEGENERATE_DRAWS, the others
    from ``omega_range``.
    """
    draws = []
    while len(draws) < n:
        v = float(np.exp(rng.uniform(np.log(v_range[0]), np.log(v_range[1]))))
        om = float(np.exp(rng.uniform(np.log(omega_range[0]), np.log(omega_range[1]))))
        length = float(np.exp(rng.uniform(np.log(length_range[0]), np.log(length_range[1]))))
        if len(draws) < len(DEGENERATE_DRAWS):
            om = DEGENERATE_DRAWS[len(draws)]
        if GAMMA * length / (2.0 * v) > max_depth:
            continue
        draws.append((v, om * GAMMA, length))
    return draws
