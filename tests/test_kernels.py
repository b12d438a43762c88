"""The numpy kernels: the namespace runs report, and batched solves."""

import numpy as np

from conftest import GAMMA, HBAR, MASS
from toa_sim import kernels
from toa_sim.kernels import reference


def test_active_backend_is_numpy():
    # run environments record kernels.active.BACKEND_NAME
    assert kernels.active is kernels.reference
    assert kernels.active.BACKEND_NAME == "python"
    assert kernels.sharp_edge_solve is reference.sharp_edge_solve
    assert kernels.transfer_solve is reference.transfer_solve


def test_batch_matches_single_point():
    rng = np.random.default_rng(33)
    ks =MASS * np.array([20.0, 100.0, 300.0]) / HBAR
    batch = kernels.sharp_edge_solve(ks, GAMMA, 5 * GAMMA, 5e-6, MASS, HBAR)
    for i, k in enumerate(ks):
        single = kernels.sharp_edge_solve(np.array([k]), GAMMA, 5 * GAMMA, 5e-6, MASS, HBAR)[0]
        assert np.abs(batch[i] - single).max() == 0.0
