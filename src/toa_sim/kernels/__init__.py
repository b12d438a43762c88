"""Numerical kernels, vectorised over the incident wavenumber with numpy.

The hot paths of parameter scans (batched sharp-edge matching solves and
transfer-matrix composition over slices) and the branch-free helpers the
higher-level modules share live in ``toa_sim.kernels.reference`` and are
re-exported here.  ``active`` names that namespace; its ``BACKEND_NAME``
is what run environments record.
"""

from __future__ import annotations

from . import reference
from .reference import (
    channel_q,
    internal_rates,
    mode_split,
    mode_wavenumbers,
    newton_mode,
    newton_terms,
    sharp_edge_modes,
    sharp_edge_solve,
    sinc,
    slice_propagator,
    sqrt_upper,
    transfer_solve,
)

active = reference
