import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toa_sim.errors import GridMismatch
from toa_sim.series import (
    TimeSeries,
    _node_count,
    chebyshev_samples,
    l1_distance,
    read_csv,
    write_csv,
)


def test_basics():
    s = TimeSeries(t0=1.0, dt=0.5, values=np.array([0.0, 1.0, 2.0]))
    assert len(s) == 3
    assert s.times.tolist() == [1.0, 1.5, 2.0]
    assert s.integral() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=0.0, values=np.zeros(3))


def test_grid_mismatch():
    a = TimeSeries(t0=0.0, dt=0.1, values=np.zeros(4))
    b = TimeSeries(t0=0.0, dt=0.2, values=np.zeros(4))
    with pytest.raises(GridMismatch):
        a.require_same_grid(b)
    with pytest.raises(GridMismatch):
        l1_distance(a, b)


def test_csv_round_trip():
    s = TimeSeries(t0=-2e-6, dt=1e-7, values=np.linspace(0.0, 1.0, 11),
                   meta={"kind": "observed"})
    buf = io.StringIO()
    write_csv(s, buf, comments=["demo run"])
    buf.seek(0)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# demo run"
    assert "t_s,value" in text
    back = read_csv(io.StringIO(text))
    assert back.t0 == pytest.approx(s.t0, rel=1e-15)
    assert back.dt == pytest.approx(s.dt, rel=1e-9)
    assert np.abs(back.values - s.values).max() < 1e-15
    assert back.meta["kind"] == "observed"


def test_read_csv_rejects_nonuniform():
    text = "t_s,value\n0,1\n1,1\n3,1\n"
    with pytest.raises(ValueError):
        read_csv(io.StringIO(text))


def direct_forms(omega, coeff, matrix, times):
    """Re v^H M^T v and 2 Im sum omega conj(v) (M^T v), one time at a time."""
    rows = []
    for t in times:
        v = coeff * np.exp(-1j * omega * t)
        w = matrix.T @ v
        rows.append([np.real(np.conj(v) @ w), 2.0 * np.imag((omega * np.conj(v)) @ w)])
    return np.array(rows).T


def sampled_forms(omega, coeff, matrix, times):
    """The same rows at the band-limited nodes, resampled to the times."""
    nodes, resample = chebyshev_samples(times, np.ptp(omega))
    return resample(direct_forms(omega, coeff, matrix, nodes))


@st.composite
def band_limited_cases(draw):
    """A random Hermitian quadratic form and times: bandwidth c from 0 to 300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nk = draw(st.integers(1, 9))
    c = draw(st.sampled_from([0.0, 1e-6, 0.3]) | st.floats(0.0, 300.0))
    width = draw(st.floats(1e-7, 1e-3))
    # windows within a few widths of t = 0, as in the propagator: the phases
    # omega t then round like the band-limited form, not like a carrier
    t0 = width * draw(st.floats(-2.0, 2.0))
    omega = np.sort(rng.uniform(-1.0, 1.0, nk)) * c / width  # span <= 2 c / width
    coeff = rng.normal(size=nk) + 1j * rng.normal(size=nk)
    half = rng.normal(size=(nk, nk)) + 1j * rng.normal(size=(nk, nk))
    matrix = half + half.conj().T
    r = _node_count(0.5 * np.ptp(omega) * width)
    n = draw(st.sampled_from([1, 2, r - 1, r, r + 1, r + 7]) | st.integers(1, 600))
    layout = draw(st.sampled_from(["uniform", "unsorted", "nonuniform"]))
    times = t0 + width * np.linspace(0.0, 1.0, max(n, 1))
    if layout == "unsorted":
        times = rng.permutation(times)
    elif layout == "nonuniform" and n > 2:
        times[1:-1] = np.sort(t0 + width * rng.uniform(0.0, 1.0, n - 2))
    return omega, coeff, matrix, times


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(band_limited_cases())
def test_resampled_forms_match_direct_evaluation(case):
    omega, coeff, matrix, times = case
    direct = direct_forms(omega, coeff, matrix, times)
    got = sampled_forms(omega, coeff, matrix, times)
    assert got.shape == direct.shape
    # a row that cancels (the rate of a one-mode form is 0) is normalised by
    # the size of its terms, where direct evaluation rounds
    magnitude = (np.abs(coeff) @ np.abs(matrix) @ np.abs(coeff)
                 * np.array([1.0, np.abs(omega).max()]))
    scale = np.maximum(np.abs(direct).max(axis=1), 1e-2 * magnitude)[:, None]
    assert np.all(np.abs(got - direct) <= 1e-12 * scale)
    # the window ends are sampled, not interpolated
    ends = [int(np.argmin(times)), int(np.argmax(times))]
    np.testing.assert_array_equal(got[:, ends], direct[:, ends])


def test_short_series_are_their_own_nodes():
    omega = np.array([-2e7, 0.0, 3e7])
    for times in (np.array([1e-6]), np.array([2e-6, -1e-6]),
                  np.geomspace(1e-7, 1e-5, 40), np.linspace(0.0, 1e-5, 200)):
        nodes, resample = chebyshev_samples(times, np.ptp(omega))
        assert np.array_equal(nodes, times)
        values = np.arange(2.0 * times.size).reshape(2, -1)
        assert resample(values) is values


def test_long_series_take_band_limited_nodes():
    times = TimeSeries(t0=2e-4, dt=1e-7, values=np.zeros(1601)).times
    bandwidth = 2.0 * 128.0 / (times[-1] - times[0])  # c = 128
    nodes, _ = chebyshev_samples(times, bandwidth)
    assert nodes.size == _node_count(128.0) == 187
    assert (nodes[0], nodes[-1]) == (times[-1], times[0])


def test_last_map_is_kept_for_equal_times_and_count():
    # the map depends on the times and the node count alone: equal ones are
    # given the same map, other times of the same length or another count a
    # fresh one, and the nodes are read-only
    times = TimeSeries(t0=2e-4, dt=1e-7, values=np.zeros(1601)).times
    bandwidth = 2.0 * 128.0 / (times[-1] - times[0])
    nodes, resample = chebyshev_samples(times, bandwidth)
    again = chebyshev_samples(times.copy(), bandwidth * (1.0 + 1e-12))  # the same count
    assert again[0] is nodes and again[1] is resample
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    values = np.random.default_rng(5).normal(size=(2, nodes.size))
    want = resample(values)
    shifted = times + 1e-7
    moved = chebyshev_samples(shifted, bandwidth)
    assert moved[1] is not resample and moved[0].size == nodes.size
    assert np.allclose(moved[0], nodes + 1e-7, rtol=0.0, atol=1e-18)
    times[0] = 0.0   # the kept times are a copy
    fewer = chebyshev_samples(shifted, 0.5 * bandwidth)
    assert fewer[0].size < nodes.size
    times[0] = 2e-4
    back = chebyshev_samples(times, bandwidth)
    assert back[1] is not resample and np.array_equal(back[0], nodes)
    assert np.array_equal(back[1](values), want)


def two_array_basis(times, nodes):
    """The barycentric map of ``chebyshev_samples`` with its weights in a second array."""
    lo, hi = times.min(), times.max()
    r = nodes.size
    x = np.sin(0.5 * np.pi * np.arange(r - 1, -r, -2) / (r - 1))
    weights = np.where(np.arange(r) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    diff = (((times - lo) - (hi - times)) / (hi - lo))[:, None] - x
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        basis = weights / diff
    rows = hit.any(axis=1)
    basis[rows] = hit[rows]
    basis /= basis.sum(axis=1, keepdims=True)
    return basis


@pytest.mark.parametrize("n_t,c", [(1601, 128.0), (401, 30.0), (1000, 0.3)])
def test_resampler_divides_in_place_bitwise(n_t, c):
    # the weights are divided into the differences' own buffer: the map is
    # the two-array one to the bit, window ends and every node hit included
    times = TimeSeries(t0=2e-4, dt=1e-7, values=np.zeros(n_t)).times
    nodes, resample = chebyshev_samples(times, 2.0 * c / (times[-1] - times[0]))
    assert nodes.size < times.size
    values = np.random.default_rng(3).normal(size=(2, nodes.size))
    np.testing.assert_array_equal(resample(values), values @ two_array_basis(times, nodes).T)


@pytest.mark.parametrize("c", np.concatenate([[0.0, 1e-9, 1e-3, 0.1, 0.5],
                                              np.linspace(1.0, 500.0, 41)]))
def test_node_count_drops_only_rounding_level_coefficients(c):
    """Chebyshev coefficients of exp(i c s) beyond the node count sit at rounding."""
    n = _node_count(c)
    coef = np.polynomial.chebyshev.chebinterpolate(lambda s: np.exp(1j * c * s), n + 8)
    eps = np.finfo(float).eps
    # chebinterpolate's own rounding grows with the degree: ~eps per coefficient
    # and node, measured below 1.5 eps n over this range
    assert np.abs(coef[n:]).max() <= 4.0 * eps * n
    assert n <= c + 12.0 * max(c, 1.0) ** (1.0 / 3.0) + 4.0
    if n >= 6 and c <= 20.0:
        # where chebinterpolate resolves them, six nodes fewer would drop a real coefficient
        assert np.abs(coef[n - 6]) > 100.0 * eps
