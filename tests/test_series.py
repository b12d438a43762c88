import io
import math

import numpy as np
import pytest

from toa_sim.errors import GridMismatch
from toa_sim.series import TimeSeries, l1_distance, phase_matrix, read_csv, write_csv


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


OMEGA = np.linspace(-3e7, 2e7, 37)


def direct_phases(times):
    return np.exp(-1j * np.outer(OMEGA, times))


@pytest.mark.parametrize("times, factorised", [
    (TimeSeries(t0=2e-6, dt=3.7e-9, values=np.zeros(1601)).times, True),
    (TimeSeries(t0=-4e-6, dt=5e-9, values=np.zeros(1000)).times, True),
    (np.linspace(0.0, 8e-6, 1201), True),
    (np.linspace(-3e-6, 5e-6, 7), True),
    (np.array([1e-6]), False),
    (np.array([-1e-6, 2e-6]), False),
    (np.array([0.0, 1e-6, 3e-6, 3.5e-6, 8e-6]), False),
    (np.geomspace(1e-7, 1e-5, 200), False),
    (np.linspace(0.0, 8e-6, 1201) * np.where(np.arange(1201) == 500, 1.0 + 1e-9, 1.0), False),
], ids=["timeseries", "negative-t0", "linspace", "linspace-7", "n1", "n2",
        "nonuniform", "geometric", "jittered"])
def test_phase_matrix_matches_direct_exponentials(times, factorised, monkeypatch):
    direct = direct_phases(times)
    columns = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        columns.append(np.shape(x)[-1])
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    got = phase_matrix(OMEGA, times)
    monkeypatch.undo()
    assert got.shape == (OMEGA.size, times.size)
    scale = np.abs(OMEGA).max() * np.abs(times).max()
    assert np.abs(got - direct).max() <= 64 * np.finfo(float).eps * (1 + scale)
    # uniform grids take the coarse x fine route: ~2 sqrt(n) exponential columns
    if factorised:
        assert sum(columns) <= 2 * math.ceil(math.sqrt(times.size)) < times.size
    else:
        assert sum(columns) == times.size
