"""Shared builders for small in-memory archives and CSV files."""

import numpy as np
import pytest

from analogkit.archive import ForecastArchive, ObservationArchive


def make_forecasts(values, cycles=None, leads=None, stations=None, variables=None):
    """Dense forecast archive from a [station, variable, cycle, lead] array."""
    values = np.asarray(values, dtype=float)
    ns, nv, nc, nl = values.shape
    return ForecastArchive(
        stations=stations or [f"S{i:02d}" for i in range(ns)],
        variables=variables or [f"v{i + 1}" for i in range(nv)],
        cycles=np.asarray(cycles if cycles is not None else 86400 * np.arange(nc), dtype=np.int64),
        leads=np.asarray(leads if leads is not None else 3600 * np.arange(nl), dtype=np.int64),
        values=values,
    )


def make_observations(values, times, stations=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return ObservationArchive(
        stations=stations or [f"S{i:02d}" for i in range(values.shape[0])],
        times=np.asarray(times, dtype=np.int64),
        values=values,
    )


def obs_matching(fcst: ForecastArchive, obs_grid):
    """Observation archive whose times cover every (cycle, lead) valid time.

    ``obs_grid`` is [station, cycle, lead]; valid times must be collision
    free (lead span smaller than the cycle step).
    """
    obs_grid = np.asarray(obs_grid, dtype=float)
    valid = (fcst.cycles[:, None] + fcst.leads[None, :]).ravel()
    order = np.argsort(valid, kind="stable")
    times = valid[order]
    values = np.stack([obs_grid[s].ravel()[order] for s in range(obs_grid.shape[0])])
    return ObservationArchive(stations=list(fcst.stations), times=times, values=values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# Indices outside a 2-station, 4-cycle, 3-lead archive (see index_archive),
# as (station, cycles, lead, t_half), with the error and message of
# extract_window that every archive reader gives them instead of wrapping.
# Where several are wrong, the first of t_half, station, cycle and lead is named.
BAD_INDICES = [
    ((0, [0, 1], 1, -1), ValueError, "t_half must be nonnegative"),
    ((-1, [0, 1], 1, 0), IndexError, "station index -1 out of range"),
    ((2, [0, 1], 1, 0), IndexError, "station index 2 out of range"),
    ((0, [0, -1], 1, 0), IndexError, "cycle index -1 out of range"),
    ((0, [4, 0], 1, 0), IndexError, "cycle index 4 out of range"),
    ((0, [0, 1], -1, 0), IndexError, "lead index -1 out of range"),
    ((0, [0, 1], 3, 0), IndexError, "lead index 3 out of range"),
    ((-1, [-2], -1, -1), ValueError, "t_half must be nonnegative"),
    ((-1, [-2], -1, 0), IndexError, "station index -1 out of range"),
    ((0, [-2, 9], -1, 0), IndexError, "cycle index -2 out of range"),
]


def index_archive():
    """The archives BAD_INDICES refers to: 2 stations, 2 variables, 4 cycles,
    3 leads, with an observation at every valid time."""
    fcst = make_forecasts(np.arange(48.0).reshape(2, 2, 4, 3))
    return fcst, obs_matching(fcst, np.arange(24.0).reshape(2, 4, 3))
