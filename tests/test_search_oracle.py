"""Base-backed analog searches against the per-target reference searches.

``tests/search_reference.py`` holds the searches as they were before a
:class:`SearchBase` was shared by the targets of a (station, lead, search
range). Every candidate must match in cycle, score bits and member, with a
prebuilt base and without one, and every error in type and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from analogkit import cli, ensemble
from analogkit.archive import ObservationArchive, climatology_stats, window_fits
from analogkit.config import ExperimentConfig
from analogkit.ensemble import (
    AnalogQuery,
    classic_base,
    latent_base,
    search_classic,
    search_latent,
)
from analogkit.errors import DataError, WindowUnavailable
from analogkit.metric import MetricConfig
from analogkit.network import EmbeddingBlock, embed_block, init_model

import search_reference as ref
from conftest import make_forecasts, obs_matching

ORACLE = settings(derandomize=True, max_examples=300, deadline=None)


def _outcome(search):
    """(cycle, score bits, member bits) per candidate, or the error's type and message."""
    try:
        ranked = search()
    except (DataError, KeyError, ValueError) as err:
        return type(err), str(err)
    return [(c.cycle, np.float64(c.score).tobytes(), np.float64(c.member).tobytes())
            for c in ranked]


def _grid(draw, shape, holes):
    """Values from a drawn seed, NaN where drawn: nowhere, in some cells, or
    everywhere. The values are integers 0..2, so that scores tie often, or
    reals of one magnitude, so that a sum in another order rounds
    differently."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(0, 3, shape).astype(float)
    else:
        values = rng.standard_normal(shape)
    if holes == "all":
        values[...] = np.nan
    elif holes == "some":
        values[rng.random(shape) < draw(st.sampled_from([0.02, 0.3]))] = np.nan
    return values


def _subset(draw, items):
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return np.asarray(items, dtype=int)[np.array(keep, dtype=bool)]


HOLES = st.sampled_from(["none", "some", "all"])
# None, 1, an ensemble size and past every range drawn here
LIMITS = st.sampled_from([None, 1, 5, 40])


class TestOracle:
    @ORACLE
    @given(data=st.data())
    def test_classic_matches_reference(self, data):
        draw = data.draw
        n_stations, n_var = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        # widths 1 to 9: sums of fewer than 8 terms and of 8 or more
        t_half = draw(st.integers(0, 4))
        n_cycles, n_leads = draw(st.integers(2, 25)), 2 * t_half + draw(st.integers(1, 3))
        # leads with a window, and at t_half >= 1 one lead too near each edge
        station = draw(st.integers(0, n_stations - 1))
        lead = draw(st.integers(max(0, t_half - 1), min(n_leads - 1, n_leads - t_half)))
        fcst = make_forecasts(_grid(draw, (n_stations, n_var, n_cycles, n_leads), draw(HOLES)))
        obs = obs_matching(fcst, _grid(draw, (n_stations, n_cycles, n_leads), draw(HOLES)))
        target = draw(st.integers(0, n_cycles - 1))
        search = _subset(draw, [c for c in range(n_cycles) if c != target])
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                                         min_size=n_var, max_size=n_var)))
        weights[0] += 0.0 if weights.any() else 1.0
        sigma = np.array(draw(st.lists(st.sampled_from([0.0, 0.7, 2.0]),
                                       min_size=n_var, max_size=n_var)))
        cfg = MetricConfig(weights=weights, sigma=sigma, t_half=t_half)
        query = AnalogQuery(station=station, target_cycle=target, lead=lead, t_half=t_half,
                            search_cycles=search, m=5)
        limit = draw(LIMITS)

        want = _outcome(lambda: ref.search_classic(query, fcst, obs, cfg, limit))
        assert _outcome(lambda: search_classic(query, fcst, obs, cfg, limit)) == want
        if window_fits(fcst, lead, t_half):  # the CLI builds a base only here
            base = classic_base(fcst, obs, station, lead, search, t_half)
            assert _outcome(lambda: search_classic(query, fcst, obs, cfg, limit, base)) == want
        else:
            with pytest.raises(WindowUnavailable) as edge:
                classic_base(fcst, obs, station, lead, search, t_half)
            assert want == (WindowUnavailable, str(edge.value))

    @ORACLE
    @given(data=st.data())
    def test_latent_matches_reference(self, data):
        draw = data.draw
        # sums of fewer than 8 terms and of 8 or more
        n, dim = draw(st.integers(1, 25)), draw(st.integers(1, 20))
        vectors = _grid(draw, (n, dim), "none")
        vectors = vectors[np.array(draw(st.lists(st.integers(0, n - 1), min_size=n,
                                                 max_size=n)))]  # repeated rows tie exactly
        vectors[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = np.nan
        available = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        cycles = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        block = EmbeddingBlock(station="S00", lead_s=0, cycles=cycles, valid_times=86400 * cycles,
                               vectors=vectors, available=available)
        obs = ObservationArchive(["S00"], 86400 * cycles, _grid(draw, (1, n), draw(HOLES)))
        t = draw(st.integers(0, n - 1))
        search = _subset(draw, np.delete(cycles, t))
        query = AnalogQuery(station=0, target_cycle=int(cycles[t]), lead=0, t_half=0,
                            search_cycles=search, m=5)
        limit = draw(LIMITS)

        want = _outcome(lambda: ref.search_latent(query, block, obs, limit))
        base = latent_base(block, obs, search)
        assert _outcome(lambda: search_latent(query, block, obs, limit)) == want
        assert _outcome(lambda: search_latent(query, block, obs, limit, base)) == want


def _archive(rng, n_stations=2, n_cycles=40, n_leads=3):
    fcst = make_forecasts(rng.standard_normal((n_stations, 2, n_cycles, n_leads)))
    return fcst, obs_matching(fcst, rng.standard_normal((n_stations, n_cycles, n_leads)))


class TestBaseMismatch:
    """A base serves only the (station, lead, t_half) or block and the search
    range it was built from; any other query raises."""

    def _classic(self, rng):
        fcst, obs = _archive(rng, n_leads=4)
        search = np.arange(30)
        base = classic_base(fcst, obs, 0, 1, search, 1)
        cfg = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=1)
        return fcst, obs, cfg, base

    @pytest.mark.parametrize("change,message", [
        ({"station": 1}, "another station, lead or t_half"),
        ({"lead": 2}, "another station, lead or t_half"),
        ({"t_half": 0}, "another station, lead or t_half"),
        ({"search_cycles": np.arange(1, 30)}, "another search range"),
        ({"search_cycles": np.arange(29, -1, -1)}, "another search range"),
    ], ids=["station", "lead", "t_half", "range", "order"])
    def test_classic_query_for_another_source(self, rng, change, message):
        fcst, obs, cfg, base = self._classic(rng)
        fields = {"station": 0, "lead": 1, "t_half": 1, "search_cycles": np.arange(30), **change}
        query = AnalogQuery(target_cycle=35, m=3, **fields)
        if fields["t_half"] == 0:
            cfg = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=0)
        with pytest.raises(ValueError, match=message):
            search_classic(query, fcst, obs, cfg, base=base)

    def test_latent_query_for_another_block_or_range(self, rng):
        fcst, obs = _archive(rng)
        model = init_model(list(fcst.variables), t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        search = np.arange(30)
        lead0, lead1 = (embed_block(model, fcst, 0, lead, np.arange(40)) for lead in (0, 1))
        base = latent_base(lead0, obs, search)
        query = AnalogQuery(station=0, target_cycle=35, lead=0, t_half=0, search_cycles=search)
        assert search_latent(query, lead0, obs, base=base) == search_latent(query, lead0, obs)
        with pytest.raises(ValueError, match="another embedding block"):
            search_latent(query, lead1, obs, base=base)
        shorter = AnalogQuery(station=0, target_cycle=35, lead=0, t_half=0,
                              search_cycles=np.arange(10, 30))
        with pytest.raises(ValueError, match="another search range"):
            search_latent(shorter, lead0, obs, base=base)

    def test_base_of_the_other_search_kind(self, rng):
        fcst, obs, cfg, classic = self._classic(rng)
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(3,), embed_dim=2, seed=0)
        block = embed_block(model, fcst, 0, 1, np.arange(40))
        latent = latent_base(block, obs, np.arange(30))
        query = AnalogQuery(station=0, target_cycle=35, lead=1, t_half=1,
                            search_cycles=np.arange(30))
        with pytest.raises(ValueError, match="another station, lead or t_half"):
            search_classic(query, fcst, obs, cfg, base=latent)
        with pytest.raises(ValueError, match="another embedding block"):
            search_latent(query, block, obs, base=classic)


def _counting(function, calls, key):
    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return function(*args, **kwargs)
    return wrapper


def test_run_predictions_builds_one_base_per_station_and_lead(monkeypatch, rng):
    """2 stations x 3 leads x 10 targets at t_half 1: only lead 1 has a
    window, so classic search builds a window block for (station, 1) alone,
    and latent search one base per (station, lead). Every ensemble equals the
    reference search's, and the edge leads keep their skip reason."""
    fcst, obs = _archive(rng)
    search, test = np.arange(30), np.arange(30, 40)
    model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(3,), embed_dim=2, seed=0)
    cfg = ExperimentConfig()
    cfg.values.update(t_half=1, m=4)
    windows, latent = [], []
    monkeypatch.setattr(ensemble, "window_block", _counting(
        ensemble.window_block, windows, lambda fcst, station, lead, *_: (station, lead)))
    monkeypatch.setattr(cli, "latent_base", _counting(
        cli.latent_base, latent, lambda block, *_: (block.station, block.lead_s)))

    for method in ("anen_equal", "deep_anen"):
        (rows,), skipped = cli.run_predictions(
            cfg, method, fcst, obs, ["S00", "S01"], [0, 1, 2], [search], test, model)
        assert len(rows) == 2 * 10 and len(skipped) == 2 * 2 * 10
        assert all(reason.startswith("window out of bounds") or "no embedding" in reason
                   for *_, reason in skipped)
        for row in rows:
            s = fcst.station_index(row.station)
            query = AnalogQuery(station=s, target_cycle=row.cycle, lead=row.lead, t_half=1,
                                search_cycles=search, m=4)
            if method == "deep_anen":
                block = embed_block(model, fcst, s, row.lead, np.arange(40))
                want = ref.search_latent(query, block, obs, limit=4)
            else:
                sigma = climatology_stats(fcst, s, row.lead, search).sigma
                metric = MetricConfig(weights=np.ones(2), sigma=sigma, t_half=1)
                want = ref.search_classic(query, fcst, obs, metric, limit=4)
            assert row.ensemble.sources == [(c.cycle, c.score) for c in want]
            assert row.ensemble.members.tolist() == [c.member for c in want]

    assert windows == [(0, 1), (1, 1)]
    assert latent == [(s, l) for s in ("S00", "S01") for l in (0, 3600, 7200)]


def test_run_predictions_embeds_once_for_nested_ranges(monkeypatch, rng):
    """Three nested search ranges in one call: deep_anen embeds each (station,
    lead) once, over the largest range and the targets, and the rows and
    skips of every range equal those of a call with that range alone."""
    fcst, obs = _archive(rng)
    ranges, test = [np.arange(20, 30), np.arange(10, 30), np.arange(30)], np.arange(30, 40)
    model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(3,), embed_dim=2, seed=0)
    cfg = ExperimentConfig()
    cfg.values.update(t_half=1, m=4)
    cfg.weights["v2"] = 1.0
    embedded = []
    monkeypatch.setattr(cli, "embed_block", _counting(
        cli.embed_block, embedded, lambda model, fcst, s, lead, cycles: (s, lead, len(cycles))))

    def outcome(rows):
        return [(r.station, r.cycle, r.lead, r.ensemble.sources, r.ensemble.members.tolist())
                for r in rows]

    for method in ("anen_weighted", "deep_anen"):
        split_rows, skipped = cli.run_predictions(
            cfg, method, fcst, obs, ["S00", "S01"], [0, 1, 2], ranges, test, model)
        if method == "deep_anen":
            assert embedded == [(s, lead, 40) for s in (0, 1) for lead in (0, 1, 2)]
        alone = [cli.run_predictions(cfg, method, fcst, obs, ["S00", "S01"], [0, 1, 2],
                                     [search], test, model) for search in ranges]
        assert [outcome(rows) for rows in split_rows] == [outcome(a[0][0]) for a in alone]
        assert sorted(skipped) == sorted(s for a in alone for s in a[1])
        assert len(skipped) == 3 * 2 * 2 * 10  # the edge leads, in every range
