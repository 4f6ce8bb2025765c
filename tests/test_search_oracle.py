"""Base-backed analog searches against the per-target reference searches.

``tests/search_reference.py`` holds the searches as they were before a
:class:`SearchBase` was shared by the targets of a (station, lead), and
before one scoring pass per target served every search range. Every
candidate must match in cycle, score bits and member, with a prebuilt base,
a subrange of a wider one with or without shared distances, and without a
base, and every error in type and message. ``run_predictions`` over several
ranges must equal one reference search per range.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from analogkit import cli, ensemble
from analogkit.archive import ObservationArchive, climatology_stats, extract_window, window_fits
from analogkit.config import ExperimentConfig
from analogkit.ensemble import (
    AnalogQuery,
    SearchBase,
    classic_base,
    latent_base,
    latent_distances,
    search_classic,
    search_latent,
    target_embedding,
)
from analogkit.errors import DataError, InsufficientAnalogs, WindowUnavailable
from analogkit.metric import MetricConfig, block_dissimilarity
from analogkit.network import EmbeddingBlock, embed_block, init_model

import search_reference as ref
from conftest import make_forecasts, obs_matching

ORACLE = settings(derandomize=True, max_examples=300, deadline=None)


def _outcome(search):
    """(cycle, score bits, member bits) per candidate, or the error's type and
    message. A search returns a ranking, the reference a list of candidates."""
    try:
        ranked = search()
    except (DataError, KeyError, ValueError) as err:
        return type(err), str(err)
    if not isinstance(ranked, list):
        ranked = zip(ranked.cycles.tolist(), ranked.scores.tolist(), ranked.members.tolist())
    return [(c, np.float64(s).tobytes(), np.float64(v).tobytes()) for c, s, v in ranked]


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


def _shuffled(draw, cycles):
    """``cycles`` in a drawn order: a search takes its range as a set."""
    return np.array(draw(st.permutations(cycles.tolist())), dtype=int)


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
        search = _shuffled(draw, _subset(draw, [c for c in range(n_cycles) if c != target]))
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
        base = classic_base(fcst, obs, station, lead, search, t_half)
        assert _outcome(lambda: search_classic(query, fcst, obs, cfg, limit, base)) == want
        if window_fits(fcst, lead, t_half):
            # the range within a base over every other cycle, in drawn order
            others = draw(st.permutations([c for c in range(n_cycles) if c != target]))
            wider = classic_base(fcst, obs, station, lead, others, t_half)
            sub = wider.subrange(search)
            assert _outcome(lambda: search_classic(query, fcst, obs, cfg, limit, sub)) == want
            if not isinstance(want, tuple):  # the target has a window
                window = extract_window(fcst, station, target, lead, t_half)
                distances = block_dissimilarity(window.data, wider.rows)
                assert _outcome(lambda: search_classic(query, fcst, obs, cfg, limit, sub,
                                                       distances)) == want
        else:  # an edge lead: no cycle is eligible, and the target's window raises first
            assert not len(base.candidates)
            assert want[0] is WindowUnavailable

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
        search = _shuffled(draw, _subset(draw, np.delete(cycles, t)))
        uncovered = draw(st.booleans())
        if uncovered:  # cycle 0 precedes the block's first cycle
            search = np.insert(search, 0, 0)
        query = AnalogQuery(station=0, target_cycle=int(cycles[t]), lead=0, t_half=0,
                            search_cycles=search, m=5)
        limit = draw(LIMITS)

        want = _outcome(lambda: ref.search_latent(query, block, obs, limit))
        assert _outcome(lambda: search_latent(query, block, obs, limit)) == want
        if uncovered:  # no base covers the range; a masked target is reported first
            assert want[0] is (KeyError if available[t] else DataError)
            return
        base = latent_base(block, obs, search)
        assert _outcome(lambda: search_latent(query, block, obs, limit, base)) == want
        wider = latent_base(block, obs, draw(st.permutations(np.delete(cycles, t))))
        sub = wider.subrange(search)
        assert _outcome(lambda: search_latent(query, block, obs, limit, sub)) == want
        if available[t]:
            distances = latent_distances(target_embedding(block, cycles[t]), wider.rows)
            assert _outcome(lambda: search_latent(query, block, obs, limit, sub,
                                                  distances)) == want


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
        ({"search_cycles": np.arange(1, 31)[::-1]}, "another search range"),
    ], ids=["station", "lead", "t_half", "range", "same_size"])
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
        assert _outcome(lambda: search_latent(query, lead0, obs, base=base)) == _outcome(
            lambda: search_latent(query, lead0, obs))
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


    def test_subrange_distances_or_config_of_another_base(self, rng):
        fcst, obs, cfg, base = self._classic(rng)
        with pytest.raises(ValueError, match="cycle index 31 is not part of this search base"):
            base.subrange([5, 31])
        window = extract_window(fcst, 0, 35, 1, 1)
        query = AnalogQuery(station=0, target_cycle=35, lead=1, t_half=1,
                            search_cycles=np.arange(10, 20), m=3)
        shorter = classic_base(fcst, obs, 0, 1, np.arange(10, 20), 1)
        with pytest.raises(ValueError, match="distances were scored against other"):
            search_classic(query, fcst, obs, cfg, base=shorter,
                           distances=block_dissimilarity(window.data, base.rows))
        narrow = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=0)
        with pytest.raises(ValueError, match=r"search base windows \(2, 3\), config expects"):
            search_classic(query, fcst, obs, narrow, base=shorter)


@pytest.mark.parametrize("kind", ["search_classic", "search_latent", "subrange"])
def test_a_search_range_that_repeats_a_cycle_is_refused(rng, kind):
    """One analog must not fill several members: every base, so every
    search with or without ``base=``, refuses a range that repeats a cycle."""
    fcst, obs = _archive(rng)
    query = AnalogQuery(station=0, target_cycle=35, lead=1, t_half=0,
                        search_cycles=np.array([5, 5, 5, 6, 7]), m=3)
    model = init_model(list(fcst.variables), t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
    cfg = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=0)
    calls = {
        "search_classic": lambda: search_classic(query, fcst, obs, cfg),
        "search_latent": lambda: search_latent(
            query, embed_block(model, fcst, 0, 1, np.arange(40)), obs),
        "subrange": lambda: classic_base(fcst, obs, 0, 1, np.arange(30), 0).subrange([3, 3, 4]),
    }
    cycle = 3 if kind == "subrange" else 5
    with pytest.raises(ValueError, match=f"cycle index {cycle} repeats in the search range"):
        calls[kind]()


def _tied_archive(rng):
    """One station, 6 cycles, 3 leads: cycles 1-4 repeat every forecast
    value of cycle 0, so at lead 1 their windows and embeddings tie with
    the target's at distance 0; cycle 3 has no observation at lead 1."""
    values = rng.standard_normal((1, 2, 6, 3))
    values[:, :, 1:5] = values[:, :, :1]
    grid = rng.standard_normal((1, 6, 3))
    grid[0, 3, 1] = np.nan
    fcst = make_forecasts(values)
    return fcst, obs_matching(fcst, grid), init_model(
        list(fcst.variables), t_half=1, hidden_sizes=(3,), embed_dim=2, seed=0)


SEARCH_KINDS = ["classic", "classic_base", "latent", "latent_base"]


def _search(kind, query, fcst, obs, model):
    """The full ranking of ``query`` by one search, with or without a base
    built for its range."""
    station, lead, search = query.station, query.lead, query.search_cycles
    if kind.startswith("classic"):
        sigma = climatology_stats(fcst, station, lead, search).sigma
        cfg = MetricConfig(np.ones(fcst.n_variables), sigma, query.t_half)
        base = classic_base(fcst, obs, station, lead, search, query.t_half) if kind.endswith(
            "base") else None
        return search_classic(query, fcst, obs, cfg, base=base)
    block = embed_block(model, fcst, station, lead, np.arange(fcst.n_cycles))
    base = latent_base(block, obs, search) if kind.endswith("base") else None
    return search_latent(query, block, obs, base=base)


@pytest.mark.parametrize("order", [[5, 4, 3, 2, 1], [3, 5, 1, 4, 2]], ids=["reversed", "shuffled"])
@pytest.mark.parametrize("kind", [*SEARCH_KINDS, "anen_equal", "deep_anen"])
def test_a_range_in_any_order_ranks_as_the_ascending_range(rng, kind, order):
    """A search range is a set: both searches, with and without a base, and
    ``run_predictions`` with either kind of method rank it as they rank the
    ascending range, and equal scores go to the earlier cycle, not to the
    earlier place in the range."""
    fcst, obs, model = _tied_archive(rng)

    def ranked(search):
        if kind in SEARCH_KINDS:
            query = AnalogQuery(station=0, target_cycle=0, lead=1, t_half=1,
                                search_cycles=np.array(search), m=3)
            return _search(kind, query, fcst, obs, model)
        cfg = ExperimentConfig()
        cfg.values.update(t_half=1, m=3)
        (rows,), skipped = cli.run_predictions(
            cfg, kind, fcst, obs, ["S00"], [1], [np.array(search)], np.array([0]), model)
        assert len(rows) == 1 and not skipped
        return rows[0][3]

    got, want = ranked(order), ranked(sorted(order))
    assert got.cycles[:3].tolist() == [1, 2, 4] and not got.scores[:3].any()
    for name in ("cycles", "scores", "members"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_base_refuses_a_range_that_is_not_ascending(rng):
    fcst, obs = _archive(rng)
    base = classic_base(fcst, obs, 0, 1, [7, 3, 5], 0)
    assert base.search_cycles.tolist() == [3, 5, 7]
    assert base.subrange([7, 3]).search_cycles.tolist() == [3, 7]
    with pytest.raises(ValueError, match="search cycles must be ascending"):
        SearchBase(base.source, base.search_cycles[::-1], base.rows, base.positions[::-1],
                   base.members[::-1], base.candidates)


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_a_target_inside_its_search_range_is_refused(rng, kind):
    """Both searches, with and without a base, refuse a range that holds
    the target; a target without a window (at lead 0, t_half 1) raises that
    reason first, as it does for any other fault of the range."""
    fcst, obs, model = _tied_archive(rng)
    query = AnalogQuery(station=0, target_cycle=2, lead=1, t_half=1,
                        search_cycles=np.array([5, 2, 1]), m=1)
    with pytest.raises(ValueError, match="target cycle must not be part of the search range"):
        _search(kind, query, fcst, obs, model)
    edge = AnalogQuery(station=0, target_cycle=2, lead=0, t_half=1,
                       search_cycles=np.array([5, 2, 1]), m=1)
    with pytest.raises(DataError, match="window"):
        _search(kind, edge, fcst, obs, model)


SCORES = st.sampled_from([0.0, -0.0, 1.0, 2.0, np.nan, np.inf, -np.inf]) | st.floats(-3, 3)


@ORACLE
@given(scores=st.lists(SCORES, min_size=1, max_size=30), data=st.data())
def test_rank_positions_matches_a_full_stable_ranking(scores, data):
    """``rank_positions`` over a base's candidate positions equals the
    reference's full stable ranking of the eligible scores, cut at
    ``limit``: tied scores, -0.0 beside 0.0, ±inf and NaN included, for
    every limit from 1 to past the candidate count."""
    scores = np.array(scores)
    eligible = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                           max_size=len(scores))))
    candidates = np.flatnonzero(eligible)
    for limit in [None, *range(1, len(candidates) + 3)]:
        got = ensemble.rank_positions(scores, candidates, limit)
        assert got.tolist() == ref.rank(scores, eligible, np.arange(len(scores)), limit).tolist()


def _counting(function, calls, key):
    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return function(*args, **kwargs)
    return wrapper


def test_run_predictions_builds_one_base_per_station_and_lead(monkeypatch, rng):
    """2 stations x 3 leads x 10 targets at t_half 1: only lead 1 has a
    window, yet classic search reads one window block per (station, lead),
    the edge leads' with no cycle available, and latent search builds one
    base per (station, lead). Every ensemble equals the reference search's,
    and the edge leads keep their skip reason."""
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
        for station, cycle, lead, ens in rows:
            s = fcst.station_index(station)
            query = AnalogQuery(station=s, target_cycle=cycle, lead=lead, t_half=1,
                                search_cycles=search, m=4)
            if method == "deep_anen":
                block = embed_block(model, fcst, s, lead, np.arange(40))
                want = ref.search_latent(query, block, obs, limit=4)
            else:
                sigma = climatology_stats(fcst, s, lead, search).sigma
                metric = MetricConfig(weights=np.ones(2), sigma=sigma, t_half=1)
                want = ref.search_classic(query, fcst, obs, metric, limit=4)
            assert ens.cycles.tolist() == [c.cycle for c in want]
            assert ens.scores.tolist() == [c.score for c in want]
            assert ens.members.tolist() == [c.member for c in want]

    assert windows == [(s, l) for s in (0, 1) for l in (0, 1, 2)]
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
        return [(station, cycle, lead, ens.cycles.tolist(), ens.scores.tolist(),
                 ens.members.tolist()) for station, cycle, lead, ens in rows]

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


RUNS = settings(derandomize=True, max_examples=100, deadline=None)
RANGE_KINDS = st.sampled_from(["suffix", "gapped", "unsorted", "single", "dead"])


def _range(draw, pool, dead):
    """A non-empty search range drawn from ``pool``: a suffix (so that
    suffixes nest), a gapped subset, a shuffled subset, one cycle, or the
    cycles ``dead`` without any observation (no candidate is eligible)."""
    kind = draw(RANGE_KINDS)
    if kind == "dead":
        return dead
    if kind == "suffix":
        return pool[-draw(st.integers(1, len(pool))):]
    if kind == "single":
        return pool[draw(st.integers(0, len(pool) - 1)):][:1]
    subset = _subset(draw, pool)
    subset = subset if len(subset) else pool[:1]
    return np.asarray(draw(st.permutations(subset))) if kind == "unsorted" else subset


def _reference_run(cfg, method, fcst, obs, stations, leads, ranges, test, model):
    """Rows and skips of ``run_predictions``, one reference search per
    (range, station, lead, target); rows as (station, cycle, lead, ensemble
    cycles, score bits, member bits)."""
    t_half, m = cfg.t_half, cfg.m
    embedded = np.unique(np.concatenate([*ranges, test]))
    rows, skipped = [[] for _ in ranges], []
    for range_rows, search in zip(rows, ranges):
        for station in stations:
            s = fcst.station_index(station)
            for lead in sorted(leads):
                if method == "deep_anen":
                    block = embed_block(model, fcst, s, lead, embedded)
                else:
                    sigma = climatology_stats(fcst, s, lead, search).sigma
                    metric = MetricConfig(cli._effective_weights(cfg, method, fcst), sigma, t_half)
                for c in sorted(test.tolist()):
                    query = AnalogQuery(station=s, target_cycle=c, lead=lead, t_half=t_half,
                                        search_cycles=search, m=m)
                    try:
                        if method == "deep_anen":
                            ranked = ref.search_latent(query, block, obs, limit=m)
                        else:
                            ranked = ref.search_classic(query, fcst, obs, metric, limit=m)
                        if len(ranked) < m:
                            raise InsufficientAnalogs(available=len(ranked), requested=m)
                    except DataError as err:
                        skipped.append((station, c, lead, str(err)))
                        continue
                    range_rows.append((station, c, lead, [x.cycle for x in ranked],
                                       np.array([x.score for x in ranked]).tobytes(),
                                       np.array([x.member for x in ranked]).tobytes()))
    return rows, skipped


@pytest.mark.parametrize("method", ["anen_equal", "anen_weighted", "deep_anen"])
@RUNS
@given(data=st.data())
def test_run_predictions_equals_one_reference_call_per_range(method, data):
    """Any set of ranges (nested, overlapping, unsorted, gapped, one cycle,
    none eligible) over archives with missing windows and observations: the
    rows of every range equal one reference search per range, in cycles,
    score bits and members, and the skips equal theirs as a multiset."""
    draw = data.draw
    t_half = draw(st.integers(0, 1))
    n_stations, n_var = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n_cycles, n_leads = draw(st.integers(6, 30)), 2 * t_half + draw(st.integers(1, 2))
    holes = st.sampled_from(["none", "some"])
    fcst = make_forecasts(_grid(draw, (n_stations, n_var, n_cycles, n_leads), draw(holes)))
    obs_grid = _grid(draw, (n_stations, n_cycles, n_leads), draw(holes))
    n_test = draw(st.integers(1, n_cycles // 2))
    pool, test = np.arange(n_cycles - n_test), np.arange(n_cycles - n_test, n_cycles)
    dead = pool[draw(st.integers(0, len(pool) - 1)):][:draw(st.integers(1, 2))]
    obs_grid[:, dead, :] = np.nan
    obs = obs_matching(fcst, obs_grid)
    ranges = [_range(draw, pool, dead) for _ in range(draw(st.integers(1, 4)))]
    cfg = ExperimentConfig()
    cfg.values.update(t_half=t_half, m=draw(st.sampled_from([1, 3, 5])))
    cfg.weights.update({f"v{i + 1}": draw(st.sampled_from([0.0, 0.5, 1.0]))
                        for i in range(n_var)})
    cfg.weights["v1"] += 0.0 if any(cfg.weights.values()) else 1.0
    model = init_model(list(fcst.variables), t_half=t_half, hidden_sizes=(3,), embed_dim=2,
                       seed=draw(st.integers(0, 3)))
    stations, leads = list(fcst.stations), list(range(n_leads))

    split_rows, skipped = cli.run_predictions(cfg, method, fcst, obs, stations, leads, ranges,
                                              test, model)
    want_rows, want_skipped = _reference_run(cfg, method, fcst, obs, stations, leads, ranges,
                                             test, model)
    got_rows = [[(station, cycle, lead, ens.cycles.tolist(), ens.scores.tobytes(),
                  ens.members.tobytes()) for station, cycle, lead, ens in rows]
                for rows in split_rows]
    assert got_rows == want_rows
    assert sorted(skipped) == sorted(want_skipped)
