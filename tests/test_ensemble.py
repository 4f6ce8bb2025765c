import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from analogkit.archive import ObservationArchive, valid_time
from analogkit.ensemble import (
    AnalogQuery,
    Ranking,
    build_ensemble,
    classic_base,
    latent_base,
    search_classic,
    search_latent,
)
from analogkit.errors import DataError, InsufficientAnalogs, WindowUnavailable
from analogkit.metric import MetricConfig
from analogkit.network import EmbeddingBlock, embed_block, init_model

from conftest import BAD_INDICES, index_archive, make_forecasts, obs_matching


def three_candidate_setup():
    """Target [1,2,3]; candidates scoring 1.118, 0.5, 2.0 under w=1, sigma=2."""
    values = np.zeros((1, 1, 4, 3))
    values[0, 0, 0] = [1.0, 2.0, 3.0]  # target cycle
    values[0, 0, 1] = [2.0, 2.0, 5.0]  # 0.5*sqrt(5)  = 1.118
    values[0, 0, 2] = [2.0, 2.0, 3.0]  # 0.5*sqrt(1)  = 0.5
    values[0, 0, 3] = [1.0, 2.0, 7.0]  # 0.5*sqrt(16) = 2.0
    fcst = make_forecasts(values)
    obs = obs_matching(fcst, 10.0 + np.arange(12, dtype=float).reshape(1, 4, 3))
    cfg = MetricConfig(weights=np.array([1.0]), sigma=np.array([2.0]), t_half=1)
    query = AnalogQuery(station=0, target_cycle=0, lead=1, t_half=1,
                        search_cycles=np.array([1, 2, 3]), m=3)
    return fcst, obs, cfg, query


class TestSearchClassic:
    def test_hand_computed_order(self):
        fcst, obs, cfg, query = three_candidate_setup()
        ranked = search_classic(query, fcst, obs, cfg)
        assert ranked.cycles.tolist() == [2, 1, 3]
        assert ranked.scores[0] == pytest.approx(0.5, rel=1e-12)
        assert ranked.scores[1] == pytest.approx(0.5 * np.sqrt(5), rel=1e-12)
        assert ranked.scores[2] == pytest.approx(2.0, rel=1e-12)
        # members are the observations at each candidate's valid time
        for cycle, member in zip(ranked.cycles.tolist(), ranked.members.tolist()):
            t = valid_time(fcst, cycle, query.lead)
            assert member == obs.values_for("S00", t)

    def test_identical_candidate_ranks_first_with_zero_score(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = fcst.values.copy()
        values[0, 0, 3] = values[0, 0, 0]  # exact duplicate of the target
        fcst2 = make_forecasts(values)
        ranked = search_classic(query, fcst2, obs, cfg)
        assert ranked.cycles[0] == 3
        assert ranked.scores[0] == 0.0

    def test_candidate_with_missing_observation_excluded(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = obs.values.copy()
        t = valid_time(fcst, 2, 1)
        values[0, obs.times.tolist().index(t)] = np.nan
        from analogkit.archive import ObservationArchive

        obs2 = ObservationArchive(obs.stations, obs.times, values)
        ranked = search_classic(query, fcst, obs2, cfg)
        assert ranked.cycles.tolist() == [1, 3]

    def test_candidate_with_incomplete_window_excluded(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = fcst.values.copy()
        values[0, 0, 2, 0] = np.nan
        ranked = search_classic(query, make_forecasts(values), obs, cfg)
        assert ranked.cycles.tolist() == [1, 3]

    def test_unavailable_target_window_is_an_error(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = fcst.values.copy()
        values[0, 0, 0, 0] = np.nan
        with pytest.raises(WindowUnavailable):
            search_classic(query, make_forecasts(values), obs, cfg)

    def test_empty_candidate_set_is_an_error(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = fcst.values.copy()
        values[0, 0, 1:, 1] = np.nan
        with pytest.raises(DataError):
            search_classic(query, make_forecasts(values), obs, cfg)

    def test_tie_broken_by_earlier_cycle(self):
        fcst, obs, cfg, query = three_candidate_setup()
        values = fcst.values.copy()
        values[0, 0, 3] = values[0, 0, 1]  # same score as cycle 1, later cycle
        ranked = search_classic(query, make_forecasts(values), obs, cfg)
        tied = [c for c, s in zip(ranked.cycles.tolist(), ranked.scores.tolist())
                if s == pytest.approx(0.5 * np.sqrt(5))]
        assert tied == [1, 3]

    def test_negative_search_cycle_is_not_wrapped(self):
        fcst, obs, cfg, _ = three_candidate_setup()
        query = AnalogQuery(station=0, target_cycle=0, lead=1, t_half=1,
                            search_cycles=np.array([-1, -2, 2, 3]), m=3)
        # the range is sorted first, so the smallest bad cycle is named
        with pytest.raises(IndexError, match="cycle index -2 out of range"):
            search_classic(query, fcst, obs, cfg)

    @pytest.mark.parametrize("where,error,message", BAD_INDICES)
    def test_base_refuses_indices_outside_the_archive(self, where, error, message):
        station, cycles, lead, t_half = where
        with pytest.raises(error, match=message):
            classic_base(*index_archive(), station, lead, cycles, t_half)

    def test_weight_scaling_preserves_rank_order(self, rng):
        values = rng.standard_normal((1, 3, 30, 3))
        fcst = make_forecasts(values)
        obs = obs_matching(fcst, rng.standard_normal((1, 30, 3)))
        query = AnalogQuery(station=0, target_cycle=29, lead=1, t_half=1,
                            search_cycles=np.arange(29), m=5)
        sigma = rng.random(3) + 0.2
        weights = rng.random(3) + 0.1
        base = search_classic(query, fcst, obs, MetricConfig(weights, sigma, 1))
        scaled = search_classic(query, fcst, obs, MetricConfig(weights * 7.5, sigma, 1))
        assert base.cycles.tolist() == scaled.cycles.tolist()


class TestSearchLatent:
    def _block(self, vectors, available=None, cycles=None):
        n = len(vectors)
        cycles = np.arange(n) if cycles is None else np.asarray(cycles)
        return EmbeddingBlock(
            station="S00",
            lead_s=0,
            cycles=cycles,
            valid_times=86400 * cycles,
            vectors=np.asarray(vectors, dtype=float),
            available=np.ones(n, dtype=bool) if available is None else np.asarray(available),
        )

    def _obs_for(self, block, values):
        from analogkit.archive import ObservationArchive

        return ObservationArchive(["S00"], np.asarray(block.valid_times, dtype=np.int64),
                                  np.asarray(values, dtype=float).reshape(1, -1))

    def test_pythagorean_distances(self):
        """Target (0,0); candidates (3,4) and (1,0) rank as 1 then 5."""
        block = self._block([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        obs = self._obs_for(block, [7.0, 8.0, 9.0])
        query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                            search_cycles=np.array([1, 2]), m=2)
        ranked = search_latent(query, block, obs)
        assert ranked.cycles.tolist() == [2, 1]
        assert ranked.scores[0] == pytest.approx(1.0, rel=1e-12)
        assert ranked.scores[1] == pytest.approx(5.0, rel=1e-12)

    def test_identical_embedding_first(self):
        block = self._block([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        obs = self._obs_for(block, [1.0, 2.0, 3.0])
        query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                            search_cycles=np.array([1, 2]), m=2)
        ranked = search_latent(query, block, obs)
        assert ranked.cycles[0] == 2
        assert ranked.scores[0] == 0.0

    def test_masked_candidate_excluded(self):
        block = self._block([[0.0], [1.0], [2.0]], available=[True, False, True])
        obs = self._obs_for(block, [1.0, 2.0, 3.0])
        query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                            search_cycles=np.array([1, 2]), m=1)
        ranked = search_latent(query, block, obs)
        assert ranked.cycles.tolist() == [2]

    def test_station_without_observations_has_no_candidates(self):
        block = self._block([[0.0], [1.0], [2.0]])
        obs = ObservationArchive(["S01"], np.asarray(block.valid_times, dtype=np.int64),
                                 np.ones((1, 3)))
        query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                            search_cycles=np.array([1, 2]), m=1)
        with pytest.raises(DataError, match="no analog candidates"):
            search_latent(query, block, obs)

    def test_masked_target_is_an_error(self):
        block = self._block([[0.0], [1.0]], available=[False, True])
        obs = self._obs_for(block, [1.0, 2.0])
        query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                            search_cycles=np.array([1]), m=1)
        with pytest.raises(DataError, match="target"):
            search_latent(query, block, obs)


class TestBuildEnsemble:
    def _ranked(self, n):
        return Ranking(cycles=np.arange(n), scores=np.arange(n, dtype=float),
                       members=10.0 + np.arange(n))

    def test_singleton_ensemble(self):
        query = AnalogQuery(station=0, target_cycle=99, lead=0, t_half=0,
                            search_cycles=np.arange(5), m=1)
        ens = build_ensemble(self._ranked(5), query)
        assert ens.members.tolist() == [10.0]
        assert ens.cycles.tolist() == [0]
        assert ens.scores.tolist() == [0.0]

    def test_m_equal_to_list_length(self):
        query = AnalogQuery(station=0, target_cycle=99, lead=0, t_half=0,
                            search_cycles=np.arange(4), m=4)
        ens = build_ensemble(self._ranked(4), query)
        assert ens.m == 4
        assert ens.mean == 11.5  # of members 10, 11, 12 and 13

    def test_short_flag_semantics(self):
        query = AnalogQuery(station=0, target_cycle=99, lead=0, t_half=0,
                            search_cycles=np.arange(10), m=11)
        with pytest.raises(InsufficientAnalogs, match="10"):
            build_ensemble(self._ranked(10), query)

    def test_sources_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Ranking(members=np.array([1.0, 2.0]), cycles=np.array([0, 1]),
                    scores=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="one cycle and score per member"):
            Ranking(members=np.array([1.0]), cycles=np.array([0, 1]),
                    scores=np.array([1.0, 2.0]))


class TestSearchProperties:
    def test_monotone_search_benefit_both_metrics(self, rng):
        """Enlarging the search range never worsens the M-th best score."""
        n_cycles, n_var, m = 60, 3, 5
        values = rng.standard_normal((1, n_var, n_cycles, 3))
        fcst = make_forecasts(values)
        obs = obs_matching(fcst, rng.standard_normal((1, n_cycles, 3)))
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,),
                           embed_dim=3, seed=0)
        cfg = MetricConfig(weights=np.ones(n_var), sigma=np.ones(n_var), t_half=1)
        block = embed_block(model, fcst, 0, 1, np.arange(n_cycles))
        for trial in range(100):
            target = int(rng.integers(40, n_cycles))
            small_n = int(rng.integers(m + 1, 30))
            large_n = int(rng.integers(small_n, 41))
            small = np.arange(small_n)
            large = np.arange(large_n)
            q_small = AnalogQuery(station=0, target_cycle=target, lead=1, t_half=1,
                                  search_cycles=small, m=m)
            q_large = AnalogQuery(station=0, target_cycle=target, lead=1, t_half=1,
                                  search_cycles=large, m=m)
            for search in (
                lambda q: search_classic(q, fcst, obs, cfg),
                lambda q: search_latent(q, block, obs),
                lambda q: search_classic(q, fcst, obs, cfg, limit=m),
                lambda q: search_latent(q, block, obs, limit=m),
            ):
                s_small = search(q_small).scores
                s_large = search(q_large).scores
                assert s_large[m - 1] <= s_small[m - 1]

    def test_independence_across_stations_and_leads(self, rng):
        values = rng.standard_normal((2, 2, 20, 3))
        fcst = make_forecasts(values)
        obs_grid = rng.standard_normal((2, 20, 3))
        obs = obs_matching(fcst, obs_grid)
        cfg = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=1)
        query = AnalogQuery(station=0, target_cycle=19, lead=1, t_half=1,
                            search_cycles=np.arange(19), m=3)
        before = search_classic(query, fcst, obs, cfg)
        mutated = values.copy()
        mutated[1] = rng.standard_normal((2, 20, 3))  # other station
        after = search_classic(query, make_forecasts(mutated), obs, cfg)
        assert _ranking(before) == _ranking(after)


TOP_M = settings(derandomize=True, max_examples=150, deadline=None)


def _ranking(ranked, k=None):
    """Cycles, scores (NaN kept) and members of the first ``k`` of a ranking,
    comparable with ==."""
    return (ranked.cycles[:k].tolist(), ranked.scores[:k].tobytes(),
            ranked.members[:k].tolist())


def _assert_limits_truncate(search):
    """search(limit=k) is the first k of the full ranking, for k at and past the edges."""
    try:
        full = search(None)
    except DataError:
        with pytest.raises(DataError):
            search(1)
        return
    n = len(full)
    for k in sorted({1, 2, max(1, n // 2), max(1, n - 1), n, n + 1, n + 7}):
        assert _ranking(search(k)) == _ranking(full, k)


def _grid(draw, shape, missing):
    """Integer-valued floats in 0..2 (so scores tie often), NaN where drawn."""
    values = np.array(draw(st.lists(st.integers(0, 2), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape)))), dtype=float).reshape(shape)
    holes = draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
    values[np.array(holes).reshape(shape) & missing] = np.nan
    return values


class TestTopM:
    """Searches with a limit return the head of the full ranking, ties included."""

    @TOP_M
    @given(data=st.data())
    def test_classic_limit_truncates_full_ranking(self, data):
        n_cycles = data.draw(st.integers(2, 30))
        n_var = data.draw(st.integers(1, 3))
        t_half = data.draw(st.integers(0, 1))
        n_leads = 2 * t_half + 1
        values = _grid(data.draw, (1, n_var, n_cycles, n_leads),
                       data.draw(st.sampled_from([False, True])))
        values[0, :, -1] = np.nan_to_num(values[0, :, -1])  # the target window is complete
        fcst = make_forecasts(values)
        obs = obs_matching(fcst, _grid(data.draw, (1, n_cycles, n_leads), True))
        weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                              min_size=n_var, max_size=n_var)))
        weights[0] += 0.0 if weights.any() else 1.0  # the metric needs one positive weight
        cfg = MetricConfig(weights=weights, sigma=np.ones(n_var), t_half=t_half)
        query = AnalogQuery(station=0, target_cycle=n_cycles - 1, lead=t_half, t_half=t_half,
                            search_cycles=np.arange(n_cycles - 1), m=1)
        _assert_limits_truncate(lambda k: search_classic(query, fcst, obs, cfg, limit=k))

    @TOP_M
    @given(data=st.data())
    def test_latent_limit_truncates_full_ranking(self, data):
        n = data.draw(st.integers(2, 30))
        dim = data.draw(st.integers(1, 3))
        vectors = _grid(data.draw, (n, dim), False)
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        vectors = vectors[rows]  # duplicated rows give exact ties
        nan_rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        vectors[nan_rows] = np.nan
        available = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        target = data.draw(st.integers(0, n - 1))
        available[target] = True
        cycles = np.cumsum(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        block = EmbeddingBlock(station="S00", lead_s=0, cycles=cycles, valid_times=86400 * cycles,
                               vectors=vectors, available=available)
        obs_values = _grid(data.draw, (1, n), True)
        obs = ObservationArchive(["S00"], 86400 * cycles, obs_values)
        search = np.delete(cycles, target)
        search = search[np.array(data.draw(st.lists(st.booleans(), min_size=n - 1,
                                                    max_size=n - 1)), dtype=bool)]
        query = AnalogQuery(station=0, target_cycle=int(cycles[target]), lead=0, t_half=0,
                            search_cycles=search, m=1)
        _assert_limits_truncate(lambda k: search_latent(query, block, obs, limit=k))

    def test_limit_below_one_rejected(self):
        fcst, obs, cfg, query = three_candidate_setup()
        with pytest.raises(ValueError):
            search_classic(query, fcst, obs, cfg, limit=0)

    def test_uncovered_search_cycle_raises_key_error(self):
        cycles = np.array([0, 2, 4, 6])
        block = EmbeddingBlock(station="S00", lead_s=0, cycles=cycles, valid_times=86400 * cycles,
                               vectors=np.zeros((4, 2)), available=np.ones(4, dtype=bool))
        obs = ObservationArchive(["S00"], 86400 * cycles, np.ones((1, 4)))
        for missing in (3, 7, -1):
            query = AnalogQuery(station=0, target_cycle=0, lead=0, t_half=0,
                                search_cycles=np.array([2, missing, 4]), m=1)
            with pytest.raises(KeyError, match=str(missing)):
                search_latent(query, block, obs, limit=1)
            with pytest.raises(KeyError, match=str(missing)):
                latent_base(block, obs, query.search_cycles)


def test_readme_quick_start_runs():
    """The README's library quick start runs as written; both of its
    ensembles are rankings of 11 members."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block, namespace)
    for name in ("ensemble", "deep"):
        assert isinstance(namespace[name], Ranking) and namespace[name].m == 11, name


def test_query_needs_a_member():
    with pytest.raises(ValueError, match="m must be >= 1"):
        AnalogQuery(station=0, target_cycle=9, lead=0, t_half=0, search_cycles=np.arange(5), m=0)
