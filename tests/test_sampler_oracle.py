"""The sort-once triplet sampler against the argsort oracle.

Both samplers must produce the same triplets (origins, windows and
``obs_gap`` bits), the same ``SamplingStats`` counts and leave the generator
in the same state, on ties, missing values, every ``k_pos`` edge and
distinct observations whose rounded distances tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler_reference
from analogkit import training
from analogkit.network import save_checkpoint
from analogkit.synthetic import SynthSpec, generate
from analogkit.training import (
    SamplingStats,
    TrainConfig,
    Triplets,
    sample_triplets,
    write_train_log,
)

from conftest import make_forecasts, obs_matching

ORACLE = settings(derandomize=True, max_examples=500, deadline=None)

# Observations of mixed magnitude: distinct values on one side of an anchor
# round to the same distance (1 - 1e-17 == 1 - 2e-17, and 2 + 2**-52 == 2).
MIXED = [0.0, -0.0, 1e-17, -1e-17, 2e-17, 3e-17, 1.0, -1.0, 1.0 + 2**-52, 1.0 + 2**-51, 1e16]


def _tuples(result):
    """Either sampler's triplets as (origins, obs_gap bits, window bytes) tuples."""
    if isinstance(result, Triplets):
        origins = [tuple(o) for o in result.origins.tolist()]
        return [(origins[a], origins[p], origins[n], np.float64(gap).tobytes(),
                 result.windows[a].tobytes(), result.windows[p].tobytes(),
                 result.windows[n].tobytes())
                for (a, p, n), gap in zip(result.index.tolist(), result.obs_gap)]
    return [(t.anchor.origin, t.positive.origin, t.negative.origin,
             np.float64(t.obs_gap).tobytes(),
             t.anchor.data.tobytes(), t.positive.data.tobytes(), t.negative.data.tobytes())
            for t in result]


def _sample(fcst, obs, stations, lead, cycles, cfg, rng, anchor_cycles=None, stats=None):
    """``sample_triplets`` on a fresh plan over one lead."""
    plan = training.plan_sampling(fcst, obs, stations, [lead], cycles, cfg, anchor_cycles)
    return sample_triplets(plan, rng, stats)


def _oracle_as_index(fcst, obs, stations, leads, cycles, cfg, rng, anchor_cycles=None,
                     stats=None):
    """The oracle, lead by lead, in the result type of ``sample_triplets``:
    one window row per distinct origin. It samples from scratch."""
    triplets = [t for lead in leads
                for t in sampler_reference.sample_triplets(fcst, obs, stations, lead, cycles,
                                                           cfg, rng, anchor_cycles, stats)]
    rows = {}
    for t in triplets:
        for w in t[:3]:
            rows.setdefault(w.origin, w.data)
    place = {origin: i for i, origin in enumerate(rows)}
    width = 2 * cfg.t_half + 1
    return Triplets(
        windows=np.array(list(rows.values())).reshape(-1, fcst.n_variables, width),
        origins=np.array(list(rows), dtype=int).reshape(-1, 3),
        index=np.array([[place[w.origin] for w in t[:3]] for t in triplets],
                       dtype=int).reshape(-1, 3),
        obs_gap=np.array([t.obs_gap for t in triplets], dtype=float),
    )


def _run(sampler, fcst, obs, stations, lead, cycles, cfg, seed, anchor_cycles):
    """Everything a sampler call decides, comparable with ==."""
    rng = np.random.default_rng(seed)
    stats = SamplingStats(anchors_seen=3, anchors_skipped=1)  # counts accumulate
    triplets = sampler(fcst, obs, stations, lead, cycles, cfg, rng,
                       anchor_cycles=anchor_cycles, stats=stats)
    return _tuples(triplets), (stats.anchors_seen, stats.anchors_skipped), rng.random()


def _assert_same(*args):
    expected = _run(sampler_reference.sample_triplets, *args)
    assert _run(_sample, *args) == expected
    return expected


def _values(gen, shape, spread, holes):
    """Integers in [-spread, spread] as floats (heavy ties), draws from
    ``MIXED`` when ``spread`` is "mixed", or continuous floats when it is
    None; about one cell in eight NaN when ``holes``."""
    if spread == "mixed":
        values = gen.choice(MIXED, size=shape)
    elif spread is not None:
        values = gen.integers(-spread, spread + 1, size=shape).astype(float)
    else:
        values = gen.uniform(-1e3, 1e3, size=shape)
    if holes:
        values[gen.random(shape) < 0.125] = np.nan
    return values


class TestSamplerOracle:
    @ORACLE
    @given(data=st.data())
    def test_matches_argsort_oracle(self, data):
        draw = data.draw
        n_cycles = draw(st.integers(1, 40))
        t_half = draw(st.integers(0, 1))
        n_leads = 2 * t_half + draw(st.integers(1, 2))
        lead = draw(st.integers(t_half, n_leads - 1 - t_half))
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        fcst = make_forecasts(_values(gen, (2, 2, n_cycles, n_leads), None,
                                      draw(st.booleans())))  # holes: incomplete windows
        obs = obs_matching(fcst, _values(gen, (2, n_cycles, n_leads),
                                         draw(st.sampled_from([None, 1, 2, "mixed"])),
                                         draw(st.booleans())))
        if draw(st.booleans()):  # S01 has no observations
            obs = type(obs)(obs.stations[:1], obs.times, obs.values[:1])
        stations = draw(st.sampled_from([["S00"], ["S01"], ["S00", "S01"], ["S01", "S00"]]))
        # unsorted cycle indices, a few left out and a few repeated
        dropped = draw(st.lists(st.integers(0, n_cycles - 1), max_size=3))
        cycles = [c for c in draw(st.permutations(range(n_cycles))) if c not in dropped]
        cycles += draw(st.lists(st.integers(0, n_cycles - 1), max_size=5))
        anchor_cycles = None
        if draw(st.booleans()):  # a subset, with indices outside the range too
            chosen = draw(st.lists(st.booleans(), min_size=n_cycles + 2, max_size=n_cycles + 2))
            anchor_cycles = [c for c, keep in zip(range(-1, n_cycles + 1), chosen) if keep]
        n = len(set(cycles))
        k_pos = max(1, draw(st.sampled_from([1, n - 2, n - 1, n, draw(st.integers(1, 6))])))
        cfg = TrainConfig(k_pos=k_pos, t_half=t_half)
        _assert_same(fcst, obs, stations, lead, cycles, cfg,
                     draw(st.integers(0, 2**32 - 1)), anchor_cycles)

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_oracle_on_long_history(self, decimals, seed):
        """600 cycles, k_pos 11: the sizes the training pool uses, with
        continuous observations and with ties from rounding."""
        fcst, obs, _ = generate(SynthSpec(n_cycles=600, n_variables=3, seed=seed))
        if decimals is not None:
            obs = type(obs)(obs.stations, obs.times, np.round(obs.values, decimals))
        cfg = TrainConfig(t_half=0, k_pos=11)
        picks, _, _ = _assert_same(fcst, obs, ["S00"], 0, np.arange(600), cfg, seed, None)
        assert picks


def test_train_with_oracle_sampler_is_byte_identical(tmp_path, monkeypatch):
    """Checkpoint and train log equal those of the argsort sampler, over
    several pool resamples, with dropout and tied observations."""
    fcst, obs, _ = generate(SynthSpec(n_cycles=200, n_variables=3, seed=6))
    obs = type(obs)(obs.stations, obs.times, np.round(obs.values, 1))
    cfg = TrainConfig(t_half=0, k_pos=5, batch_size=16, max_iterations=40, eval_interval=10,
                      seed=3, dropout_rate=0.1, hidden_sizes=(4,), embed_dim=3)
    outputs = []
    # In the oracle's turn a "plan" is plan_sampling's own arguments, sampled from scratch each draw.
    oracle = (lambda *args: args,
              lambda plan, rng, stats=None: _oracle_as_index(*plan[:6], rng, *plan[6:], stats))
    for planner, sampler in ((training.plan_sampling, training.sample_triplets), oracle):
        monkeypatch.setattr(training, "plan_sampling", planner)
        monkeypatch.setattr(training, "sample_triplets", sampler)
        model, log = training.train(fcst, obs, ["S00"], [0], np.arange(200), cfg)
        save_checkpoint(model, tmp_path / "checkpoint.txt")
        write_train_log(log, tmp_path / "train_log.csv")
        outputs.append([(tmp_path / name).read_bytes()
                        for name in ("checkpoint.txt", "train_log.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("spread, n", [(spread, n) for spread in (1, 2, None)
                                       for n in (2, 3, 12, 200)]
                         + [("mixed", n) for n in (2, 3, 5, 8)])
def test_merged_entry_matches_lexsort_at_every_place(spread, n):
    """Every place of every unflagged anchor's merged order equals a
    (distance, cycle) lexsort of the other positions; the draws alone reach
    only a few places of each. Mixed arrays stay short, since from about
    length 12 on nearly every anchor of them is flagged."""
    checked = 0
    for seed in range(8):
        v = _values(np.random.default_rng(seed), n, spread, holes=False)
        up, down = v.argsort(kind="stable"), (-v).argsort(kind="stable")
        sv = v[up]
        lo, hi = sv.searchsorted(v, "left"), sv.searchsorted(v, "right")
        skip = np.empty(n, dtype=int)
        skip[up] = np.arange(n)
        skip -= lo  # each position's own entry of up[lo:]
        anchors = np.flatnonzero(~training._rounding_may_tie(sv, lo, hi, v))
        got = training._merged_entry(v, up, down, lo[anchors, None], skip[anchors, None],
                                     v[anchors, None], np.arange(n - 1))
        for a, row in zip(anchors, got):
            order = np.lexsort((np.arange(n), np.abs(v - v[a])))
            np.testing.assert_array_equal(row, order[order != a])
        checked += anchors.size
    assert checked == 8 * n or (spread == "mixed" and checked > 0)


def _rounding_ties(v):
    """Per position of ``v``, whether two distinct values on one side of it
    lie at the same rounded distance from it, found by computing them all."""
    u = np.unique(v)
    with np.errstate(over="ignore"):
        up, down = u - v[:, None], v[:, None] - u
    above = (u[:-1] > v[:, None]) & (up[:, :-1] == up[:, 1:])
    below = (u[1:] < v[:, None]) & (down[:, :-1] == down[:, 1:])
    return (above | below).any(axis=1)


def _flags(v):
    sv = np.sort(v)
    return training._rounding_may_tie(sv, sv.searchsorted(v, "left"),
                                      sv.searchsorted(v, "right"), v)


def test_rounding_may_tie_flags_every_rounding_tie():
    """On 3,000 random arrays of integers, normal draws, magnitudes from
    1e-320 to 1e308 (half of them beside 1 + k 2**-52), subnormals and
    values whose distances overflow, every anchor with a rounding tie on one
    side is flagged."""
    gen = np.random.default_rng(0)
    draws = [
        lambda n: gen.integers(-5, 6, n).astype(float),
        lambda n: gen.standard_normal(n) * 10.0 ** gen.integers(-3, 4),
        lambda n: np.concatenate([gen.choice([-1.0, 1.0], n - n // 2)
                                  * 10.0 ** gen.uniform(-320, 308, n - n // 2),
                                  1.0 + gen.integers(0, 8, n // 2) * 2.0**-52]),
        lambda n: gen.integers(-50, 51, n) * 5e-324 * gen.integers(1, 1000),
        lambda n: gen.choice([-1.0, 1.0], n) * gen.uniform(0.5, 1.79, n) * 1e308,
    ]
    ties = 0
    for i in range(3000):
        v = draws[i % 5](int(gen.integers(3, 60)))
        tied = _rounding_ties(v)
        missed = tied & ~_flags(v)
        assert not missed.any(), v[missed]
        ties += np.count_nonzero(tied)
    assert ties > 1000


def test_one_outlier_flags_only_its_neighbourhood():
    """One observation of 1e16 in a 1,800-cycle block flags at most two
    anchors, and the sampler still matches the oracle there."""
    fcst, obs, _ = generate(SynthSpec(n_cycles=1800, n_variables=3, seed=1))
    values = obs.values.copy()
    values[0, 900] = 1e16
    obs = type(obs)(obs.stations, obs.times, values)
    assert np.count_nonzero(_flags(values[0])) <= 2
    cfg = TrainConfig(t_half=0, k_pos=11)
    picks, _, _ = _assert_same(fcst, obs, ["S00"], 0, np.arange(1800), cfg, 1, None)
    assert len(picks) == 1800


def _sample_n(plans, n=4):
    """n successive draws on one generator and one stats, each from the plan
    ``plans()`` gives: every triplet's bytes, the counts and the generator
    state after them."""
    rng, stats = np.random.default_rng(11), SamplingStats()
    calls = [_tuples(sample_triplets(plans(), rng, stats)) for _ in range(n)]
    return calls, (stats.anchors_seen, stats.anchors_skipped), rng.bit_generator.state


def _rounded_two_stations(case, n_leads=1):
    """Two stations, 120 cycles, observations rounded to 1 decimal. S01 has 5
    eligible cycles in "too_small", fewer than k_pos + 2, so all its anchors
    are skipped; "flagged" puts MIXED values in S00's observations, so that
    some of its anchors are ranked in full."""
    fcst, obs, _ = generate(SynthSpec(n_stations=2, n_cycles=120, n_leads=n_leads,
                                      n_variables=3, seed=3))
    values = np.round(obs.values, 1)
    if case == "too_small":
        values[1, 5:] = np.nan
    if case == "flagged":
        values[0, ::2] = np.resize(MIXED, 60)
    return fcst, type(obs)(obs.stations, obs.times, values)


@pytest.mark.parametrize("case", ["anchor_cycles", "too_small", "flagged"])
def test_calls_sharing_a_plan_equal_calls_without_one(case):
    """Drawing four times from one plan equals drawing from a fresh plan each time."""
    fcst, obs = _rounded_two_stations(case)
    anchor_cycles = np.arange(0, 120, 3) if case == "anchor_cycles" else None
    cfg = TrainConfig(t_half=0, k_pos=11)
    cycles = np.arange(120)

    def fresh():
        return training.plan_sampling(fcst, obs, ["S00", "S01"], [0], cycles, cfg, anchor_cycles)

    plan = fresh()
    if case == "too_small":
        assert len(plan.blocks) == 1 and plan.anchors_seen == 120 + 5
    if case == "flagged":
        assert plan.blocks[0].unsafe.size > 0
    shared = _sample_n(lambda: plan)
    assert shared == _sample_n(fresh)
    assert all(shared[0])
    if case == "too_small":
        assert shared[1][1] >= 4 * 5  # each call skips S01's five anchors


@pytest.mark.parametrize("case", ["anchor_cycles", "too_small"])
def test_plan_over_leads_draws_as_per_lead_plans_in_sequence(case):
    """One plan over 2 stations x 3 leads, blocks leads outer and stations
    inner, draws the same triplets, counts and generator state as one plan
    per lead drawn lead after lead."""
    fcst, obs = _rounded_two_stations(case, n_leads=3)
    anchor_cycles = np.arange(0, 120, 3) if case == "anchor_cycles" else None
    cfg = TrainConfig(t_half=0, k_pos=11)
    stations, leads, cycles = ["S01", "S00"], [2, 0, 1], np.arange(120)
    plan = training.plan_sampling(fcst, obs, stations, leads, cycles, cfg, anchor_cycles)
    assert len(plan.blocks) == (6 if case == "anchor_cycles" else 3)
    together = _sample_n(lambda: plan, n=2)
    per_lead = [training.plan_sampling(fcst, obs, stations, [lead], cycles, cfg, anchor_cycles)
                for lead in leads]
    rng, stats = np.random.default_rng(11), SamplingStats()
    calls = [sum((_tuples(sample_triplets(p, rng, stats)) for p in per_lead), [])
             for _ in range(2)]
    assert together == (calls, (stats.anchors_seen, stats.anchors_skipped),
                        rng.bit_generator.state)
    assert {o[2] for o in plan.origins.tolist()} == set(leads)


@pytest.mark.parametrize("case", ["anchor_cycles", "too_small"])
def test_edge_leads_draw_nothing(case):
    """At t_half 1, leads 0 and 2 of three have no window and no eligible
    cycle: a plan over all three leads draws the same triplets, counts and
    generator state as a plan over lead 1 alone."""
    fcst, obs = _rounded_two_stations(case, n_leads=3)
    anchor_cycles = np.arange(0, 120, 3) if case == "anchor_cycles" else None
    cfg = TrainConfig(t_half=1, k_pos=11)

    def plan(leads):
        return lambda: training.plan_sampling(fcst, obs, ["S01", "S00"], leads, np.arange(120),
                                              cfg, anchor_cycles)

    with_edges = _sample_n(plan([0, 1, 2]), n=2)
    assert with_edges == _sample_n(plan([1]), n=2)
    assert all(with_edges[0])


def _state(rng):
    """The full bit generator state, its arrays as lists, comparable with ==."""
    def plain(x):
        if isinstance(x, dict):
            return {key: plain(value) for key, value in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


def _entered(bits, entry):
    """A generator on ``bits`` after ``entry``: nothing, one ``integers(5)``
    (which leaves a buffered half), or a buffered half of 0."""
    rng = np.random.Generator(bits)
    if entry == "integers":
        rng.integers(5)
    if entry == "zero_half":
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": 0}
    return rng


def _tied_stations():
    """Two stations, 21 cycles, k_pos 10, observations -1, 1, 0, -1, 1 in
    turn: eight each of -1 and 1, four of 0. An anchor at 0 has its 3 equals
    at distance 0 and every other candidate at distance 1 or more, so the
    negative may have one place or none left. S00's 21st observation is 3,
    so its 0-anchors have one place left (``integers(1)``, which reads no
    bits) after a positive at distance 1; S01's is missing, so its 0-anchors
    are then skipped."""
    values = np.append(np.tile([-1.0, 1.0, 0.0, -1.0, 1.0], 4), 3.0)
    fcst = make_forecasts(np.random.default_rng(0).standard_normal((2, 2, 21, 1)))
    obs = obs_matching(fcst, np.stack([values, np.append(values[:20], np.nan)])[:, :, None])
    return fcst, obs, ["S00", "S01"], np.arange(21), TrainConfig(t_half=0, k_pos=10)


def _long_history():
    fcst, obs, _ = generate(SynthSpec(n_cycles=600, n_variables=3, seed=1))
    return fcst, obs, ["S00"], np.arange(600), TrainConfig(t_half=0, k_pos=11)


def test_tied_stations_have_stops_of_both_kinds():
    fcst, obs, stations, cycles, cfg = _tied_stations()
    plan = training.plan_sampling(fcst, obs, stations, [0], cycles, cfg)
    places_left = [block.v.size - 1 - block.past.max() for block in plan.blocks]
    assert places_left == [1, 0]


def _full_draws(sample, rng, n=4):
    """n successive draws: each call's triplet bytes, the counts and the full
    bit generator state after them."""
    stats = SamplingStats()
    calls = [_tuples(sample(rng, stats)) for _ in range(n)]
    return calls, (stats.anchors_seen, stats.anchors_skipped), _state(rng)


BIT_GENERATORS = {"PCG64": np.random.PCG64, "MT19937": np.random.MT19937,
                  "Philox": np.random.Philox}


@pytest.mark.parametrize("bits, entry", [
    (bits, entry) for bits in BIT_GENERATORS for entry in ("fresh", "integers", "zero_half")
    if (bits, entry) != ("MT19937", "zero_half")])  # MT19937 buffers no half
@pytest.mark.parametrize("case", [_long_history, _tied_stations], ids=["long", "tied"])
def test_draws_match_the_oracle_from_any_entry_state(case, bits, entry):
    """Four resamples from one plan equal the oracle's, which draws by one
    call per anchor and draw, in triplets, counts and the full generator
    state: from a fresh generator, after an ``integers(5)`` that leaves a
    buffered half, and from a buffered half of 0, which the first
    ``integers`` draw rejects."""
    fcst, obs, stations, cycles, cfg = case()
    plan = training.plan_sampling(fcst, obs, stations, [0], cycles, cfg)

    def oracle(rng, stats):
        return _oracle_as_index(fcst, obs, stations, [0], cycles, cfg, rng, None, stats)

    got = _full_draws(lambda rng, stats: sample_triplets(plan, rng, stats),
                      _entered(BIT_GENERATORS[bits](4), entry))
    assert got == _full_draws(oracle, _entered(BIT_GENERATORS[bits](4), entry))
    assert all(got[0])
    if case is _tied_stations:
        assert got[1][1] > 0  # S01's skipped 0-anchors
