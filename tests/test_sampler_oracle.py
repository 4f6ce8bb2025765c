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


def _oracle_as_index(fcst, obs, stations, lead, cycles, cfg, rng, anchor_cycles=None,
                     stats=None):
    """The oracle behind ``sample_triplets``' signature and result type: one
    window row per distinct origin."""
    triplets = sampler_reference.sample_triplets(fcst, obs, stations, lead, cycles, cfg, rng,
                                                 anchor_cycles, stats)
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
    assert _run(sample_triplets, *args) == expected
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
    for sampler in (training.sample_triplets, _oracle_as_index):
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
