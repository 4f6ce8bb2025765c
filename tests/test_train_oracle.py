"""``training.train`` against the functional loop kept in ``train_reference``.

The loop that makes each pool's sampling plan once, updates the model and
the ADAM moments in place and takes the lean BPTT step must write the same
checkpoint and training log bytes as the loop that samples every pool from
scratch, clones the model on every ADAM step and splits and normalizes the
embeddings the old way. A diverging run must stop at the same iteration and
save the same checkpoint.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import train_reference
from analogkit import training
from analogkit.errors import DivergenceError
from analogkit.network import save_checkpoint
from analogkit.synthetic import SynthSpec, generate
from analogkit.training import TrainConfig, plan_sampling, write_train_log

BASE = TrainConfig(t_half=0, k_pos=5, batch_size=16, max_iterations=40, eval_interval=10,
                   seed=3, dropout_rate=0.015, hidden_sizes=(4,), embed_dim=3)


def _rounded(spec, decimals):
    fcst, obs, _ = generate(spec)
    return fcst, type(obs)(obs.stations, obs.times, np.round(obs.values, decimals))


def _outputs(trainer, tmp_path, fcst, obs, stations, leads, cfg):
    """Checkpoint and log bytes of one run, or the reported iteration and the
    checkpoint saved on divergence."""
    path = tmp_path / "checkpoint.txt"
    try:
        model, log = trainer(fcst, obs, stations, leads, np.arange(len(fcst.cycles)), cfg,
                             on_divergence_save=str(path))
    except DivergenceError as err:
        return "diverged", err.iteration, path.read_bytes()
    save_checkpoint(model, path)
    write_train_log(log, tmp_path / "train_log.csv")
    return path.read_bytes(), (tmp_path / "train_log.csv").read_bytes()


def _assert_same(tmp_path, fcst, obs, stations, leads, cfg):
    got = _outputs(training.train, tmp_path, fcst, obs, stations, leads, cfg)
    want = _outputs(train_reference.train, tmp_path, fcst, obs, stations, leads, cfg)
    assert got == want
    return got


def test_dropout_with_ties_and_flagged_anchors(tmp_path):
    """Observations rounded to 1 decimal tie, and a few moved one ulp from
    their neighbour's value give rounding ties that flag anchors."""
    fcst, obs = _rounded(SynthSpec(n_cycles=200, n_variables=3, seed=6), 1)
    obs.values[0, 1:200:40] = np.nextafter(obs.values[0, 0:200:40], np.inf)
    cfg = replace(BASE, dropout_rate=0.1)
    plan = plan_sampling(fcst, obs, ["S00"], [0], np.arange(180), cfg)
    assert any(block.unsafe.size for block in plan.blocks)
    assert any(p > 0 for block in plan.blocks for p in block.past)  # ties at the k_pos cut
    _assert_same(tmp_path, fcst, obs, ["S00"], [0], cfg)


def test_two_stations_and_two_leads(tmp_path):
    fcst, obs = _rounded(SynthSpec(n_stations=2, n_cycles=120, n_leads=2, n_variables=3,
                                   seed=2), 2)
    _assert_same(tmp_path, fcst, obs, ["S01", "S00"], [1, 0], BASE)


def test_wide_windows_and_two_layers(tmp_path):
    fcst, obs = _rounded(SynthSpec(n_cycles=150, n_leads=3, n_variables=3, seed=4), 1)
    _assert_same(tmp_path, fcst, obs, ["S00"], [1],
                 replace(BASE, t_half=1, hidden_sizes=(4, 3)))


def test_resamples_and_stops_early(tmp_path, monkeypatch):
    """A pool of about 54 training triplets and 8 a batch: the training pool
    is sampled again every 7 iterations or so. The best validation loss
    comes before the last evaluation, so the model goes on changing in place
    after its best state is cloned, and the patience ends the run."""
    fcst, obs = _rounded(SynthSpec(n_cycles=60, n_variables=3, seed=1), 1)
    cfg = replace(BASE, batch_size=8, max_iterations=400, eval_interval=5,
                  early_stop_patience=40, learning_rate=0.03)
    calls = []
    sample = training.sample_triplets
    monkeypatch.setattr(training, "sample_triplets",
                        lambda *args, **kwargs: calls.append(1) or sample(*args, **kwargs))
    _, log = _assert_same(tmp_path, fcst, obs, ["S00"], [0], cfg)
    rows = [line.split(",") for line in log.decode().splitlines()[1:]]
    best = min(rows, key=lambda row: float(row[2]))
    assert 0 < int(best[0]) < int(rows[-1][0]) < cfg.max_iterations
    assert len(calls) >= 2 * (2 + 3)  # both loops: validation, first pool and 3 resamples


def test_two_leads_make_two_plans(monkeypatch):
    """One plan for the validation pool and one for the training pool, each
    over both leads; every pool and every resample is one draw from them."""
    fcst, obs = _rounded(SynthSpec(n_cycles=60, n_leads=2, n_variables=3, seed=1), 1)
    calls = Counter()

    def counting(name):
        original = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("plan_sampling", "sample_triplets"):
        monkeypatch.setattr(training, name, counting(name))
    training.train(fcst, obs, ["S00"], [0, 1], np.arange(60),
                   replace(BASE, batch_size=8, max_iterations=60))
    assert calls["plan_sampling"] == 2
    assert calls["sample_triplets"] >= 2 + 3  # validation, first pool and 3 resamples


def test_divergence(tmp_path):
    fcst, obs = _rounded(SynthSpec(n_cycles=100, n_variables=3, seed=1), 1)
    got = _assert_same(tmp_path, fcst, obs, ["S00"], [0],
                       replace(BASE, learning_rate=1e300, eval_interval=3))
    assert got[0] == "diverged" and got[1] >= 1
