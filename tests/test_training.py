import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from analogkit import training
from analogkit.errors import ConfigError, DataError
from analogkit.network import StepBuffers, init_model, named_parameters, save_checkpoint
from analogkit.synthetic import SynthSpec, generate
from analogkit.training import (
    TrainConfig,
    Triplets,
    adam_step,
    backward,
    evaluate_loss,
    init_adam_state,
    _pooled_norm,
    plan_sampling,
    sample_triplets,
    train,
    triplet_loss,
)

import train_reference
from conftest import BAD_INDICES, index_archive, make_forecasts, obs_matching


def small_cfg(**overrides):
    base = dict(alpha=1.0, dropout_rate=0.0, t_half=0, k_pos=1,
                hidden_sizes=(3,), embed_dim=2, batch_size=4)
    base.update(overrides)
    return TrainConfig(**base)


def _sample(fcst, obs, stations, lead, cycles, cfg, rng, anchor_cycles=None, stats=None):
    """``sample_triplets`` on a fresh plan over one lead."""
    plan = plan_sampling(fcst, obs, stations, [lead], cycles, cfg, anchor_cycles)
    return sample_triplets(plan, rng, stats)


def triplet_from(rng, n_var=2, width=3):
    """Anchor, positive and negative windows, drawn in that order."""
    return tuple(rng.standard_normal((n_var, width)) for _ in range(3))


def rows(batch):
    """Triplet windows as backward takes them: anchors, positives, negatives."""
    return np.stack([t[role] for role in range(3) for t in batch])


def origin_cycles(trips):
    """[n, 3] cycle indices of each triplet's anchor, positive and negative."""
    return trips.origins[trips.index][:, :, 1]


class TestSampleTriplets:
    def _archive(self, obs_values):
        """One station, one variable, t_half 0; observation per cycle."""
        n = len(obs_values)
        fcst = make_forecasts(np.arange(n, dtype=float).reshape(1, 1, n, 1))
        obs = obs_matching(fcst, np.asarray(obs_values, dtype=float).reshape(1, n, 1))
        return fcst, obs

    def test_three_candidate_history(self):
        """History obs {10, 3, 7}, anchor obs 3.1, k_pos=1: the positive is
        always the obs-3 cycle, the negative uniform over the other two."""
        fcst, obs = self._archive([3.1, 10.0, 3.0, 7.0])
        negatives = set()
        for seed in range(40):
            trips = _sample(
                fcst, obs, ["S00"], 0, np.arange(4), small_cfg(),
                np.random.default_rng(seed), anchor_cycles=[0],
            )
            assert len(trips) == 1
            _, positive, negative = origin_cycles(trips)[0]
            assert positive == 2  # the obs-3 cycle
            assert negative in (1, 3)
            assert trips.obs_gap[0] > 0
            negatives.add(negative)
        assert negatives == {1, 3}  # both negatives actually reachable

    def test_missing_observation_anchor_skipped(self):
        fcst, obs = self._archive([3.1, 10.0, 3.0, 7.0])
        values = obs.values.copy()
        values[0, obs.times.tolist().index(int(fcst.cycles[0]))] = np.nan
        from analogkit.archive import ObservationArchive

        obs2 = ObservationArchive(obs.stations, obs.times, values)
        trips = _sample(fcst, obs2, ["S00"], 0, np.arange(4), small_cfg(),
                        np.random.default_rng(0), anchor_cycles=[0])
        assert len(trips) == 0

    def test_too_few_candidates_skips_anchor(self):
        fcst, obs = self._archive([1.0, 2.0])
        trips = _sample(fcst, obs, ["S00"], 0, np.arange(2),
                        small_cfg(k_pos=1), np.random.default_rng(0))
        assert len(trips) == 0  # every anchor has 1 candidate < k_pos + 1

    def test_same_seed_same_triplets(self):
        fcst, obs = self._archive(list(np.random.default_rng(5).standard_normal(30)))
        cfg = small_cfg(k_pos=3)
        a = _sample(fcst, obs, ["S00"], 0, np.arange(30), cfg,
                    np.random.default_rng(123))
        b = _sample(fcst, obs, ["S00"], 0, np.arange(30), cfg,
                    np.random.default_rng(123))
        key = lambda ts: ts.origins[ts.index].tolist()
        assert key(a) == key(b)
        assert len(a) == 30

    def test_gap_positive_even_with_duplicate_observations(self):
        rng = np.random.default_rng(7)
        obs_values = list(rng.integers(0, 4, size=40).astype(float))  # heavy ties
        fcst, obs = self._archive(obs_values)
        trips = _sample(fcst, obs, ["S00"], 0, np.arange(40),
                        small_cfg(k_pos=5), rng)
        assert trips  # something must survive
        assert all(trips.obs_gap > 0)

    # stations are named, and TrainConfig refuses a negative t_half
    @pytest.mark.parametrize("where,error,message",
                             [case for case in BAD_INDICES if case[0][0] == case[0][3] == 0])
    def test_plan_refuses_indices_outside_the_archive(self, where, error, message):
        _, cycles, lead, _ = where
        with pytest.raises(error, match=message):
            plan_sampling(*index_archive(), ["S00"], [lead], cycles, small_cfg())


class TestTripletLoss:
    def test_satisfied_triplet_clamps_to_zero(self):
        e = np.zeros(3)
        assert triplet_loss(e, e + [1, 0, 0], e + [2, 0, 0], alpha=0.5) == 0.0

    def test_violated_triplet(self):
        e = np.zeros(3)
        loss = triplet_loss(e, e + [2, 0, 0], e + [1, 0, 0], alpha=0.5)
        assert loss == pytest.approx(1.5, abs=1e-12)

    def test_equal_positive_negative_gives_alpha(self, rng):
        e_a = rng.standard_normal(4)
        e = rng.standard_normal(4)
        for alpha in (0.0, 0.3, 2.0):
            assert triplet_loss(e_a, e, e.copy(), alpha) == pytest.approx(alpha, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(3), 1.0)


class TestBackward:
    def test_all_clamped_batch_has_zero_gradients(self, rng):
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(3,), embed_dim=2, seed=1)
        shared = rng.standard_normal((2, 3))
        far = shared + 5.0
        # anchor == positive, negative far away, margin 0: hinge is negative
        batch = rows([(shared, shared.copy(), far)])
        cfg = small_cfg(alpha=0.0, t_half=1)
        grad, loss = backward(model, batch, cfg, np.random.default_rng(0))
        assert loss == 0.0
        assert all(np.all(g == 0) for _, g in named_parameters(model, grad))

    @pytest.mark.parametrize("hidden_sizes", [(3,), (3, 4)])
    def test_gradients_match_finite_differences(self, rng, hidden_sizes):
        """Central finite differences at h=1e-5, 1e-4 relative tolerance."""
        model = init_model(["a", "b"], t_half=1, hidden_sizes=hidden_sizes,
                           embed_dim=2, seed=11)
        batch = rows([triplet_from(rng) for _ in range(3)])
        cfg = small_cfg(alpha=5.0, t_half=1, hidden_sizes=hidden_sizes)  # keep hinges active
        grad, _ = backward(model, batch, cfg, np.random.default_rng(0))
        grads = dict(named_parameters(model, grad))
        h = 1e-5
        for name, p in named_parameters(model):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = evaluate_loss(model, batch, cfg.alpha)
                p[idx] = orig - h
                down = evaluate_loss(model, batch, cfg.alpha)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                g = grads[name][idx]
                assert abs(g - fd) <= 1e-4 * max(abs(g), abs(fd)) + 1e-8, name

    def test_no_dropout_is_deterministic(self, rng):
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(3,), embed_dim=2, seed=2)
        batch = rows([triplet_from(rng) for _ in range(4)])
        cfg = small_cfg(alpha=3.0, t_half=1, dropout_rate=0.0)
        g1, l1 = backward(model, batch, cfg, np.random.default_rng(1))
        g2, l2 = backward(model, batch, cfg, np.random.default_rng(999))
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_dropout_masks_shared_across_passes(self, rng):
        """Swapping positive and negative negates the gradient when both
        orders stay active: only possible if the three passes share weights
        and the triplet's dropout masks."""
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(4,), embed_dim=3, seed=4)
        t = triplet_from(rng)
        swapped = (t[0], t[2], t[1])
        cfg = small_cfg(alpha=10.0, t_half=1, dropout_rate=0.25, hidden_sizes=(4,), embed_dim=3)
        g1, _ = backward(model, rows([t]), cfg, np.random.default_rng(7))
        g2, _ = backward(model, rows([swapped]), cfg, np.random.default_rng(7))
        np.testing.assert_allclose(g1, -g2, atol=1e-12)

    def test_empty_batch_rejected(self):
        model = init_model(["a"], t_half=0, hidden_sizes=(2,), embed_dim=2, seed=0)
        with pytest.raises(ValueError):
            backward(model, np.empty((0, 1, 1)), small_cfg(), np.random.default_rng(0))

    def test_bound_step_allocates_nothing_of_batch_size(self, rng):
        """After a warm-up call, the traced peak of one ``backward`` call on
        bound buffers grows by less than one [3B, embed_dim] array from
        B = 32 to B = 128: an iteration allocates no array of batch size
        (what is left is of model size, and the active hinges' values).

        A ufunc on broadcast or strided operands copies them through
        numpy's iterator buffers, up to ``np.getbufsize()`` elements (8,192
        by default) per operand. That scratch is numpy's, not an array of
        the step's, so the measured call runs at the smallest buffer size,
        16 elements."""
        cfg = small_cfg(t_half=1, hidden_sizes=(8, 6), embed_dim=8, dropout_rate=0.1)
        model = init_model(["a", "b", "c"], t_half=1, hidden_sizes=(8, 6), embed_dim=8, seed=3)

        def peak(n):
            rows = rng.standard_normal((3 * n, 3, 3))
            step = StepBuffers(model, rows.shape, masked=True, backprop=True)
            backward(model, rows, cfg, np.random.default_rng(0), step)
            bufsize = np.setbufsize(16)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                backward(model, rows, cfg, np.random.default_rng(1), step)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
                np.setbufsize(bufsize)

        small, large = peak(32), peak(128)
        assert large - small < 3 * 32 * cfg.embed_dim * 8, (small, large)


class TestAdam:
    def test_single_step_closed_form(self):
        """Unit gradient from a fresh state moves every parameter by
        -lr / (1 + eps), exactly."""
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        cfg = small_cfg(learning_rate=0.005)
        new_model, state = model.clone(), init_adam_state(model)
        adam_step(new_model, np.ones_like(model.theta), state, cfg)
        expected = -0.005 / (1.0 + 1e-8)
        for (k, p0), (_, p1) in zip(named_parameters(model), named_parameters(new_model)):
            np.testing.assert_allclose(p1 - p0, expected, rtol=0, atol=1e-12)
        assert state.step == 1

    def test_zero_gradient_keeps_parameters(self):
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        new_model, state = model.clone(), init_adam_state(model)
        adam_step(new_model, np.zeros_like(model.theta), state, small_cfg())
        for (k, p0), (_, p1) in zip(named_parameters(model), named_parameters(new_model)):
            np.testing.assert_array_equal(p0, p1)
        assert state.step == 1

    def test_state_round_trip(self, rng):
        """Two successive calls from saved state equal one two-step run."""
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        cfg = small_cfg()
        g1 = rng.standard_normal(model.theta.size)
        g2 = rng.standard_normal(model.theta.size)
        m_a, s_a = model.clone(), init_adam_state(model)
        adam_step(m_a, g1, s_a, cfg)
        adam_step(m_a, g2, s_a, cfg)

        m_b, s_b = model.clone(), init_adam_state(model)
        adam_step(m_b, g1, s_b, cfg)
        adam_step(m_b, g2, s_b, cfg)
        for (_, pa), (_, pb) in zip(named_parameters(m_a), named_parameters(m_b)):
            np.testing.assert_array_equal(pa, pb)
        assert s_a.step == s_b.step == 2

    @pytest.mark.parametrize("shape", ["short", "long", "2-D"])
    def test_wrong_gradient_length_rejected(self, shape):
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        n = model.theta.size
        grad = {"short": np.ones(n - 1), "long": np.ones(n + 1), "2-D": np.ones((1, n))}[shape]
        with pytest.raises(ValueError, match="gradient"):
            adam_step(model, grad, init_adam_state(model), small_cfg())

    def test_updates_model_and_state_in_place(self, rng):
        """Over several steps, ``theta``, m and v advance bit for bit as the
        functional reference update, in the arrays the caller holds, and the
        gradient is only read."""
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        cfg = small_cfg()
        theta, state = model.theta, init_adam_state(model)
        m, v = state.m, state.v
        want_model, want = model.clone(), init_adam_state(model)
        for _ in range(4):
            grad = rng.standard_normal(model.theta.size)
            kept = grad.copy()
            assert adam_step(model, grad, state, cfg) is None
            want_model, want = train_reference.adam_step(want_model, kept, want, cfg)
            np.testing.assert_array_equal(grad, kept)
            assert model.theta is theta and state.m is m and state.v is v
            np.testing.assert_array_equal(model.theta, want_model.theta)
            np.testing.assert_array_equal(state.m, want.m)
            np.testing.assert_array_equal(state.v, want.v)
            assert state.step == want.step


def easy_task():
    """Linearly separable training data: the observation is variable 1."""
    spec = SynthSpec(n_stations=1, n_cycles=300, n_leads=1, n_variables=2,
                     seed=5, hidden=(0,), g_name="linear", sigma_noise=0.0)
    fcst, obs, _ = generate(spec)
    return fcst, obs


class TestPooledNorm:
    def test_missing_and_single_sample_variables(self):
        """v1 has no sample, v2 eight and v3 one; station S01 is not pooled."""
        values = np.full((2, 3, 4, 2), np.nan)
        values[0, 1] = np.arange(1.0, 9.0).reshape(4, 2)
        values[0, 2, 1, 0] = 3.0
        values[1] = 100.0
        mean, sigma = _pooled_norm(make_forecasts(values), [0], np.arange(4))
        np.testing.assert_array_equal(mean, [0.0, 4.5, 3.0])
        np.testing.assert_array_equal(sigma, [0.0, np.std(np.arange(1.0, 9.0)), 0.0])


class TestTrain:
    def test_zero_iterations_returns_initialized_model(self):
        fcst, obs = easy_task()
        cfg = small_cfg(max_iterations=0, k_pos=3, seed=9)
        m1, log1 = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        m2, log2 = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        assert m1.iterations == 0
        assert len(log1) == 1  # the iteration-0 evaluation
        for (_, p1), (_, p2) in zip(named_parameters(m1), named_parameters(m2)):
            np.testing.assert_array_equal(p1, p2)

    def test_batch_too_large_to_allocate(self):
        """The batch buffer is allocated once, before sampling, only when
        there are iterations to run: numpy refuses 10**15 triplets at once,
        and 0 iterations need no batch."""
        fcst, obs = easy_task()
        cfg = small_cfg(max_iterations=1, k_pos=3, batch_size=10**15)
        with pytest.raises(ConfigError, match="batch_size=1000000000000000 gives a batch too "
                                              "large to allocate"):
            train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        model, log = train(fcst, obs, ["S00"], [0], np.arange(300), replace(cfg, max_iterations=0))
        assert model.iterations == 0 and len(log) == 1

    def test_step_too_large_to_allocate(self, monkeypatch):
        """The step buffers are allocated with the batch buffer, before any
        triplet is sampled, and a failure names both settings."""
        fcst, obs = easy_task()
        calls = []

        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(training, "StepBuffers", refuse)
        for name in ("plan_sampling", "sample_triplets"):
            monkeypatch.setattr(training, name, lambda *a, name=name, **k: calls.append(name))
        cfg = small_cfg(max_iterations=1, k_pos=3, hidden_sizes=(3, 2))
        with pytest.raises(ConfigError) as caught:
            train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        assert str(caught.value) == ("batch_size=4 gives a batch too large to allocate "
                                     "at hidden_sizes=3,2 and t_half=0")
        assert calls == []

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        fcst, obs = easy_task()
        cfg = small_cfg(max_iterations=30, k_pos=3, seed=4, eval_interval=10,
                        batch_size=8, dropout_rate=0.05)
        paths = []
        for run in range(2):
            model, _ = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
            path = tmp_path / f"run{run}.txt"
            save_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_every_update_is_one_adam_step(self, tmp_path, monkeypatch):
        """``train`` updates the model only through the public ``adam_step``,
        once per iteration: a counting wrapper sees ``max_iterations`` calls,
        and the checkpoint and log bytes equal those of an unwrapped run."""
        from analogkit.training import write_train_log

        fcst, obs = easy_task()
        cfg = small_cfg(max_iterations=30, k_pos=3, seed=4, eval_interval=10,
                        early_stop_patience=1000, batch_size=8, dropout_rate=0.05)

        def run(name):
            model, log = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
            save_checkpoint(model, tmp_path / f"{name}.txt")
            write_train_log(log, tmp_path / f"{name}.csv")
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("txt", "csv")]

        plain = run("plain")
        calls = []

        def counting(*args):
            calls.append(None)
            return adam_step(*args)

        monkeypatch.setattr(training, "adam_step", counting)
        assert run("counted") == plain
        assert len(calls) == cfg.max_iterations

    @pytest.mark.parametrize("name", ["v=2", " v2", "v,2"])
    def test_unstorable_variable_name_refused_before_sampling(self, monkeypatch, name):
        """A variable name the checkpoint cannot store ends training before any
        triplet is sampled, as a data error naming it."""
        fcst, obs = easy_task()
        fcst.variables[1] = name
        calls = []
        for step in ("plan_sampling", "sample_triplets"):
            monkeypatch.setattr(training, step, lambda *a, step=step, **k: calls.append(step))
        with pytest.raises(DataError, match=f"variable name {name!r} cannot be stored"):
            train(fcst, obs, ["S00"], [0], np.arange(300), small_cfg(max_iterations=5, k_pos=3))
        assert calls == []

    def test_easy_task_converges(self):
        """Validation hinge loss collapses on the separable task."""
        fcst, obs = easy_task()
        cfg = TrainConfig(alpha=1.0, learning_rate=0.005, dropout_rate=0.0,
                          max_iterations=2000, batch_size=16, k_pos=5, seed=2, t_half=0,
                          early_stop_patience=2000, eval_interval=250,
                          hidden_sizes=(8,), embed_dim=4)
        model, log = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        best = min(r.val_loss for r in log)
        assert best <= 0.1 * log[0].val_loss
        assert best <= log[0].val_loss  # never worse than initialization
        assert model.iterations > 0

    def test_early_stop_without_improvement(self):
        """A learning rate too small for the validation loss to improve by
        0.1% stops training at the first evaluation at or after the patience
        (30 iterations, evaluated every 7: at 35), well before max_iterations.
        The checkpoint is the lowest logged validation loss's, the very model
        a run cut at that row's iteration returns."""
        fcst, obs = easy_task()
        cfg = small_cfg(learning_rate=1e-7, max_iterations=200, eval_interval=7,
                        early_stop_patience=30, k_pos=3, seed=1, batch_size=8)
        model, log = train(fcst, obs, ["S00"], [0], np.arange(300), cfg)
        assert [row.iteration for row in log] == [0, 7, 14, 21, 28, 35]
        assert all(row.val_loss >= log[0].val_loss * (1 - 1e-3) for row in log)
        best = min(log, key=lambda row: row.val_loss)
        assert model.iterations == best.iteration > 0
        cut, _ = train(fcst, obs, ["S00"], [0], np.arange(300),
                       replace(cfg, max_iterations=best.iteration))
        np.testing.assert_array_equal(model.theta, cut.theta)

    def test_no_triplets_is_an_error(self):
        fcst, obs = easy_task()
        with pytest.raises(DataError):
            train(fcst, obs, ["S00"], [0], np.arange(300),
                  small_cfg(k_pos=400, max_iterations=5))

    def test_log_is_written(self, tmp_path):
        from analogkit.training import TrainLogRow, write_train_log

        rows = [TrainLogRow(0, 1.0, 2.0), TrainLogRow(10, 0.5, 0.25)]
        path = tmp_path / "log.csv"
        write_train_log(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,train_loss,val_loss"
        assert len(lines) == 3


@pytest.mark.parametrize("build,message", [
    (lambda: TrainConfig(dropout_rate=1), "dropout_rate must be in [0, 1)"),
    (lambda: TrainConfig(max_iterations=-1), "max_iterations must be nonnegative"),
    (lambda: TrainConfig(batch_size=0), "batch_size must be positive"),
    (lambda: Triplets(windows=np.zeros((3, 1, 1)), origins=np.zeros((3, 3), dtype=int),
                      index=np.array([[0, 1, 2], [0, 2, 1]]), obs_gap=np.array([0.5, -0.5])),
     "obs_gap must be positive, got -0.5"),
], ids=["dropout_rate_one", "negative_max_iterations", "zero_batch_size", "obs_gap"])
def test_training_guards(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
