import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from analogkit.archive import ForecastWindow
from analogkit.errors import DataError, SchemaError
from analogkit.network import (
    EmbeddingBlock,
    LstmLayerParams,
    LstmState,
    ModelCheckpoint,
    _sigmoid,
    embed_block,
    forward,
    init_model,
    load_checkpoint,
    lstm_cell_step,
    named_parameters,
    run_stack,
    save_checkpoint,
)

from conftest import BAD_INDICES, index_archive, make_forecasts


def scalar_layer(value: float) -> LstmLayerParams:
    """1-hidden, 1-input layer with every weight and bias set to one value."""
    w = np.full((1, 2), value)
    b = np.full(1, value)
    return LstmLayerParams(w.copy(), w.copy(), w.copy(), w.copy(),
                           b.copy(), b.copy(), b.copy(), b.copy())


def scalar_cell_oracle(weight: float, x: float, a_prev: float, c_prev: float):
    """Independent scalar recomputation of one cell step."""
    z = weight * a_prev + weight * x + weight
    sig = 1.0 / (1.0 + math.exp(-z))
    c_tilde = math.tanh(z)
    c = sig * c_tilde + sig * c_prev
    a = sig * math.tanh(c)
    return sig, c_tilde, c, a


class TestCellStep:
    def test_zero_parameters_give_half_gates_zero_state(self):
        layer = scalar_layer(0.0)
        state = lstm_cell_step(layer, np.array([3.7]), LstmState(np.zeros(1), np.zeros(1)))
        # sigmoid(0) = 0.5, tanh(0) = 0: candidate 0, so cell and activation stay 0
        assert state.c[0] == 0.0
        assert state.a[0] == 0.0

    def test_scalar_oracle_to_six_decimals(self):
        """Everything 0.1, x=1, zero state: gate 0.549834, candidate 0.197375,
        cell 0.108523, activation 0.0594."""
        layer = scalar_layer(0.1)
        state = lstm_cell_step(layer, np.array([1.0]), LstmState(np.zeros(1), np.zeros(1)))
        sig, c_tilde, c, a = scalar_cell_oracle(0.1, 1.0, 0.0, 0.0)
        assert sig == pytest.approx(0.549834, abs=5e-7)
        assert c_tilde == pytest.approx(0.197375, abs=5e-7)
        assert c == pytest.approx(0.108523, abs=1e-6)
        assert a == pytest.approx(0.0594, abs=5e-5)
        assert state.c[0] == pytest.approx(c, abs=1e-12)
        assert state.a[0] == pytest.approx(a, abs=1e-12)

    def test_saturation_preserves_cell_state(self):
        """Update gate forced ~0 and forget gate ~1 pass c_prev through."""
        w = np.zeros((1, 2))
        layer = LstmLayerParams(
            w_u=w.copy(), w_f=w.copy(), w_o=w.copy(), w_c=w.copy(),
            b_u=np.array([-100.0]), b_f=np.array([100.0]),
            b_o=np.zeros(1), b_c=np.zeros(1),
        )
        c_prev = np.array([0.73])
        state = lstm_cell_step(layer, np.array([0.5]), LstmState(np.zeros(1), c_prev))
        assert abs(state.c[0] - 0.73) < 1e-40

    def test_sigmoid_matches_scipy_expit(self):
        """Relative error at most 1e-15 where the logistic function is at
        least 1e-300, absolute error at most 1e-300 below that, NaN kept,
        and no overflow warning where exp(-x) overflows."""
        from scipy.special import expit

        edges = [0.0, 1e-300, 20.0, 709.8, 745.0, 800.0, 1e308]
        x = np.concatenate([edges, np.negative(edges), np.linspace(-750.0, 750.0, 30001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(x)
            assert np.isnan(_sigmoid(np.array([np.nan])))[0]
        want = expit(x)
        normal = want >= 1e-300
        assert (~normal).any() and normal.any()
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal])
        assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)

    def test_dimension_mismatch(self):
        layer = scalar_layer(0.1)
        with pytest.raises(ValueError):
            lstm_cell_step(layer, np.array([1.0, 2.0]), LstmState(np.zeros(1), np.zeros(1)))
        with pytest.raises(ValueError):
            lstm_cell_step(layer, np.array([1.0]), LstmState(np.zeros(2), np.zeros(2)))


def identity_scalar_model(window_width: int) -> ModelCheckpoint:
    """1 variable, 1 hidden unit, identity head, all LSTM params 0.1."""
    return ModelCheckpoint(
        layers=[scalar_layer(0.1)],
        head_w=np.array([[1.0]]),
        head_b=np.zeros(1),
        norm_mean=np.zeros(1),
        norm_sigma=np.ones(1),
        variables=["x"],
        t_half=(window_width - 1) // 2,
        seed=0,
        iterations=0,
    )


class TestForward:
    def test_zero_network_returns_head_bias(self):
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(4,), embed_dim=3, seed=0)
        for _, p in named_parameters(model):
            p[...] = 0.0
        model.head_b[...] = [1.0, -2.0, 0.5]
        w = ForecastWindow(data=np.random.default_rng(0).standard_normal((2, 3)),
                           origin=(0, 0, 1))
        np.testing.assert_array_equal(forward(model, w), [1.0, -2.0, 0.5])

    def test_deterministic(self, rng):
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(4, 3), embed_dim=2, seed=1)
        w = ForecastWindow(data=rng.standard_normal((2, 3)), origin=(0, 0, 1))
        np.testing.assert_array_equal(forward(model, w), forward(model, w))

    def test_identical_after_standardization(self):
        model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=2,
                           norm_mean=np.array([5.0]), norm_sigma=np.array([2.0]))
        w1 = ForecastWindow(data=np.array([[7.0]]), origin=(0, 0, 0))
        model2 = model.clone()
        model2.norm_mean[...] = [3.0]
        w2 = ForecastWindow(data=np.array([[5.0]]), origin=(0, 0, 0))
        np.testing.assert_array_equal(forward(model, w1), forward(model2, w2))

    def test_sequence_length_one_composes_cell_oracle(self):
        model = identity_scalar_model(window_width=1)
        w = ForecastWindow(data=np.array([[1.0]]), origin=(0, 0, 0))
        _, _, _, a = scalar_cell_oracle(0.1, 1.0, 0.0, 0.0)
        emb = forward(model, w)
        assert emb[0] == pytest.approx(a, abs=1e-12)
        assert emb[0] == pytest.approx(0.0594, abs=5e-5)

    def test_variable_count_mismatch(self, rng):
        model = init_model(["a", "b"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        with pytest.raises(ValueError, match="variables"):
            forward(model, ForecastWindow(data=rng.standard_normal((3, 1)), origin=(0, 0, 0)))

    def test_window_width_mismatch(self, rng):
        model = init_model(["a"], t_half=1, hidden_sizes=(3,), embed_dim=2, seed=0)
        with pytest.raises(ValueError, match="width"):
            forward(model, ForecastWindow(data=rng.standard_normal((1, 1)), origin=(0, 0, 0)))

    def test_zero_sigma_variable_standardizes_to_zero(self):
        model = init_model(["a", "b"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=3,
                           norm_sigma=np.array([1.0, 0.0]))
        w1 = ForecastWindow(data=np.array([[1.0], [999.0]]), origin=(0, 0, 0))
        w2 = ForecastWindow(data=np.array([[1.0], [-999.0]]), origin=(0, 0, 0))
        np.testing.assert_array_equal(forward(model, w1), forward(model, w2))


class TestInvariants:
    def test_gates_bounded_and_activation_below_one(self, rng):
        for trial in range(20):
            n_var = int(rng.integers(1, 4))
            model = init_model(
                [f"v{i}" for i in range(n_var)],
                t_half=int(rng.integers(0, 3)),
                hidden_sizes=tuple(int(h) for h in rng.integers(2, 6, size=rng.integers(1, 3))),
                embed_dim=3,
                seed=trial,
            )
            width = 2 * model.t_half + 1
            w = ForecastWindow(data=3 * rng.standard_normal((n_var, width)), origin=(0, 0, 0))
            for lt in run_stack(model, w.data[None]).layers:
                g_u, g_f, g_o, _ = lt.gates
                for t in range(width):
                    assert np.all(g_u[t] > 0) and np.all(g_u[t] < 1)
                    assert np.all(g_f[t] > 0) and np.all(g_f[t] < 1)
                    assert np.all(g_o[t] > 0) and np.all(g_o[t] < 1)
                    assert np.all(np.abs(lt.a[t + 1]) < 1)

    def test_variable_permutation_equivariance(self, rng):
        """Permuting variables plus the matching model columns is a no-op."""
        n_var = 4
        model = init_model([f"v{i}" for i in range(n_var)], t_half=1,
                           hidden_sizes=(5,), embed_dim=3, seed=9,
                           norm_mean=rng.standard_normal(n_var),
                           norm_sigma=rng.random(n_var) + 0.5)
        perm = np.array([2, 0, 3, 1])
        permuted = model.clone()
        permuted.norm_mean[...] = model.norm_mean[perm]
        permuted.norm_sigma[...] = model.norm_sigma[perm]
        h = model.layers[0].hidden_size
        for g in ("w_u", "w_f", "w_o", "w_c"):
            mat = getattr(model.layers[0], g)
            new = mat.copy()
            new[:, h:] = mat[:, h:][:, perm]
            getattr(permuted.layers[0], g)[...] = new
        permuted.variables = [model.variables[i] for i in perm]
        data = rng.standard_normal((n_var, 3))
        w = ForecastWindow(data=data, origin=(0, 0, 1))
        w_perm = ForecastWindow(data=data[perm], origin=(0, 0, 1))
        np.testing.assert_allclose(forward(model, w), forward(permuted, w_perm), atol=1e-14)


class TestEmbedBlock:
    def test_single_cycle_matches_forward(self, rng):
        values = rng.standard_normal((1, 2, 3, 3))
        fcst = make_forecasts(values)
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,), embed_dim=2, seed=5)
        block = embed_block(model, fcst, 0, 1, [1])
        assert block.available.tolist() == [True]
        w = ForecastWindow(data=values[0, :, 1, 0:3], origin=(0, 1, 1))
        np.testing.assert_array_equal(block.vectors[0], forward(model, w))

    def test_boundary_lead_masked(self, rng):
        fcst = make_forecasts(rng.standard_normal((1, 2, 3, 2)))
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,), embed_dim=2, seed=5)
        block = embed_block(model, fcst, 0, 0, [0, 1, 2])
        assert not block.available.any()

    def test_missing_cell_masked(self, rng):
        values = rng.standard_normal((1, 2, 3, 3))
        values[0, 0, 1, 2] = np.nan
        fcst = make_forecasts(values)
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,), embed_dim=2, seed=5)
        block = embed_block(model, fcst, 0, 1, [0, 1, 2])
        assert block.available.tolist() == [True, False, True]

    def test_empty_range(self, rng):
        fcst = make_forecasts(rng.standard_normal((1, 2, 3, 3)))
        model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,), embed_dim=2, seed=5)
        block = embed_block(model, fcst, 0, 1, [])
        assert block.vectors.shape == (0, 2)

    @pytest.mark.parametrize("where,error,message",
                             [case for case in BAD_INDICES if case[0][3] == 0])
    def test_refuses_indices_outside_the_archive(self, where, error, message):
        station, cycles, lead, _ = where
        fcst = index_archive()[0]
        model = init_model(list(fcst.variables), t_half=0, hidden_sizes=(4,), embed_dim=2, seed=5)
        with pytest.raises(error, match=message):
            embed_block(model, fcst, station, lead, cycles)

    def test_variable_mismatch_rejected(self, rng):
        fcst = make_forecasts(rng.standard_normal((1, 2, 3, 3)))
        model = init_model(["other", "names"], t_half=1, hidden_sizes=(4,), embed_dim=2, seed=5)
        with pytest.raises(DataError, match="variables"):
            embed_block(model, fcst, 0, 1, [0])


class TestCheckpointValidation:
    def test_layer_chaining_enforced(self):
        good = init_model(["a"], t_half=0, hidden_sizes=(3, 4), embed_dim=2, seed=0)
        with pytest.raises(ValueError, match="chain"):
            ModelCheckpoint(
                layers=[good.layers[1], good.layers[1]],
                head_w=good.head_w, head_b=good.head_b,
                norm_mean=good.norm_mean, norm_sigma=good.norm_sigma,
                variables=["a", "b", "c"], t_half=0, seed=0, iterations=0,
            )

    def test_norm_coverage_enforced(self):
        good = init_model(["a", "b"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
        with pytest.raises(ValueError, match="normalization"):
            ModelCheckpoint(
                layers=good.layers, head_w=good.head_w, head_b=good.head_b,
                norm_mean=np.zeros(1), norm_sigma=np.ones(1),
                variables=["a", "b"], t_half=0, seed=0, iterations=0,
            )


class TestParameterVector:
    def model(self):
        return init_model(["a", "b"], t_half=1, hidden_sizes=(4, 3), embed_dim=2, seed=6)

    def test_named_views_alias_theta(self):
        model = self.model()
        named = named_parameters(model)
        np.testing.assert_array_equal(model.theta, np.concatenate([p.ravel() for _, p in named]))
        dict(named)["layer1.w_o"][2, 1] = 7.5
        assert np.count_nonzero(model.theta == 7.5) == 1
        model.theta[:] = np.arange(model.theta.size)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for _, p in named]),
                                      np.arange(model.theta.size))
        assert model.layers[1].w_o is dict(named)["layer1.w_o"]
        assert model.head_b[-1] == model.theta.size - 1

    def test_stacked_gate_views_alias_the_gates(self):
        """A layer's ``w`` and ``b`` stack its four gates' own views, in
        u, f, o, c order, for a model's layers and for a layer built alone."""
        model = self.model()
        model.theta[:] = np.arange(model.theta.size)
        alone = LstmLayerParams(*(np.full((2, 5), float(i)) for i in range(4)),
                                *(np.full(2, 4.0 + i) for i in range(4)))
        for layer in model.layers + [alone]:
            assert layer.w.shape == (4,) + layer.w_u.shape and layer.b.shape == (4, layer.hidden_size)
            for i, gate in enumerate("ufoc"):
                for stacked, own in ((layer.w[i], getattr(layer, f"w_{gate}")),
                                     (layer.b[i], getattr(layer, f"b_{gate}"))):
                    assert own.base is not None and np.shares_memory(stacked, own)
                    np.testing.assert_array_equal(stacked, own)
        assert all(np.shares_memory(layer.w, model.theta) for layer in model.layers)
        np.testing.assert_array_equal(alone.b[:, 0], [4.0, 5.0, 6.0, 7.0])

    def test_views_of_another_vector(self):
        model = self.model()
        vector = np.arange(model.theta.size, dtype=float)
        for (name, p), (other, view) in zip(named_parameters(model), named_parameters(model, vector)):
            assert name == other and view.shape == p.shape
            assert np.shares_memory(view, vector)
        with pytest.raises(ValueError, match="parameter vector"):
            named_parameters(model, vector[1:])

    def test_clone_shares_no_memory(self):
        model = self.model()
        twin = model.clone()
        originals = [model.theta, model.norm_mean, model.norm_sigma]
        for p in [twin.theta, twin.norm_mean, twin.norm_sigma] + [p for _, p in named_parameters(twin)]:
            assert not any(np.shares_memory(p, q) for q in originals)
        twin.theta[:] = 0.0
        assert all(not p.any() for _, p in named_parameters(twin))
        assert all(p.any() for _, p in named_parameters(model))

    def test_theta_writes_round_trip_through_a_checkpoint(self, tmp_path):
        model = self.model()
        model.theta *= -3.0
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_checkpoint(model, p1)
        again = load_checkpoint(p1)
        np.testing.assert_array_equal(again.theta, model.theta)
        save_checkpoint(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpointIO:
    def test_round_trip_exact(self, tmp_path, rng):
        model = init_model(["ghi", "ws", "t2m"], t_half=1, hidden_sizes=(4, 3),
                           embed_dim=5, seed=13,
                           norm_mean=rng.standard_normal(3) / 3.0,
                           norm_sigma=rng.random(3) + 0.1)
        model.iterations = 777
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.variables == model.variables
        assert again.t_half == model.t_half
        assert again.seed == model.seed
        assert again.iterations == 777
        for (n1, p1), (n2, p2) in zip(named_parameters(model), named_parameters(again)):
            assert n1 == n2
            assert np.array_equal(p1, p2)
        np.testing.assert_array_equal(again.norm_mean, model.norm_mean)
        np.testing.assert_array_equal(again.norm_sigma, model.norm_sigma)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(3,), embed_dim=2, seed=3)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _layer(columns=(2, 2, 2, 2), bias_lengths=(1, 1, 1, 1)):
    """A one-unit layer whose gate matrices have ``columns`` columns."""
    return LstmLayerParams(*(np.zeros((1, n)) for n in columns),
                           *(np.zeros(n) for n in bias_lengths))


def _small_model(variables=("v1",)):
    return init_model(list(variables), t_half=0, hidden_sizes=(2,), embed_dim=1)


def _checkpoint_with_t_half(path, value):
    save_checkpoint(_small_model(), path)
    path.write_text(path.read_text().replace("t_half=0\n", f"t_half={value}\n"))
    return load_checkpoint(path)


@pytest.mark.parametrize("build,error,message", [
    (lambda tmp: _layer(columns=(2, 3, 3, 3)), ValueError,
     "gate weight matrices must share one shape"),
    (lambda tmp: _layer(bias_lengths=(1, 1, 1, 2)), ValueError,
     "gate biases must all have length hidden_size"),
    (lambda tmp: _layer(columns=(1, 1, 1, 1)), ValueError,
     "weight matrices must have hidden + input columns"),
    (lambda tmp: LstmState(np.zeros((1, 2)), np.zeros((1, 2))), ValueError,
     "state vectors must be equal-length 1-D arrays"),
    (lambda tmp: LstmState(np.zeros(2), np.zeros(3)), ValueError,
     "state vectors must be equal-length 1-D arrays"),
    (lambda tmp: replace(_small_model(), layers=[]), ValueError,
     "at least one LSTM layer required"),
    (lambda tmp: replace(_small_model(), variables=["v1", "v2"]), ValueError,
     "layer 0 input size 1 != 2 variables"),
    (lambda tmp: replace(_small_model(), head_w=np.zeros((1, 3))), ValueError,
     "head shape does not match top layer hidden size"),
    (lambda tmp: EmbeddingBlock("S00", 0, np.array([1, 2]), np.array([10, 20]), np.zeros((2, 1)),
                                np.ones(2, bool)).position(3), KeyError,
     "cycle index 3 not covered by this block"),
    *[(lambda tmp, name=name: save_checkpoint(_small_model([name]), tmp / "c.txt"), ValueError,
       "cannot be stored in a checkpoint") for name in ("a,b", "a=b", "a\nb", " a", "a ")],
    (lambda tmp: _checkpoint_with_t_half(tmp / "c.txt", -1), SchemaError,
     "metadata value out of range"),
], ids=["gate_shapes", "bias_length", "no_input_columns", "state_2d", "state_unequal",
        "no_layer", "layer0_input_size", "head_shape", "uncovered_cycle", "name_comma",
        "name_equals", "name_newline", "name_leading_space", "name_trailing_space",
        "negative_t_half"])
def test_network_guards(tmp_path, build, error, message):
    with pytest.raises(error) as caught:
        build(tmp_path)
    assert message in str(caught.value)
