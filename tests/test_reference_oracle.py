"""The batched LSTM kernel against the per-sequence reference in
``lstm_reference``: forward, embed_block, evaluate_loss and backward agree
to 1e-12 on random models of 1-3 layers and sequence lengths 1-5, with and
without dropout, and training draws its dropout masks from the same
random stream. The flat ADAM update equals the per-name reference bit for
bit."""

import numpy as np
import pytest

import lstm_reference as ref
from analogkit.archive import ForecastWindow
from analogkit.network import embed_block, forward, init_model, named_parameters
from analogkit.training import TrainConfig, adam_step, backward, evaluate_loss, init_adam_state

from conftest import make_forecasts

TOL = 1e-12
CASES = [(n_layers, t_half) for n_layers in (1, 2, 3) for t_half in (0, 1, 2)]


def random_model(rng, n_layers, t_half, n_var=3):
    return init_model(
        [f"v{i}" for i in range(n_var)],
        t_half=t_half,
        hidden_sizes=tuple(int(h) for h in rng.integers(2, 7, size=n_layers)),
        embed_dim=int(rng.integers(2, 5)),
        seed=int(rng.integers(1000)),
        norm_mean=rng.standard_normal(n_var),
        norm_sigma=rng.random(n_var) + 0.5,
    )


def random_batch(rng, model, n):
    """n triplets drawn anchor, positive, negative in turn, as backward's
    rows: the anchors, then the positives, then the negatives."""
    def window():
        return 2 * rng.standard_normal((model.n_variables, 2 * model.t_half + 1))

    triplets = [(window(), window(), window()) for _ in range(n)]
    return np.stack([t[role] for role in range(3) for t in triplets])


@pytest.mark.parametrize("n_layers,t_half", CASES)
def test_forward_matches_reference(rng, n_layers, t_half):
    model = random_model(rng, n_layers, t_half)
    for data in random_batch(rng, model, 4)[:4]:  # the anchors
        w = ForecastWindow(data, (0, 0, 0))
        np.testing.assert_allclose(forward(model, w), ref.embed(model, w.data), rtol=0, atol=TOL)


@pytest.mark.parametrize("n_layers,t_half", CASES)
def test_embed_block_matches_reference(rng, n_layers, t_half):
    """300 cycles with missing cells: more rows than one inference chunk."""
    n_cycles, n_leads = 300, 2 * t_half + 2
    values = rng.standard_normal((1, 3, n_cycles, n_leads))
    values[0, 1, rng.integers(n_cycles, size=20), t_half] = np.nan
    fcst = make_forecasts(values)
    model = random_model(rng, n_layers, t_half)
    model.variables = list(fcst.variables)
    block = embed_block(model, fcst, 0, t_half, np.arange(n_cycles))
    assert 250 < block.available.sum() < n_cycles
    for i, c in enumerate(block.cycles):
        if block.available[i]:
            want = ref.embed(model, values[0, :, c, 0 : 2 * t_half + 1])
            np.testing.assert_allclose(block.vectors[i], want, rtol=0, atol=TOL)
        else:
            assert not block.vectors[i].any()


@pytest.mark.parametrize("n_layers,t_half", CASES)
def test_evaluate_loss_matches_reference(rng, n_layers, t_half):
    model = random_model(rng, n_layers, t_half)
    batch = random_batch(rng, model, 7)
    for alpha in (0.0, 0.5, 5.0):
        assert abs(evaluate_loss(model, batch, alpha) - ref.evaluate_loss(model, batch, alpha)) <= TOL


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
@pytest.mark.parametrize("n_layers,t_half", CASES)
def test_backward_matches_reference(rng, n_layers, t_half, dropout_rate):
    """Loss, every gradient array and the generator state after the call."""
    model = random_model(rng, n_layers, t_half)
    batch = random_batch(rng, model, 6)
    cfg = TrainConfig(alpha=0.01, dropout_rate=dropout_rate, t_half=t_half,
                      hidden_sizes=model.hidden_sizes, embed_dim=model.embed_dim)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    grad, loss = backward(model, batch, cfg, rng_new)
    grads = dict(named_parameters(model, grad))
    want_grads, want_loss = ref.backward(model, batch, cfg, rng_ref)
    assert 0 < want_loss and abs(loss - want_loss) <= TOL
    assert grads.keys() == want_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=TOL, err_msg=name)
    assert rng_new.random() == rng_ref.random()


@pytest.mark.parametrize("n_layers", [1, 3])
def test_adam_step_matches_reference(rng, n_layers):
    """Parameters, m and v after each of 5 steps with random gradients of
    mixed magnitude (some far below epsilon) are bit-identical."""
    model = random_model(rng, n_layers, 1)
    cfg = TrainConfig(learning_rate=0.01, t_half=1, hidden_sizes=model.hidden_sizes,
                      embed_dim=model.embed_dim)
    flat, state = model.clone(), init_adam_state(model)
    named, want = model, ref.init_adam_state(model)

    def packed(arrays):
        return np.concatenate([arrays[name].ravel() for name, _ in named_parameters(model)])

    for _ in range(5):
        grad = rng.standard_normal(model.theta.size) * 10.0 ** rng.integers(-12, 3, model.theta.size)
        adam_step(flat, grad, state, cfg)
        named, want = ref.adam_step(named, dict(named_parameters(model, grad)), want, cfg)
        np.testing.assert_array_equal(flat.theta, named.theta)
        np.testing.assert_array_equal(state.m, packed(want.m))
        np.testing.assert_array_equal(state.v, packed(want.v))
        assert state.step == want.step
    assert not np.array_equal(flat.theta, model.theta)
