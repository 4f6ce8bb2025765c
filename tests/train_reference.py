"""Reference training loop: the functional ``train`` that the plan-reusing,
in-place loop in ``training.train`` replaced.

It is kept as the oracle that loop must match byte for byte: checkpoint,
training log, and on divergence the saved checkpoint and the reported
iteration. Every pool is sampled from scratch, one fresh one-lead plan per
lead, and the leads' triplets are joined by copying their rows
(``concat``), where ``training.train`` draws every pool from one plan over
all leads that it makes once. Every ADAM step clones the model
and returns fresh moments, and the BPTT step splits the embeddings with
``np.split``, tiles each layer's dropout mask over the three roles and
computes the hinge and the unit vectors from separate norms.

The BPTT kernel itself is frozen here too, as it was before training bound
its step buffers once per run: ``run_stack`` standardizes into a new array
and builds a new tape per pass, and ``backprop_stack`` builds its gradient
arrays per call. ``training.backward`` must match ``backward`` below bit for
bit on any bound buffer set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from analogkit import training
from analogkit.errors import DataError, DivergenceError
from analogkit.network import LstmLayerParams, ModelCheckpoint, init_model, save_checkpoint
from analogkit.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    EARLY_STOP_MIN_IMPROVEMENT,
    VAL_FRACTION,
    AdamState,
    TrainLogRow,
    Triplets,
    init_adam_state,
)


def standardize(model: ModelCheckpoint, data: np.ndarray) -> np.ndarray:
    """Per-variable (x - mean) / sigma over [..., n_variables, T]; variables
    with sigma 0 map to 0."""
    safe = np.where(model.norm_sigma > 0, model.norm_sigma, 1.0)
    z = (data - model.norm_mean[:, None]) / safe[:, None]
    z[..., model.norm_sigma <= 0, :] = 0.0
    return z


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _cell(layer: LstmLayerParams, z: np.ndarray, c_prev: np.ndarray, gates=None):
    if gates is None:
        gates = np.empty((4,) + c_prev.shape)
    weights = (layer.w_u, layer.w_f, layer.w_o, layer.w_c)
    for pre, w, b in zip(gates, weights, (layer.b_u, layer.b_f, layer.b_o, layer.b_c)):
        np.add(z @ w.T, b, out=pre)
    _sigmoid(gates[:3], out=gates[:3])
    np.tanh(gates[3], out=gates[3])
    g_u, g_f, g_o, c_tilde = gates
    c = g_u * c_tilde + g_f * c_prev
    return gates, c, g_o * np.tanh(c)


@dataclass
class LayerTape:
    z: np.ndarray  # [T, B, hidden + input]: cell input [a_prev; x]
    gates: np.ndarray  # [4, T, B, hidden]: g_u, g_f, g_o, c_tilde
    c: np.ndarray  # [T + 1, B, hidden]; c[0] is the zero initial state
    a: np.ndarray  # [T + 1, B, hidden]; a[0] is the zero initial state
    mask: np.ndarray | None  # [B, hidden] dropout on the output, scaled by 1/keep

    def output(self) -> np.ndarray:
        return self.a[1:] if self.mask is None else self.a[1:] * self.mask


def run_stack(model, windows, masks=None):
    """Embeddings [B, embed_dim] of raw windows [B, n_variables, T], with the tape."""
    x = standardize(model, windows).transpose(2, 0, 1)  # [T, B, n_variables]
    T, B = x.shape[:2]
    tape = []
    for k, layer in enumerate(model.layers):
        h = layer.hidden_size
        lt = LayerTape(
            z=np.empty((T, B, h + layer.input_size)),
            gates=np.empty((4, T, B, h)),
            c=np.zeros((T + 1, B, h)),
            a=np.zeros((T + 1, B, h)),
            mask=None if masks is None else masks[k],
        )
        for t in range(T):
            lt.z[t, :, :h] = lt.a[t]
            lt.z[t, :, h:] = x[t]
            _, lt.c[t + 1], lt.a[t + 1] = _cell(layer, lt.z[t], lt.c[t], lt.gates[:, t])
        tape.append(lt)
        x = lt.output()
    return x[-1] @ model.head_w.T + model.head_b, tape


def backprop_stack(model, tape, d_embeddings, grad):
    """Accumulate gradients of sum(d_embeddings * embeddings) into ``grad``'s parameters."""
    grad.head_w += d_embeddings.T @ tape[-1].output()[-1]
    grad.head_b += d_embeddings.sum(axis=0)
    d_out = np.zeros_like(tape[-1].a[1:])
    d_out[-1] = d_embeddings @ model.head_w
    for k in range(len(model.layers) - 1, -1, -1):
        layer, lt, g = model.layers[k], tape[k], grad.layers[k]
        h = layer.hidden_size
        d_above = d_out if lt.mask is None else d_out * lt.mask
        d_gates = np.empty_like(lt.gates)
        d_out = np.empty(lt.z.shape[:2] + (layer.input_size,))
        da_rec = np.zeros_like(d_above[0])
        dc_next = np.zeros_like(d_above[0])
        for t in range(len(d_above) - 1, -1, -1):
            gu, gf, go, ct = lt.gates[:, t]
            da = d_above[t] + da_rec
            tc = np.tanh(lt.c[t + 1])
            dz_o = da * tc * go * (1.0 - go)
            dc = da * go * (1.0 - tc * tc) + dc_next
            dz_u = dc * ct * gu * (1.0 - gu)
            dz_c = dc * gu * (1.0 - ct * ct)
            dz_f = dc * lt.c[t] * gf * (1.0 - gf)
            dc_next = dc * gf
            d_gates[:, t] = dz_u, dz_f, dz_o, dz_c
            if k or t:
                dz = dz_u @ layer.w_u + dz_f @ layer.w_f + dz_o @ layer.w_o + dz_c @ layer.w_c
                da_rec = dz[:, :h]
                d_out[t] = dz[:, h:]
        d_w = d_gates.reshape(4, -1, h).transpose(0, 2, 1) @ lt.z.reshape(-1, lt.z.shape[-1])
        d_b = d_gates.sum(axis=(1, 2))
        for i, (w, b) in enumerate(zip((g.w_u, g.w_f, g.w_o, g.w_c), (g.b_u, g.b_f, g.b_o, g.b_c))):
            w += d_w[i]
            b += d_b[i]


def draw_masks(model, n, rate, rng):
    """One [n, sum(hidden)] draw, split per layer and tiled over the roles."""
    if rate <= 0:
        return None
    kept = (rng.random((n, sum(model.hidden_sizes))) >= rate) / (1.0 - rate)
    bounds = np.cumsum(model.hidden_sizes)[:-1]
    return [np.tile(m, (3, 1)) for m in np.split(kept, bounds, axis=1)]


def hinges(e_a, e_p, e_n, alpha):
    return np.linalg.norm(e_a - e_p, axis=1) - np.linalg.norm(e_a - e_n, axis=1) + alpha


def evaluate_loss(model, rows, alpha):
    """Mean hinge loss without dropout, embedding 256 rows at a time."""
    emb = np.concatenate([run_stack(model, rows[i : i + 256])[0] for i in range(0, len(rows), 256)])
    return float(np.sum(np.maximum(hinges(*np.split(emb, 3), alpha), 0.0))) / (len(rows) // 3)


def unit(diff):
    norm = np.linalg.norm(diff, axis=1, keepdims=True)
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm > 0)


def backward(model, rows, cfg, rng):
    n = len(rows) // 3
    inv_n = 1.0 / n
    masks = draw_masks(model, n, cfg.dropout_rate, rng)
    embeddings, tape = run_stack(model, rows, masks)
    e_a, e_p, e_n = np.split(embeddings, 3)
    hinge = hinges(e_a, e_p, e_n, cfg.alpha)
    active = ~(hinge <= 0)
    loss = float(np.sum(hinge[active])) * inv_n
    u_ap = unit(e_a - e_p) * active[:, None]
    u_an = unit(e_a - e_n) * active[:, None]
    grad = model.clone()
    grad.theta[...] = 0.0
    backprop_stack(model, tape, np.concatenate([u_ap - u_an, -u_ap, u_an]) * inv_n, grad)
    if not np.isfinite(loss) or not np.isfinite(grad.theta).all():
        raise DivergenceError(iteration=-1)
    return grad.theta, loss


def adam_step(model, grad, state, cfg):
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_model = model.clone()
    new_model.theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return new_model, AdamState(m=m, v=v, step=t)


def concat(parts):
    """One set holding every part's rows and triplets, in order: the window
    and origin rows copied, the index shifted."""
    offsets = np.cumsum([0] + [len(p.windows) for p in parts[:-1]])
    return Triplets(
        np.concatenate([p.windows for p in parts]),
        np.concatenate([p.origins for p in parts]),
        np.concatenate([p.index + off for p, off in zip(parts, offsets)]),
        np.concatenate([p.obs_gap for p in parts]),
    )


@np.errstate(over="ignore", invalid="ignore")
def train(fcst, obs, stations, leads, cycles, cfg, on_divergence_save=None):
    cycles = np.unique(np.asarray(cycles, dtype=int))
    if cycles.size < 2:
        raise DataError("training needs at least two cycles")
    rng = np.random.default_rng(cfg.seed)
    norm_mean, norm_sigma = training._pooled_norm(
        fcst, [fcst.station_index(st) for st in stations], cycles)
    model = init_model(variables=list(fcst.variables), t_half=cfg.t_half,
                       hidden_sizes=cfg.hidden_sizes, embed_dim=cfg.embed_dim, seed=cfg.seed,
                       norm_mean=norm_mean, norm_sigma=norm_sigma)
    n_val = max(1, int(round(VAL_FRACTION * cycles.size)))
    train_cycles, val_cycles = cycles[:-n_val], cycles[-n_val:]

    def sample_pool(pool_cycles, anchor_cycles=None):
        return concat([
            training.sample_triplets(training.plan_sampling(
                fcst, obs, stations, [lead], pool_cycles, cfg, anchor_cycles), rng)
            for lead in leads
        ])

    if not leads:
        raise DataError("no training triplets could be sampled")
    val_triplets = sample_pool(cycles, val_cycles)
    pool = sample_pool(train_cycles)
    if not pool:
        raise DataError("no training triplets could be sampled")
    if not val_triplets:
        raise DataError("no validation triplets could be sampled")
    val_rows = val_triplets.rows()
    order = rng.permutation(len(pool))
    cursor = 0

    def next_batch():
        nonlocal pool, order, cursor
        parts, need = [], cfg.batch_size
        while need:
            if cursor >= len(order):
                pool = sample_pool(train_cycles)
                if not pool:
                    raise DataError("triplet pool dried up during training")
                order = rng.permutation(len(pool))
                cursor = 0
            take = order[cursor : cursor + need]
            parts.append(pool.roles(take))
            cursor += len(take)
            need -= len(take)
        batch = np.concatenate(parts, axis=1)
        return batch.reshape(-1, *batch.shape[2:])

    adam = init_adam_state(model)
    log = []
    init_train_loss = evaluate_loss(model, pool.rows(slice(cfg.batch_size)), cfg.alpha)
    best_val = evaluate_loss(model, val_rows, cfg.alpha)
    best_model = model.clone()
    last_improved = 0
    log.append(TrainLogRow(0, init_train_loss, best_val))
    interval_losses = []
    iteration = 0
    try:
        while iteration < cfg.max_iterations:
            iteration += 1
            grad, loss = backward(model, next_batch(), cfg, rng)
            model, adam = adam_step(model, grad, adam, cfg)
            interval_losses.append(loss)
            if iteration % cfg.eval_interval == 0 or iteration == cfg.max_iterations:
                val_loss = evaluate_loss(model, val_rows, cfg.alpha)
                if not np.isfinite(val_loss):
                    raise DivergenceError(iteration=iteration)
                log.append(TrainLogRow(iteration, float(np.mean(interval_losses)), val_loss))
                interval_losses = []
                if val_loss < best_val * (1.0 - EARLY_STOP_MIN_IMPROVEMENT):
                    last_improved = iteration
                if val_loss < best_val:
                    best_val = val_loss
                    best_model = model.clone()
                    best_model.iterations = iteration
                if iteration - last_improved >= cfg.early_stop_patience:
                    break
    except DivergenceError as err:
        if on_divergence_save is not None:
            save_checkpoint(best_model, on_divergence_save)
        raise DivergenceError(
            iteration=err.iteration if err.iteration >= 0 else iteration,
            checkpoint_path=on_divergence_save,
        ) from None
    return best_model, log
