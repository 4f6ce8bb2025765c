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
"""

from __future__ import annotations

import numpy as np

from analogkit import training
from analogkit.errors import DataError, DivergenceError
from analogkit.network import backprop_stack, init_model, run_stack, save_checkpoint
from analogkit.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    EARLY_STOP_MIN_IMPROVEMENT,
    VAL_FRACTION,
    AdamState,
    TrainLogRow,
    Triplets,
    evaluate_loss,
    init_adam_state,
)


def draw_masks(model, n, rate, rng):
    """One [n, sum(hidden)] draw, split per layer and tiled over the roles."""
    if rate <= 0:
        return None
    kept = (rng.random((n, sum(model.hidden_sizes))) >= rate) / (1.0 - rate)
    bounds = np.cumsum(model.hidden_sizes)[:-1]
    return [np.tile(m, (3, 1)) for m in np.split(kept, bounds, axis=1)]


def hinges(e_a, e_p, e_n, alpha):
    return np.linalg.norm(e_a - e_p, axis=1) - np.linalg.norm(e_a - e_n, axis=1) + alpha


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
