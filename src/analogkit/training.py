"""Metric learning on reverse-analog triplets.

Triplets are labeled from observations rather than forecasts: for an anchor
forecast, the positive is drawn from the historical forecasts whose paired
observations are closest to the anchor's observation, and the negative from
the rest. The embedding network is then trained so that anchor-positive
embedding distances undercut anchor-negative distances by a margin, using
a hinged triplet loss, backpropagation through time, and ADAM updates.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .archive import ForecastArchive, ForecastWindow, ObservationArchive, format_float, window_block
from .ensemble import rank_positions
from .errors import DataError, DivergenceError
from .network import (
    ModelCheckpoint,
    backprop_stack,
    embed_windows,
    init_model,
    named_parameters,
    run_stack,
    save_checkpoint,
    zero_gradients,
)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for triplet training."""

    alpha: float = 1.0  # hinge margin
    learning_rate: float = 0.005
    dropout_rate: float = 0.015
    max_iterations: int = 200_000
    batch_size: int = 32
    k_pos: int = 11
    seed: int = 0
    t_half: int = 1  # window half-width used for triplet windows
    early_stop_patience: int = 2_000  # iterations without improvement
    early_stop_min_improvement: float = 1e-3  # relative
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    eval_interval: int = 200
    val_fraction: float = 0.10
    hidden_sizes: tuple[int, ...] = (20, 20, 20)
    embed_dim: int = 20

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.k_pos < 1:
            raise ValueError("k_pos must be >= 1")
        if self.t_half < 0:
            raise ValueError("t_half must be nonnegative")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be one or more positive sizes")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.adam_epsilon > 0:
            raise ValueError("adam_epsilon must be positive")


@dataclass(frozen=True)
class Triplet:
    """Anchor/positive/negative windows with the observation-space gap."""

    anchor: ForecastWindow
    positive: ForecastWindow
    negative: ForecastWindow
    obs_gap: float  # |O_a - O_n| - |O_a - O_p|, strictly positive

    def __post_init__(self):
        if not self.obs_gap > 0:
            raise ValueError(f"obs_gap must be positive, got {self.obs_gap}")


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the model parameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(model: ModelCheckpoint) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(p) for name, p in named_parameters(model)},
        v={name: np.zeros_like(p) for name, p in named_parameters(model)},
        step=0,
    )


@dataclass
class SamplingStats:
    """Bookkeeping from one sampling sweep."""

    anchors_seen: int = 0
    anchors_skipped: int = 0


def sample_triplets(
    fcst: ForecastArchive,
    obs: ObservationArchive,
    stations: list[str],
    lead: int,
    cycles,
    cfg: TrainConfig,
    rng: np.random.Generator,
    anchor_cycles=None,
    stats: SamplingStats | None = None,
) -> list[Triplet]:
    """One triplet per eligible anchor at (station, lead) over a cycle range.

    For each anchor cycle with a complete window and a non-missing
    observation, all other eligible cycles are ordered by the absolute
    difference between their observation and the anchor's, ties going to
    the earlier cycle. The positive is chosen by roulette over the
    ``k_pos`` closest with fitness 1/rank, the negative uniformly over the
    places beyond ``k_pos`` (restricted to strictly larger observation
    distances, so the gap is always positive). Neither needs the full
    order: the positives come from :func:`~analogkit.ensemble.rank_positions`
    and the negative's place from one partition, so each anchor costs time
    linear in the candidates. Anchors with fewer than ``k_pos + 1``
    candidates are skipped and counted. Consumes ``rng`` deterministically.

    ``anchor_cycles`` restricts which cycles may anchor a triplet; the
    candidate pool always spans the full range.
    """
    cycles = np.asarray(sorted(set(int(c) for c in np.asarray(cycles, dtype=int))), dtype=int)
    if stats is None:
        stats = SamplingStats()
    k = cfg.k_pos
    fitness = 1.0 / np.arange(1, k + 1)
    edges = np.cumsum(fitness / fitness.sum()).tolist()  # roulette over the k nearest
    triplets: list[Triplet] = []
    for station in stations:
        s = fcst.station_index(station)
        try:
            o = obs.station_index(station)
        except KeyError:
            continue
        data, avail = window_block(fcst, s, lead, cycles, cfg.t_half)
        times = fcst.cycles[cycles] + int(fcst.leads[lead])
        obs_vals = obs.values_at(o, times)
        elig_pos = np.nonzero(avail & np.isfinite(obs_vals))[0]
        elig_obs = obs_vals[elig_pos]
        if anchor_cycles is None:
            anchors = range(elig_pos.size)
        else:
            wanted = np.asarray(anchor_cycles, dtype=int)
            anchors = np.nonzero(np.isin(cycles[elig_pos], wanted))[0].tolist()
        stats.anchors_seen += len(anchors)
        n_cand = elig_pos.size - 1  # every eligible cycle but the anchor
        if n_cand < k + 1:
            stats.anchors_skipped += len(anchors)
            continue
        # One window per eligible cycle, shared by every triplet that uses it.
        windows = [
            ForecastWindow(data=data[r].copy(), origin=(s, c, lead))
            for r, c in zip(elig_pos, cycles[elig_pos].tolist())
        ]
        others = np.ones(elig_pos.size, dtype=bool)
        for a in anchors:
            dists = np.abs(elig_obs - elig_obs[a])  # the anchor's own entry is 0
            others[a] = False
            top = rank_positions(dists, others, k)
            others[a] = True
            pos = top[min(bisect_right(edges, rng.random() * edges[-1]), k - 1)]
            pos_dist = dists[pos]
            # Place of the first allowed negative in the candidates' (distance,
            # cycle) order; the count includes the anchor, hence the - 1.
            first = max(k, int(np.count_nonzero(dists <= pos_dist)) - 1)
            if first == n_cand:
                stats.anchors_skipped += 1
                continue
            # The anchor (distance 0) precedes every negative, hence the + 1.
            neg = _nth_smallest(dists, first + int(rng.integers(n_cand - first)) + 1)
            triplets.append(
                Triplet(windows[a], windows[pos], windows[neg], float(dists[neg] - pos_dist))
            )
    return triplets


def _nth_smallest(values: np.ndarray, n: int) -> int:
    """Position of entry ``n`` of ``values`` in ascending order, ties going
    to the earlier position, found without sorting."""
    part = values.copy()
    part.partition(n)
    kth = part[n]
    return int((values == kth).nonzero()[0][n - np.count_nonzero(values < kth)])


def triplet_loss(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, alpha: float) -> float:
    """Hinged triplet loss max(0, ||e_a - e_p|| - ||e_a - e_n|| + alpha)."""
    if e_a.shape != e_p.shape or e_a.shape != e_n.shape:
        raise ValueError("embedding dimensions must agree")
    d_ap = float(np.linalg.norm(e_a - e_p))
    d_an = float(np.linalg.norm(e_a - e_n))
    return max(0.0, d_ap - d_an + alpha)


def _triplet_rows(batch: list[Triplet]) -> np.ndarray:
    """Raw windows of a batch as 3B rows: anchors, then positives, then negatives."""
    return np.stack(
        [t.anchor.data for t in batch]
        + [t.positive.data for t in batch]
        + [t.negative.data for t in batch]
    )


def _draw_masks(model: ModelCheckpoint, n: int, rate: float, rng: np.random.Generator):
    """Per-triplet dropout masks for every layer's output (inter-layer plus
    pre-head), scaled by 1/keep and repeated on the triplet's three rows:
    [3n, hidden_k] per layer.

    One [n, sum(hidden)] draw consumes ``rng`` exactly like n successive
    per-triplet, per-layer draws.
    """
    if rate <= 0:
        return None
    kept = (rng.random((n, sum(model.hidden_sizes))) >= rate) / (1.0 - rate)
    bounds = np.cumsum(model.hidden_sizes)[:-1]
    return [np.tile(m, (3, 1)) for m in np.split(kept, bounds, axis=1)]


def _hinges(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row hinge arguments ||e_a - e_p|| - ||e_a - e_n|| + alpha."""
    return np.linalg.norm(e_a - e_p, axis=1) - np.linalg.norm(e_a - e_n, axis=1) + alpha


def _unit(diff: np.ndarray) -> np.ndarray:
    """Rows of diff scaled to unit length; zero rows stay zero."""
    norm = np.linalg.norm(diff, axis=1, keepdims=True)
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm > 0)


def backward(
    model: ModelCheckpoint,
    batch: list[Triplet],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[dict[str, np.ndarray], float]:
    """Mean hinge loss over a batch and its exact parameter gradients.

    The three passes of each triplet share the model parameters and, when
    dropout is active, the same per-triplet masks. Triplets whose hinge is
    zero contribute zero gradient. Raises :class:`DivergenceError` when any
    loss or gradient comes out non-finite.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    inv_n = 1.0 / len(batch)
    masks = _draw_masks(model, len(batch), cfg.dropout_rate, rng)
    embeddings, tape = run_stack(model, _triplet_rows(batch), masks)
    e_a, e_p, e_n = np.split(embeddings, 3)
    hinge = _hinges(e_a, e_p, e_n, cfg.alpha)
    active = ~(hinge <= 0)  # a NaN hinge stays in, so divergence is caught below
    loss = float(np.sum(hinge[active])) * inv_n
    u_ap = _unit(e_a - e_p) * active[:, None]
    u_an = _unit(e_a - e_n) * active[:, None]
    grads = zero_gradients(model)
    backprop_stack(model, tape, np.concatenate([u_ap - u_an, -u_ap, u_an]) * inv_n, grads)
    if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
        raise DivergenceError(iteration=-1)
    return grads, loss


def evaluate_loss(model: ModelCheckpoint, triplets: list[Triplet], alpha: float) -> float:
    """Mean hinge loss without dropout (evaluation mode)."""
    if not triplets:
        raise ValueError("no triplets to evaluate")
    hinge = _hinges(*np.split(embed_windows(model, _triplet_rows(triplets)), 3), alpha)
    return float(np.sum(np.maximum(hinge, 0.0))) / len(triplets)


def adam_step(
    model: ModelCheckpoint,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelCheckpoint, AdamState]:
    """One ADAM update; returns a new model and state, inputs untouched."""
    new_model = model.clone()
    t = state.step + 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    new_m, new_v = {}, {}
    for name, p in named_parameters(new_model):
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_model, AdamState(m=new_m, v=new_v, step=t)


@dataclass
class TrainLogRow:
    iteration: int
    train_loss: float
    val_loss: float


def train(
    fcst: ForecastArchive,
    obs: ObservationArchive,
    stations: list[str],
    leads: list[int],
    cycles,
    cfg: TrainConfig,
    on_divergence_save=None,
) -> tuple[ModelCheckpoint, list[TrainLogRow]]:
    """Train an embedding model on reverse-analog triplets.

    Anchors from the last ``val_fraction`` of the cycle range (by cycle
    time) are held out for validation and never anchor a training triplet.
    The loop samples batches, backpropagates, applies ADAM, and evaluates
    the held-out loss every ``eval_interval`` iterations; it stops at
    ``max_iterations`` or when ``early_stop_patience`` iterations pass
    without relative improvement ``early_stop_min_improvement``. Returns
    the best-validation checkpoint and the evaluation log.
    """
    cycles = np.asarray(sorted(set(int(c) for c in np.asarray(cycles, dtype=int))), dtype=int)
    if cycles.size < 2:
        raise DataError("training needs at least two cycles")
    rng = np.random.default_rng(cfg.seed)

    s_indices = [fcst.station_index(st) for st in stations]
    norm_mean, norm_sigma = _pooled_norm(fcst, s_indices, cycles)
    model = init_model(
        variables=list(fcst.variables),
        t_half=cfg.t_half,
        hidden_sizes=cfg.hidden_sizes,
        embed_dim=cfg.embed_dim,
        seed=cfg.seed,
        norm_mean=norm_mean,
        norm_sigma=norm_sigma,
    )

    n_val = max(1, int(round(cfg.val_fraction * cycles.size)))
    train_cycles = cycles[:-n_val]
    val_cycles = cycles[-n_val:]

    def sample_training_pool():
        pool = []
        for lead in leads:
            pool.extend(sample_triplets(fcst, obs, stations, lead, train_cycles, cfg, rng))
        return pool

    val_triplets = []
    for lead in leads:
        val_triplets.extend(
            sample_triplets(fcst, obs, stations, lead, cycles, cfg, rng, anchor_cycles=val_cycles)
        )
    pool = sample_training_pool()
    if not pool:
        raise DataError("no training triplets could be sampled")
    if not val_triplets:
        raise DataError("no validation triplets could be sampled")

    order = rng.permutation(len(pool))
    cursor = 0

    def next_batch():
        nonlocal pool, order, cursor
        batch = []
        while len(batch) < cfg.batch_size:
            if cursor >= len(order):
                pool = sample_training_pool()
                if not pool:
                    raise DataError("triplet pool dried up during training")
                order = rng.permutation(len(pool))
                cursor = 0
            batch.append(pool[order[cursor]])
            cursor += 1
        return batch

    adam = init_adam_state(model)
    log: list[TrainLogRow] = []
    init_train_loss = evaluate_loss(model, pool[: cfg.batch_size], cfg.alpha)
    best_val = evaluate_loss(model, val_triplets, cfg.alpha)
    best_model = model.clone()
    best_iteration = 0
    last_improved = 0
    log.append(TrainLogRow(0, init_train_loss, best_val))

    interval_losses: list[float] = []
    iteration = 0
    try:
        while iteration < cfg.max_iterations:
            iteration += 1
            batch = next_batch()
            grads, loss = backward(model, batch, cfg, rng)
            model, adam = adam_step(model, grads, adam, cfg)
            interval_losses.append(loss)
            if iteration % cfg.eval_interval == 0 or iteration == cfg.max_iterations:
                val_loss = evaluate_loss(model, val_triplets, cfg.alpha)
                if not np.isfinite(val_loss):
                    raise DivergenceError(iteration=iteration)
                log.append(TrainLogRow(iteration, float(np.mean(interval_losses)), val_loss))
                interval_losses = []
                if val_loss < best_val * (1.0 - cfg.early_stop_min_improvement):
                    last_improved = iteration
                if val_loss < best_val:
                    best_val = val_loss
                    best_model = model.clone()
                    best_iteration = iteration
                if iteration - last_improved >= cfg.early_stop_patience:
                    break
    except DivergenceError as err:
        path = None
        if on_divergence_save is not None:
            best_model.iterations = best_iteration
            save_checkpoint(best_model, on_divergence_save)
            path = on_divergence_save
        raise DivergenceError(
            iteration=err.iteration if err.iteration >= 0 else iteration,
            checkpoint_path=path,
        ) from None

    best_model.iterations = best_iteration
    return best_model, log


def _pooled_norm(fcst, station_indices, cycles):
    """Per-variable mean/sigma pooled over stations, cycles, and leads."""
    block = fcst.values[np.asarray(station_indices)][:, :, cycles, :]
    flat = np.transpose(block, (1, 0, 2, 3)).reshape(fcst.n_variables, -1)
    counts = np.sum(~np.isnan(flat), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(flat, axis=1)
        var = np.nanmean((flat - mean[:, None]) ** 2, axis=1)
    mean = np.where(counts > 0, mean, 0.0)
    sigma = np.sqrt(np.where(counts >= 2, np.where(np.isnan(var), 0.0, var), 0.0))
    return mean, sigma


def write_train_log(log: list[TrainLogRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,train_loss,val_loss\n")
        for row in log:
            fh.write(
                f"{row.iteration},{format_float(row.train_loss)},{format_float(row.val_loss)}\n"
            )
