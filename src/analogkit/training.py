"""Metric learning on reverse-analog triplets.

Triplets are labeled from observations rather than forecasts: for an anchor
forecast, the positive is drawn from the historical forecasts whose paired
observations are closest to the anchor's observation, and the negative from
the rest. The embedding network is then trained so that anchor-positive
embedding distances undercut anchor-negative distances by a margin, using
a hinged triplet loss, backpropagation through time, and ADAM updates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .archive import (
    ForecastArchive,
    ObservationArchive,
    format_float,
    open_output,
    variable_stats,
    window_block,
)
from .ensemble import rank_positions
from .errors import DataError, DivergenceError
from .network import (
    ModelCheckpoint,
    backprop_stack,
    embed_windows,
    init_model,
    run_stack,
    save_checkpoint,
)


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
EARLY_STOP_MIN_IMPROVEMENT = 1e-3  # relative validation-loss gain that resets patience
VAL_FRACTION = 0.10  # share of the training cycles, the last ones, held out for validation


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for triplet training. Fixed, not settable: ADAM's beta1
    0.9, beta2 0.999 and epsilon 1e-8 (``ADAM_*``), the 10% validation share
    (``VAL_FRACTION``) and the 0.1% early-stop tolerance (``EARLY_STOP_MIN_IMPROVEMENT``)."""

    alpha: float = 1.0  # hinge margin
    learning_rate: float = 0.005
    dropout_rate: float = 0.015
    max_iterations: int = 200_000
    batch_size: int = 32
    k_pos: int = 11
    seed: int = 0
    t_half: int = 1  # window half-width used for triplet windows
    early_stop_patience: int = 2_000  # iterations without improvement
    eval_interval: int = 200
    hidden_sizes: tuple[int, ...] = (20, 20, 20)
    embed_dim: int = 20

    def __post_init__(self):
        # Written as `not <range>` so that NaN fails every check.
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
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
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be one or more positive sizes")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")


@dataclass(frozen=True)
class Triplets:
    """Reverse-analog triplets as indices into one window row per eligible cycle.

    Row ``index[i]`` holds the ``windows`` (and ``origins``) rows of the
    anchor, positive and negative of triplet ``i``, and ``obs_gap[i]`` is
    its ``|O_a - O_n| - |O_a - O_p|``, strictly positive.
    """

    windows: np.ndarray  # float64 [n_rows, n_variables, 2*t_half + 1]
    origins: np.ndarray  # int [n_rows, 3]: (station index, cycle index, lead index)
    index: np.ndarray  # int [n, 3]: anchor, positive and negative rows
    obs_gap: np.ndarray  # float64 [n]

    def __post_init__(self):
        bad = ~(self.obs_gap > 0)
        if bad.any():
            raise ValueError(f"obs_gap must be positive, got {self.obs_gap[bad][0]}")

    def __len__(self) -> int:
        return len(self.index)

    def rows(self, picks=slice(None)) -> np.ndarray:
        """Windows of the picked triplets as 3B rows: anchors, then positives,
        then negatives."""
        return self.roles(picks).reshape(-1, *self.windows.shape[1:])

    def roles(self, picks) -> np.ndarray:
        """Windows of the picked triplets as [3, B, n_variables, width]."""
        return self.windows[self.index[picks].T]

    @staticmethod
    def concat(parts: list[Triplets]) -> Triplets:
        """One set holding every part's rows and triplets, in order."""
        offsets = np.cumsum([0] + [len(p.windows) for p in parts[:-1]])
        return Triplets(
            np.concatenate([p.windows for p in parts]),
            np.concatenate([p.origins for p in parts]),
            np.concatenate([p.index + off for p, off in zip(parts, offsets)]),
            np.concatenate([p.obs_gap for p in parts]),
        )


@dataclass
class AdamState:
    """First/second moment vectors, laid out as the model's ``theta``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam_state(model: ModelCheckpoint) -> AdamState:
    return AdamState(m=np.zeros_like(model.theta), v=np.zeros_like(model.theta), step=0)


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
) -> Triplets:
    """One triplet per eligible anchor at (station, lead) over a cycle range.

    For each anchor cycle with a complete window and a non-missing
    observation, all other eligible cycles are ordered by the absolute
    difference between their observation and the anchor's, ties going to
    the earlier cycle. The positive is chosen by roulette over the
    ``k_pos`` closest with fitness 1/rank, the negative uniformly over the
    places beyond ``k_pos`` (restricted to strictly larger observation
    distances, so the gap is always positive). Anchors with fewer than
    ``k_pos + 1`` candidates, or with no candidate farther than their
    positive, are skipped and counted. Consumes ``rng`` deterministically:
    per anchor one ``random()`` and, unless it is skipped, one
    ``integers()``. :func:`_select` takes each anchor's order as one merge
    of two runs, read by one binary search, without sorting per anchor.

    ``anchor_cycles`` restricts which cycles may anchor a triplet; the
    candidate pool always spans the full range. The result holds one
    window row per eligible cycle of each station.
    """
    cycles = np.unique(np.asarray(cycles, dtype=int))
    if stats is None:
        stats = SamplingStats()
    k = cfg.k_pos
    fitness = 1.0 / np.arange(1, k + 1)
    edges = np.cumsum(fitness / fitness.sum()).tolist()  # roulette over the k nearest
    empty = np.empty((0, 3), dtype=int)
    blocks = [Triplets(np.empty((0, fcst.n_variables, 2 * cfg.t_half + 1)), empty, empty,
                       np.empty(0))]
    times = fcst.cycles[cycles] + int(fcst.leads[lead])
    for station in stations:
        s = fcst.station_index(station)
        data, avail = window_block(fcst, s, lead, cycles, cfg.t_half)
        obs_vals = obs.values_for(station, times)
        elig_pos = np.nonzero(avail & np.isfinite(obs_vals))[0]
        if anchor_cycles is None:
            anchors = np.arange(elig_pos.size)
        else:
            wanted = np.asarray(anchor_cycles, dtype=int)
            anchors = np.nonzero(np.isin(cycles[elig_pos], wanted))[0]
        stats.anchors_seen += anchors.size
        if elig_pos.size - 1 < k + 1:  # every eligible cycle but the anchor is a candidate
            stats.anchors_skipped += anchors.size
            continue
        picked, gap = _select(obs_vals[elig_pos], anchors, k, edges, rng)
        stats.anchors_skipped += anchors.size - len(picked)
        origins = np.column_stack(
            [np.full(elig_pos.size, s), cycles[elig_pos], np.full(elig_pos.size, lead)]
        )
        blocks.append(Triplets(data[elig_pos], origins, picked, gap))
    return Triplets.concat(blocks)


def _select(
    v: np.ndarray, anchors: np.ndarray, k: int, edges: list[float], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative of each anchor of one (station, lead) block.

    ``v`` holds the eligible cycles' observations in cycle order and
    ``anchors`` index it. Returns the [n, 3] (anchor, positive, negative)
    positions of the anchors that keep a triplet, and their obs_gaps.

    Two stable sorts fix every anchor's order. In ``up``, the (obs, cycle)
    order, the side at or above the anchor starts with the observations
    equal to it, in cycle order, and goes on away from it. In ``down``, the
    (-obs, cycle) order, the side below it ends the array, nearest first.
    The rounded distance fl(|x - v_a|) never decreases along either side,
    so the anchor's (distance, cycle) order is one merge of these two runs,
    read by one binary search (:func:`_merged_entry`), unless two distinct
    observations on one side round to the same distance. Anchors where that
    may happen (see :func:`_rounding_may_tie`) are ranked with
    :func:`~analogkit.ensemble.rank_positions` instead.
    """
    n = v.size
    n_cand = n - 1
    up = v.argsort(kind="stable")
    down = (-v).argsort(kind="stable")
    sv, dv = v[up], v[down]
    centre = v[anchors]
    lo = sv.searchsorted(centre, "left")  # side at or above: up[lo:]; side below: down[n - lo:]
    rank = np.empty(n, dtype=int)
    rank[up] = np.arange(n)
    skip = rank[anchors] - lo  # the anchor's own entry of up[lo:]
    others = np.ones(n, dtype=bool)

    def exact(i, m):  # the first m places of anchor i's order, by a full ranking
        a = anchors[i]
        others[a] = False
        order = rank_positions(np.abs(v - v[a]), others, m)
        others[a] = True
        return order

    top = _merged_entry(v, up, down, lo[:, None], skip[:, None], centre[:, None],
                        np.arange(k + 1))
    unsafe = np.flatnonzero(_rounding_may_tie(sv, lo, sv.searchsorted(centre, "right"), centre))
    for i in unsafe:
        top[i] = exact(i, k + 1)
    top_dist = np.abs(v[top] - centre[:, None])
    # Where the (k+1)-th ties the k-th, count(dist <= top_dist[k]) runs past
    # the cut: count it on each run, the anchor left out. A count needs no
    # order within a distance, so it is exact for flagged anchors too.
    count = np.zeros(len(anchors), dtype=int)
    tied = np.flatnonzero(top_dist[:, k - 1] == top_dist[:, k])
    cut, c, start = top_dist[tied, k], centre[tied], lo[tied]
    count[tied] = _within(sv, start, n - start, c, cut) + _within(dv, n - start, start, c, cut) - 1
    # The first allowed negative is at place k for a positive nearer than the
    # (k+1)-th candidate, and past every candidate as near for the others:
    # those from rank ``ties`` on.
    ties = np.count_nonzero(top_dist[:, :k] < top_dist[:, k:], axis=1)
    kept, picks, places = [], [], []
    random, integers, scale = rng.random, rng.integers, edges[-1]
    for i, (tie, past) in enumerate(zip(ties.tolist(), count.tolist())):
        r = min(bisect_right(edges, random() * scale), k - 1)
        first = k if r < tie else past
        if first == n_cand:
            continue
        kept.append(i)
        picks.append(r)
        places.append(first + int(integers(n_cand - first)))
    kept, picks, places = (np.array(x, dtype=int) for x in (kept, picks, places))
    pos = top[kept, picks]
    neg = _merged_entry(v, up, down, lo[kept], skip[kept], centre[kept], places)
    for j in np.flatnonzero(np.isin(kept, unsafe)):
        neg[j] = exact(kept[j], places[j] + 1)[places[j]]
    a = anchors[kept]
    gap = np.abs(v[neg] - v[a]) - np.abs(v[pos] - v[a])
    return np.column_stack([a, pos, neg]), gap


# A gap times 2**48 overflows only where no tie can be, and a distance that overflows is flagged.
@np.errstate(over="ignore")
def _rounding_may_tie(sv: np.ndarray, lo: np.ndarray, hi: np.ndarray, centre: np.ndarray):
    """Per anchor, whether two distinct observations on one side of it may
    round to the same distance, so that (obs, cycle) order is not
    (distance, cycle) order there.

    ``sv`` is sorted and each anchor's side below is ``sv[:lo]``, its side
    above ``sv[hi:]``. Each rounding errs by at most 2**-53 of its result
    (a subnormal difference is exact), so fl(x - c) == fl(y - c) for
    neighbours c < x < y needs y - x <= 2**-51 (y - c). The computed gap g
    then has 2**48 g <= (y - c) / 4, so c <= fl(y - 2**48 g). The side above
    is thus safe where c exceeds the suffix maximum of fl(y - 2**48 g), and
    the side below, mirrored, where c is under the prefix minimum of
    fl(x + 2**48 g). Each gap is set against its own distance from c, so one
    far outlier flags only the anchors near it. A side whose farthest
    distance overflows is never safe.
    """
    gaps = np.diff(sv)
    gaps[gaps == 0] = np.inf  # equal observations tie exactly, already in cycle order
    reach = gaps * 2.0**48
    pad = np.full(2, np.inf)
    tie_above = np.concatenate([np.maximum.accumulate((sv[1:] - reach)[::-1])[::-1], -pad])[hi]
    tie_below = np.concatenate([pad, np.minimum.accumulate(sv[:-1] + reach)])[lo]
    finite = np.isfinite(sv[-1] - centre) & np.isfinite(centre - sv[0])
    return ~((centre > tie_above) & (centre < tie_below) & finite)


def _bisect(lo: np.ndarray, hi: np.ndarray, past) -> np.ndarray:
    """Per row, the least x in [lo, hi) with ``past(x)`` true, else hi.
    ``past`` must be monotone in x; rows search together, one step a pass."""
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        left = active & past(mid)
        hi = np.where(left, mid, hi)
        lo = np.where(active & ~left, mid + 1, lo)


def _within(run: np.ndarray, start, size, centre, x) -> np.ndarray:
    """Per row, how many of ``run[start : start + size]`` lie within ``x`` of
    ``centre``. Each run leads away from its centre, so fl(|r - centre|) <= x
    holds on a prefix of it, and a binary search counts it exactly."""
    return _bisect(np.zeros_like(start), size,
                   lambda t: np.abs(run.take(start + t, mode="clip") - centre) > x)


def _merged_entry(v, up, down, lo, skip, centre, q) -> np.ndarray:
    """Per anchor, the position at place ``q`` (from 0) of its (distance,
    cycle) order. That order merges two runs that lead away from the
    anchor: the side at or above it, ``up[lo:]`` with the anchor (entry
    ``skip``) left out, and the side below it, ``down[n - lo:]``. The q-th
    smallest of the two is found by a binary search on how many of the
    first q + 1 come from above."""
    n = v.size

    def above(x):
        return up.take(lo + x + (x >= skip), mode="clip")

    def below(x):
        return down.take(n - lo + x, mode="clip")

    def later(i, j):  # (distance, cycle) of position i comes after that of j
        di, dj = np.abs(v[i] - centre), np.abs(v[j] - centre)
        return (di > dj) | ((di == dj) & (i > j))

    # The least m whose m-th above comes after the (q - m)-th below.
    m = _bisect(np.maximum(0, q + 1 - lo), np.minimum(q + 1, n - 1 - lo),
                lambda x: later(above(x), below(q - x)))
    last_above, last_below = above(m - 1), below(q - m)
    from_above = (m == q + 1) | ((m > 0) & later(last_above, last_below))
    return np.where(from_above, last_above, last_below)


def triplet_loss(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, alpha: float) -> float:
    """Hinged triplet loss max(0, ||e_a - e_p|| - ||e_a - e_n|| + alpha)."""
    if e_a.shape != e_p.shape or e_a.shape != e_n.shape:
        raise ValueError("embedding dimensions must agree")
    d_ap = float(np.linalg.norm(e_a - e_p))
    d_an = float(np.linalg.norm(e_a - e_n))
    return max(0.0, d_ap - d_an + alpha)


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


def _batch_size(rows: np.ndarray) -> int:
    if len(rows) == 0 or len(rows) % 3:
        raise ValueError("need the anchors, positives and negatives of one or more triplets")
    return len(rows) // 3


def backward(
    model: ModelCheckpoint,
    rows: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Mean hinge loss over a batch and its exact gradient, laid out as ``model.theta``.

    ``rows`` are the batch's raw windows, [3B, n_variables, width]: the B
    anchors, then the positives, then the negatives (see
    :meth:`Triplets.rows`). The three passes of each triplet share the
    model parameters and, when dropout is active, the same per-triplet
    masks. Triplets whose hinge is zero contribute zero gradient. Raises
    :class:`DivergenceError` when any loss or gradient comes out non-finite.
    """
    n = _batch_size(rows)
    inv_n = 1.0 / n
    masks = _draw_masks(model, n, cfg.dropout_rate, rng)
    embeddings, tape = run_stack(model, rows, masks)
    e_a, e_p, e_n = np.split(embeddings, 3)
    hinge = _hinges(e_a, e_p, e_n, cfg.alpha)
    active = ~(hinge <= 0)  # a NaN hinge stays in, so divergence is caught below
    loss = float(np.sum(hinge[active])) * inv_n
    u_ap = _unit(e_a - e_p) * active[:, None]
    u_an = _unit(e_a - e_n) * active[:, None]
    grad = np.zeros_like(model.theta)
    backprop_stack(model, tape, np.concatenate([u_ap - u_an, -u_ap, u_an]) * inv_n, grad)
    if not np.isfinite(loss) or not np.isfinite(grad).all():
        raise DivergenceError(iteration=-1)
    return grad, loss


def evaluate_loss(model: ModelCheckpoint, rows: np.ndarray, alpha: float) -> float:
    """Mean hinge loss without dropout (evaluation mode), over triplet rows
    laid out as for :func:`backward`."""
    n = _batch_size(rows)
    hinge = _hinges(*np.split(embed_windows(model, rows), 3), alpha)
    return float(np.sum(np.maximum(hinge, 0.0))) / n


def adam_step(
    model: ModelCheckpoint,
    grad: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelCheckpoint, AdamState]:
    """One ADAM update of ``theta``; returns a new model and state, inputs untouched."""
    if np.shape(grad) != model.theta.shape:
        raise ValueError(f"gradient has shape {np.shape(grad)}, "
                         f"the model has {model.theta.size} parameters")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_model = model.clone()
    new_model.theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return new_model, AdamState(m=m, v=v, step=t)


@dataclass
class TrainLogRow:
    iteration: int
    train_loss: float
    val_loss: float


# A diverging run overflows on its way to a non-finite loss or gradient; the
# isfinite checks turn that into one DivergenceError, so numpy stays quiet.
@np.errstate(over="ignore", invalid="ignore")
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

    Anchors from the last ``VAL_FRACTION`` (10%) of the cycle range (by
    cycle time) are held out for validation and never anchor a training
    triplet. The loop samples batches, backpropagates, applies ADAM, and
    evaluates the held-out loss every ``eval_interval`` iterations; it stops
    at ``max_iterations`` or when ``early_stop_patience`` iterations pass
    without a relative improvement of ``EARLY_STOP_MIN_IMPROVEMENT`` (0.1%).
    Returns the best-validation checkpoint and the evaluation log.
    """
    cycles = np.unique(np.asarray(cycles, dtype=int))
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

    n_val = max(1, int(round(VAL_FRACTION * cycles.size)))
    train_cycles = cycles[:-n_val]
    val_cycles = cycles[-n_val:]

    def sample_pool(pool_cycles, anchor_cycles=None):
        return Triplets.concat([
            sample_triplets(fcst, obs, stations, lead, pool_cycles, cfg, rng, anchor_cycles)
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
        """Rows of the next batch_size triplets in ``order``, sampling a new
        pool whenever the current one is used up."""
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
    log: list[TrainLogRow] = []
    init_train_loss = evaluate_loss(model, pool.rows(slice(cfg.batch_size)), cfg.alpha)
    best_val = evaluate_loss(model, val_rows, cfg.alpha)
    best_model = model.clone()
    last_improved = 0
    log.append(TrainLogRow(0, init_train_loss, best_val))

    interval_losses: list[float] = []
    iteration = 0
    try:
        while iteration < cfg.max_iterations:
            iteration += 1
            batch = next_batch()
            grad, loss = backward(model, batch, cfg, rng)
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


def _pooled_norm(fcst, station_indices, cycles):
    """Per-variable mean/sigma pooled over stations, cycles, and leads; a
    variable without samples gets mean 0."""
    block = fcst.values[np.asarray(station_indices)][:, :, cycles, :]
    counts, mean, sigma = variable_stats(
        np.transpose(block, (1, 0, 2, 3)).reshape(fcst.n_variables, -1))
    return np.where(counts > 0, mean, 0.0), sigma


def write_train_log(log: list[TrainLogRow], path) -> None:
    with open_output(path) as fh:
        fh.write("iteration,train_loss,val_loss\n")
        for row in log:
            fh.write(
                f"{row.iteration},{format_float(row.train_loss)},{format_float(row.val_loss)}\n"
            )
