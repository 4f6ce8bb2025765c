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
from dataclasses import dataclass

import numpy as np

from .archive import (
    ForecastArchive,
    ObservationArchive,
    format_float,
    open_output,
    sorted_distinct,
    variable_stats,
)
from .ensemble import classic_base, rank_positions
from .errors import ConfigError, DataError, DivergenceError
from .network import (
    ModelCheckpoint,
    StepBuffers,
    backprop_stack,
    embed_windows,
    init_model,
    run_stack,
    save_checkpoint,
    storable_name,
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


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Everything :func:`sample_triplets` needs that consumes no draw: each
    block's eligible windows, one row per eligible cycle, and each block's
    :class:`BlockPlan`. A block with too few eligible cycles has no plan and
    no rows; its anchors count as seen and skipped."""

    windows: np.ndarray  # float64 [n_rows, n_variables, 2*t_half + 1]
    origins: np.ndarray  # int [n_rows, 3]: (station index, cycle index, lead index)
    blocks: tuple[BlockPlan, ...]
    edges: list[float]  # roulette edges over the k_pos nearest; empty with no block
    anchors_seen: int


def plan_sampling(
    fcst: ForecastArchive,
    obs: ObservationArchive,
    stations: list[str],
    leads: list[int],
    cycles,
    cfg: TrainConfig,
    anchor_cycles=None,
) -> SamplingPlan:
    """The selection state of one triplet pool over a cycle range, one block
    per (lead, station), leads outer and stations inner.

    In each block, an anchor is an eligible cycle of the block's
    :func:`~analogkit.ensemble.classic_base` (an edge lead has none). All
    other such cycles are its candidates, ordered by the absolute difference
    between their observation and the anchor's, ties going to the earlier
    cycle. The positive is chosen by roulette over the ``k_pos`` closest
    with fitness 1/rank, the negative uniformly over the places beyond
    ``k_pos`` (restricted to strictly larger observation distances, so the
    gap is always positive). Anchors with fewer than ``k_pos + 1``
    candidates, or with no candidate farther than their positive, are
    skipped and counted.

    ``anchor_cycles`` restricts which cycles may anchor a triplet; the
    candidates always span the full range.
    """
    cycles = sorted_distinct(np.asarray(cycles, dtype=int))
    k = cfg.k_pos
    windows, origins, blocks, seen, rows = [], [np.empty((0, 3), dtype=int)], [], 0, 0
    for lead in leads:
        for station in stations:
            s = fcst.station_index(station)
            base = classic_base(fcst, obs, s, lead, cycles, cfg.t_half)
            elig_pos = base.candidates
            if anchor_cycles is None:
                anchors = np.arange(elig_pos.size)
            else:
                wanted = np.asarray(anchor_cycles, dtype=int)
                anchors = np.nonzero(np.isin(cycles[elig_pos], wanted))[0]
            seen += anchors.size
            if elig_pos.size - 1 < k + 1:  # every eligible cycle but the anchor is a candidate
                continue
            blocks.append(BlockPlan.make(base.members[elig_pos], anchors, k, rows))
            windows.append(base.rows.transpose(1, 2, 0)[elig_pos])  # [n, n_variables, width]
            origins.append(np.column_stack(
                [np.full(elig_pos.size, s), cycles[elig_pos], np.full(elig_pos.size, lead)]))
            rows += elig_pos.size
    edges = []
    if blocks:  # a block holds k_pos + 2 cycles, so the data bound the edges
        fitness = 1.0 / np.arange(1, k + 1)
        edges = np.cumsum(fitness / fitness.sum()).tolist()
    # seeded after the blocks, so that a width no memory holds is window_block's data error
    windows.append(np.empty((0, fcst.n_variables, 2 * cfg.t_half + 1)))
    return SamplingPlan(np.concatenate(windows), np.concatenate(origins), tuple(blocks),
                        edges, seen)


def sample_triplets(
    plan: SamplingPlan,
    rng: np.random.Generator,
    stats: SamplingStats | None = None,
) -> Triplets:
    """One triplet per kept anchor of ``plan`` (see :func:`plan_sampling`),
    drawn block by block with two calls each (:meth:`BlockPlan.draw`): one
    ``random`` gives every anchor's positive, one ``integers`` gives the
    negative of every anchor not skipped, over the places it may take. The
    array calls draw what successive scalar calls draw, and a block with no
    anchor kept, or a bound of 1, reads no bits. The result shares the
    plan's window rows, so drawing again pays only for the draws.
    """
    if stats is None:
        stats = SamplingStats()
    stats.anchors_seen += plan.anchors_seen
    stats.anchors_skipped += plan.anchors_seen
    index, gap = [np.empty((0, 3), dtype=int)], [np.empty(0)]
    for block in plan.blocks:
        picked, block_gap = block.draw(plan.edges, rng)
        stats.anchors_skipped -= len(picked)
        index.append(picked + block.offset)
        gap.append(block_gap)
    return Triplets(plan.windows, plan.origins, np.concatenate(index), np.concatenate(gap))


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """One (station, lead) block's selection state before any draw.

    ``v`` holds the eligible cycles' observations in cycle order and
    ``anchors`` index it; the block's rows start at row ``offset`` of the
    plan. Two stable sorts fix every anchor's order. In ``up``, the (obs,
    cycle) order, the side at or above the anchor starts with the
    observations equal to it, in cycle order, and goes on away from it. In
    ``down``, the (-obs, cycle) order, the side below it ends the array,
    nearest first. The rounded distance fl(|x - v_a|) never decreases along
    either side, so the anchor's (distance, cycle) order is one merge of
    these two runs, read by one binary search (:func:`_merged_entry`),
    unless two distinct observations on one side round to the same
    distance. Anchors where that may happen (``unsafe``, see
    :func:`_rounding_may_tie`) are ranked with
    :func:`~analogkit.ensemble.rank_positions` instead.

    Per anchor, ``top`` holds its ``k + 1`` nearest. The first allowed
    negative is at place ``k`` for a positive nearer than the (k+1)-th
    candidate, that is of rank below ``ties``, and past every candidate as
    near, at place ``past``, for the others.

    An anchor's positive rank is one ``random()`` and its negative one
    ``integers(b)`` over the ``b`` places from the first allowed one on; an
    anchor with no place left keeps no triplet. :meth:`draw` takes the
    whole block's ranks first, then the kept anchors' places.
    """

    offset: int
    v: np.ndarray
    anchors: np.ndarray
    up: np.ndarray
    down: np.ndarray
    lo: np.ndarray  # per anchor: side at or above is up[lo:], side below down[n - lo:]
    skip: np.ndarray  # per anchor: its own entry of up[lo:]
    unsafe: np.ndarray  # anchors (indices into ``anchors``) ranked in full
    top: np.ndarray  # [n_anchors, k + 1] positions
    ties: np.ndarray
    past: np.ndarray

    @classmethod
    def make(cls, v: np.ndarray, anchors: np.ndarray, k: int, offset: int) -> BlockPlan:
        n = v.size
        up = v.argsort(kind="stable")
        down = (-v).argsort(kind="stable")
        sv, dv = v[up], v[down]
        centre = v[anchors]
        lo = sv.searchsorted(centre, "left")
        rank = np.empty(n, dtype=int)
        rank[up] = np.arange(n)
        skip = rank[anchors] - lo
        top = _merged_entry(v, up, down, lo[:, None], skip[:, None], centre[:, None],
                            np.arange(k + 1))
        unsafe = np.flatnonzero(
            _rounding_may_tie(sv, lo, sv.searchsorted(centre, "right"), centre))
        for i in unsafe:
            top[i] = _exact_order(v, anchors[i], k + 1)
        top_dist = np.abs(v[top] - centre[:, None])
        # Where the (k+1)-th ties the k-th, count(dist <= top_dist[k]) runs past
        # the cut: count it on each run, the anchor left out. A count needs no
        # order within a distance, so it is exact for flagged anchors too.
        past = np.zeros(len(anchors), dtype=int)
        tied = np.flatnonzero(top_dist[:, k - 1] == top_dist[:, k])
        cut, c, start = top_dist[tied, k], centre[tied], lo[tied]
        past[tied] = _within(sv, start, n - start, c, cut) + _within(dv, n - start, start, c, cut) - 1
        ties = np.count_nonzero(top_dist[:, :k] < top_dist[:, k:], axis=1)
        return cls(offset, v, anchors, up, down, lo, skip, unsafe, top, ties, past)

    def draw(self, edges: list[float], rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The [n, 3] (anchor, positive, negative) positions of the anchors
        that keep a triplet, and their obs_gaps. Two calls draw the block:
        ``random(len(anchors))`` gives every anchor's positive rank, then one
        ``integers``, with one bound per anchor that keeps a triplet, gives
        their negatives' places. Drawing per block, not per plan, keeps a
        plan over several leads drawing what per-lead plans draw in turn."""
        v, n_cand, k = self.v, self.v.size - 1, len(edges)
        u = rng.random(len(self.anchors)) * edges[-1]
        picks = np.minimum(np.searchsorted(edges, u, "right"), k - 1)
        first = np.where(picks < self.ties, k, self.past)
        kept = np.flatnonzero(first < n_cand)
        picks, first = picks[kept], first[kept]
        places = first + rng.integers(n_cand - first)
        pos = self.top[kept, picks]
        neg = _merged_entry(v, self.up, self.down, self.lo[kept], self.skip[kept],
                            v[self.anchors[kept]], places)
        for j in np.flatnonzero(np.isin(kept, self.unsafe)):
            neg[j] = _exact_order(v, self.anchors[kept[j]], places[j] + 1)[places[j]]
        a = self.anchors[kept]
        gap = np.abs(v[neg] - v[a]) - np.abs(v[pos] - v[a])
        return np.column_stack([a, pos, neg]), gap


def _exact_order(v: np.ndarray, a: int, m: int) -> np.ndarray:
    """The first m places of anchor position a's (distance, cycle) order, by a full ranking."""
    return rank_positions(np.abs(v - v[a]), np.delete(np.arange(v.size), a), m)


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


def _draw_masks(step: StepBuffers, rate: float, rng: np.random.Generator) -> None:
    """Per-triplet dropout masks for every layer's output (inter-layer plus
    pre-head), scaled by 1/keep and repeated on the triplet's three rows,
    into each layer's ``mask`` [3n, hidden_k] of ``step``.

    One [n, sum(hidden)] draw consumes ``rng`` exactly like n successive
    per-triplet, per-layer draws.
    """
    if rate <= 0:
        return
    kept = rng.random(out=step.draw)
    np.greater_equal(kept, rate, out=kept)  # 1.0 or 0.0, as the bools divide
    kept /= 1.0 - rate
    end = 0
    for lt in step.layers:
        size = lt.mask.shape[1]
        lt.mask.reshape(3, len(kept), size)[...] = kept[:, end : end + size]
        end += size


def _distances(embeddings: np.ndarray, diff=None, squares=None, norms=None):
    """Anchor-positive and anchor-negative differences [2, B, embed_dim] and
    their norms [2, B], of 3B embeddings laid out as anchors, positives,
    negatives, into the given arrays (new ones for None). Each norm is the
    sqrt of the row sum of squares, as ``np.linalg.norm`` computes it, so it
    has the same bits."""
    e = embeddings.reshape(3, -1, embeddings.shape[-1])
    diff = np.subtract(e[0], e[1:], out=diff)
    norms = np.add.reduce(np.multiply(diff, diff, out=squares), axis=2, out=norms)
    return diff, np.sqrt(norms, out=norms)


def _batch_size(rows: np.ndarray) -> int:
    if len(rows) == 0 or len(rows) % 3:
        raise ValueError("need the anchors, positives and negatives of one or more triplets")
    return len(rows) // 3


def backward(
    model: ModelCheckpoint,
    rows: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: StepBuffers | None = None,
) -> tuple[np.ndarray, float]:
    """Mean hinge loss over a batch and its exact gradient, laid out as ``model.theta``.

    ``rows`` are the batch's raw windows, [3B, n_variables, width]: the B
    anchors, then the positives, then the negatives (see
    :meth:`Triplets.rows`). The three passes of each triplet share the
    model parameters and, when dropout is active, the same per-triplet
    masks. Triplets whose hinge is zero contribute zero gradient. Raises
    :class:`DivergenceError` when any loss or gradient comes out non-finite.

    ``step`` holds every array the step writes, the gradient ``step.grad``
    included: a :class:`StepBuffers` for rows of this shape, masked when
    ``cfg.dropout_rate`` is positive and bound with ``backprop``, as
    :func:`train` binds one per run. Without it, a fresh set is bound for
    this call. The returned gradient is a copy of ``step.grad.theta``.
    """
    n = _batch_size(rows)
    masked = cfg.dropout_rate > 0
    if step is None:
        step = StepBuffers(model, np.shape(rows), masked=masked, backprop=True)
    elif step.masked != masked:
        raise ValueError(f"step buffers {'with' if step.masked else 'without'} dropout "
                         f"masks, dropout_rate is {cfg.dropout_rate}")
    inv_n = 1.0 / n
    _draw_masks(step, cfg.dropout_rate, rng)
    run_stack(model, rows, step)
    d_embeddings = step.d_embeddings.reshape(3, n, -1)
    units = d_embeddings[1:]  # u_ap and u_an; the squared differences until then
    diff, norms = _distances(step.embeddings, step.diff, units, step.norms)
    hinge = np.subtract(norms[0], norms[1], out=step.hinge)
    hinge += cfg.alpha
    # a NaN hinge stays in, so divergence is caught below
    active = np.logical_not(np.less_equal(hinge, 0.0, out=step.active), out=step.active)
    loss = float(np.add.reduce(hinge[active])) * inv_n
    # Rows of diff scaled to unit length by their norms; zero rows stay zero.
    units.fill(0.0)
    np.divide(diff, norms[:, :, None], out=units,
              where=np.greater(norms, 0.0, out=step.positive)[:, :, None])
    units *= active[:, None]
    np.subtract(units[0], units[1], out=d_embeddings[0])  # [u_ap - u_an, -u_ap, u_an] / n
    np.negative(units[0], out=units[0])
    d_embeddings *= inv_n
    backprop_stack(model, step)
    grad = step.grad.theta
    if not np.isfinite(loss) or not np.isfinite(grad).all():
        raise DivergenceError(iteration=-1)
    return grad.copy(), loss


def evaluate_loss(model: ModelCheckpoint, rows: np.ndarray, alpha: float) -> float:
    """Mean hinge loss without dropout (evaluation mode), over triplet rows
    laid out as for :func:`backward`."""
    n = _batch_size(rows)
    _, (n_ap, n_an) = _distances(embed_windows(model, rows))
    return float(np.sum(np.maximum(n_ap - n_an + alpha, 0.0))) / n


def adam_step(
    model: ModelCheckpoint, grad: np.ndarray, state: AdamState, cfg: TrainConfig
) -> None:
    """One ADAM update of ``model.theta`` and ``state``, in place; ``grad`` is
    only read. ``m *= b1; m += (1 - b1) * grad`` rounds exactly as ``b1 * m +
    (1 - b1) * grad``."""
    if np.shape(grad) != model.theta.shape:
        raise ValueError(f"gradient has shape {np.shape(grad)}, "
                         f"the model has {model.theta.size} parameters")
    state.step += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1**state.step)
    v_hat = v / (1.0 - ADAM_BETA2**state.step)
    model.theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


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
    triplet. The validation pool and the training pool each have one
    :class:`SamplingPlan` over every lead, so a resample only draws. The
    loop gathers each batch into one buffer and backpropagates through one
    :class:`StepBuffers`, which holds the gradient too, both allocated
    before any sampling (a ``batch_size`` or ``hidden_sizes`` too large to
    allocate is a :class:`ConfigError`), so an iteration allocates no array
    of batch size. Each iteration applies one :func:`adam_step` to the model
    in place, and every ``eval_interval`` iterations the loop evaluates the
    held-out loss, cloning the model on a new best; it stops at
    ``max_iterations`` or when ``early_stop_patience`` iterations pass
    without a relative improvement of ``EARLY_STOP_MIN_IMPROVEMENT`` (0.1%).
    A variable name no checkpoint can store is a :class:`DataError` at once.
    Returns the best-validation checkpoint and the evaluation log.
    """
    for name in fcst.variables:
        if not storable_name(name):
            raise DataError(f"variable name {name!r} cannot be stored in a checkpoint")
    cycles = sorted_distinct(np.asarray(cycles, dtype=int))
    if cycles.size < 2:
        raise DataError("training needs at least two cycles")
    rng = np.random.default_rng(cfg.seed)

    s_indices = [fcst.station_index(st) for st in stations]
    norm_mean, norm_sigma = _pooled_norm(fcst, s_indices, cycles)
    sizes = ",".join(map(str, cfg.hidden_sizes))
    try:
        model = init_model(list(fcst.variables), cfg.t_half, cfg.hidden_sizes, cfg.embed_dim,
                           cfg.seed, norm_mean, norm_sigma)
    except (MemoryError, ValueError):  # numpy's ValueError: "array is too big"
        raise ConfigError(f"hidden_sizes={sizes} and embed_dim={cfg.embed_dim} give a model "
                          "too large to allocate") from None

    if cfg.max_iterations > 0:  # the buffer every batch is gathered into, and the step's
        try:
            batch = np.empty((3, cfg.batch_size, fcst.n_variables, 2 * cfg.t_half + 1))
            step = StepBuffers(model, (3 * cfg.batch_size,) + batch.shape[2:],
                               masked=cfg.dropout_rate > 0, backprop=True)
        except (MemoryError, ValueError):
            raise ConfigError(f"batch_size={cfg.batch_size} gives a batch too large to "
                              f"allocate at hidden_sizes={sizes} and t_half={cfg.t_half}") from None

    n_val = max(1, int(round(VAL_FRACTION * cycles.size)))
    train_cycles = cycles[:-n_val]
    val_cycles = cycles[-n_val:]

    val_triplets = sample_triplets(
        plan_sampling(fcst, obs, stations, leads, cycles, cfg, val_cycles), rng)
    train_plan = plan_sampling(fcst, obs, stations, leads, train_cycles, cfg)
    pool = sample_triplets(train_plan, rng)
    if not pool:
        raise DataError("no training triplets could be sampled")
    if not val_triplets:
        raise DataError("no validation triplets could be sampled")
    val_rows = val_triplets.rows()

    order = rng.permutation(len(pool))
    cursor = 0

    def next_batch():
        """Rows of the next batch_size triplets in ``order``, gathered into
        ``batch``, sampling a new pool whenever the current one is used up."""
        nonlocal pool, order, cursor
        filled = 0
        while filled < cfg.batch_size:
            if cursor >= len(order):
                pool = sample_triplets(train_plan, rng)
                if not pool:
                    raise DataError("triplet pool dried up during training")
                order = rng.permutation(len(pool))
                cursor = 0
            take = order[cursor : cursor + cfg.batch_size - filled]
            np.take(pool.windows, pool.index[take].T, axis=0,
                    out=batch[:, filled : filled + len(take)])
            cursor += len(take)
            filled += len(take)
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
            grad, loss = backward(model, next_batch(), cfg, rng, step)
            adam_step(model, grad, adam, cfg)
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
