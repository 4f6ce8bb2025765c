"""Stacked-LSTM encoder with a dense head producing fixed-size embeddings.

Each LSTM cell step computes, with z = [a_prev; x] (previous activation
concatenated above the current input):

    update gate   G_u = sigmoid(W_u z + b_u)
    forget gate   G_f = sigmoid(W_f z + b_f)
    output gate   G_o = sigmoid(W_o z + b_o)
    candidate     ct  = tanh(W_c z + b_c)
    cell state    c   = G_u * ct + G_f * c_prev
    activation    a   = G_o * tanh(c)

where sigmoid(x) = 1 / (1 + exp(-x)), the logistic function, applied
elementwise.

Layers are stacked in depth: layer k consumes layer k-1's activation at
each timestep. The top layer's activation at the final timestep feeds a
linear head, whose output is the embedding. Inputs are standardized per
variable with statistics stored on the checkpoint; initial states are zero.

Every pass is batched over rows, one row per window. A pass takes raw
windows [B, n_variables, T] and runs step t of all B rows at once, so the
cell works on z [B, hidden + input] and states [B, hidden];
``lstm_cell_step`` is the one-row case. The tape of a pass holds, per
layer, its values stacked over time as [T, B, ...], and BPTT runs back over
the same layout. The tape lives in a ``StepBuffers``, with every other array
a pass and its BPTT write: ``run_stack`` and ``backprop_stack`` write into
it in place, so a set bound once serves every step of a training run
(``training.train`` binds one next to its batch buffer). A training batch
of B triplets is 3B rows: anchors in rows [0, B), positives in [B, 2B) and
negatives in [2B, 3B), with each triplet's dropout masks repeated on its
three rows. Inference runs in chunks of 256 rows, each on fresh buffers.

All trained parameters live in one float64 vector, ``ModelCheckpoint.theta``,
in the order of ``named_parameters`` and of the checkpoint file. The gate
matrices and biases of each ``LstmLayerParams`` and ``head_w``/``head_b`` are
views of its slices; a layer's stacked ``w`` and ``b`` view its four gates,
and each gate keeps its own matmul. Gradients and ADAM
moments are vectors of the same layout; BPTT accumulates a gradient into the
parameters of the step's twin model, ``StepBuffers.grad``, whose ``theta``
is that vector.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .archive import (
    ForecastArchive,
    ForecastWindow,
    format_float,
    locate,
    open_output,
    parse_decimal,
    parse_int,
    read_settings,
    read_text,
    sorted_distinct,
    window_block,
)
from .errors import DataError, SchemaError


@dataclass
class LstmLayerParams:
    """Gate weight matrices [hidden, hidden + input] and bias vectors [hidden].

    They are views of one block laid out as in ``theta``: per gate (u, f, o,
    c), its weights, then its bias. ``w`` [4, hidden, hidden + input] and
    ``b`` [4, hidden] view the four gates at once, so one matmul call runs
    each gate's own matmul (stacked, not fused: the bits are the same).
    """

    w_u: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray
    b_u: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    def __post_init__(self):
        shapes = {m.shape for m in (self.w_u, self.w_f, self.w_o, self.w_c)}
        if len(shapes) != 1:
            raise ValueError(f"gate weight matrices must share one shape, got {shapes}")
        lengths = {b.shape for b in (self.b_u, self.b_f, self.b_o, self.b_c)}
        if lengths != {(self.hidden_size,)}:
            raise ValueError("gate biases must all have length hidden_size")
        if self.w_u.shape[1] <= self.hidden_size:
            raise ValueError("weight matrices must have hidden + input columns")
        gates = zip((self.w_u, self.w_f, self.w_o, self.w_c), (self.b_u, self.b_f, self.b_o, self.b_c))
        self._bind(np.concatenate([part.ravel() for gate in gates for part in gate], dtype=float))

    def _bind(self, block: np.ndarray) -> None:
        """Rebind the gate parameters to views of ``block``, laid out as in ``theta``."""
        h, width = self.w_u.shape
        block = block.reshape(4, h * width + h)
        self.w = block[:, : h * width].reshape(4, h, width)
        self.b = block[:, h * width :]
        self.w_u, self.w_f, self.w_o, self.w_c = self.w
        self.b_u, self.b_f, self.b_o, self.b_c = self.b

    @property
    def hidden_size(self) -> int:
        return self.w_u.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_u.shape[1] - self.hidden_size


@dataclass
class LstmState:
    """Activation and cell state of one layer at one timestep."""

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.c.shape or self.a.ndim != 1:
            raise ValueError("state vectors must be equal-length 1-D arrays")


@dataclass
class ModelCheckpoint:
    """Full embedding model: LSTM stack, linear head, and input normalization."""

    layers: list[LstmLayerParams]
    head_w: np.ndarray  # [embed_dim, hidden_top]
    head_b: np.ndarray  # [embed_dim]
    norm_mean: np.ndarray  # per variable
    norm_sigma: np.ndarray  # per variable
    variables: list[str]
    t_half: int
    seed: int
    iterations: int
    theta: np.ndarray = field(init=False, repr=False)  # every parameter, in one vector

    def __post_init__(self):
        if not self.layers:
            raise ValueError("at least one LSTM layer required")
        if self.layers[0].input_size != len(self.variables):
            raise ValueError(
                f"layer 0 input size {self.layers[0].input_size} != "
                f"{len(self.variables)} variables"
            )
        for k in range(1, len(self.layers)):
            if self.layers[k].input_size != self.layers[k - 1].hidden_size:
                raise ValueError(f"layer {k} input size does not chain from layer {k - 1}")
        if self.head_w.shape != (self.head_b.size, self.layers[-1].hidden_size):
            raise ValueError("head shape does not match top layer hidden size")
        if self.norm_mean.shape != (len(self.variables),) or self.norm_sigma.shape != (
            len(self.variables),
        ):
            raise ValueError("normalization statistics must cover every variable")
        self._bind(np.concatenate([p.ravel() for _, p in named_parameters(self)], dtype=float))

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def embed_dim(self) -> int:
        return self.head_b.size

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(layer.hidden_size for layer in self.layers)

    def clone(self) -> "ModelCheckpoint":
        """A copy sharing no memory with this model; ``theta`` is copied once."""
        new = copy.copy(self)
        new._bind(self.theta.copy())
        new.norm_mean = self.norm_mean.copy()
        new.norm_sigma = self.norm_sigma.copy()
        new.variables = list(self.variables)
        return new

    def _bind(self, theta: np.ndarray) -> None:
        """Rebind every parameter, on fresh layer objects, to a view of ``theta``."""
        self.theta = theta
        *_, (_, self.head_w), (_, self.head_b) = named_parameters(self, theta)
        self.layers = [copy.copy(layer) for layer in self.layers]
        start = 0
        for layer in self.layers:  # a layer's parameters are one run of theta
            end = start + 4 * (layer.w_u.size + layer.hidden_size)
            layer._bind(theta[start:end])
            start = end


GATES = ("u", "f", "o", "c")
_LAYER_FIELDS = tuple(f"{kind}_{g}" for g in GATES for kind in "wb")  # w_u, b_u, w_f, ...


def named_parameters(
    model: ModelCheckpoint, vector: np.ndarray | None = None
) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) pairs, in ``theta`` order: the model's own
    parameters, which are views into ``model.theta``, or, given a ``vector``
    of the same layout (a gradient, say), the matching views into it."""
    pairs = [(f"layer{k}.{f}", getattr(layer, f))
             for k, layer in enumerate(model.layers) for f in _LAYER_FIELDS]
    pairs += [("head.w", model.head_w), ("head.b", model.head_b)]
    if vector is None:
        return pairs
    if np.shape(vector) != model.theta.shape:
        raise ValueError(f"parameter vector has shape {np.shape(vector)}, "
                         f"the model has {model.theta.size} parameters")
    ends = accumulate(p.size for _, p in pairs)
    return [(name, vector[end - p.size : end].reshape(p.shape))
            for (name, p), end in zip(pairs, ends)]


def init_model(
    variables: list[str],
    t_half: int,
    hidden_sizes: tuple[int, ...] = (20, 20, 20),
    embed_dim: int = 20,
    seed: int = 0,
    norm_mean: np.ndarray | None = None,
    norm_sigma: np.ndarray | None = None,
) -> ModelCheckpoint:
    """Seeded uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per matrix."""
    rng = np.random.default_rng(seed)
    n_var = len(variables)
    layers = []
    in_size = n_var
    for h in hidden_sizes:
        bound = 1.0 / np.sqrt(h + in_size)
        mats = [rng.uniform(-bound, bound, size=(h, h + in_size)) for _ in GATES]
        biases = [rng.uniform(-bound, bound, size=h) for _ in GATES]
        layers.append(LstmLayerParams(*mats, *biases))
        in_size = h
    bound = 1.0 / np.sqrt(in_size)
    head_w = rng.uniform(-bound, bound, size=(embed_dim, in_size))
    head_b = rng.uniform(-bound, bound, size=embed_dim)
    return ModelCheckpoint(
        layers=layers,
        head_w=head_w,
        head_b=head_b,
        norm_mean=np.zeros(n_var) if norm_mean is None else np.asarray(norm_mean, float),
        norm_sigma=np.ones(n_var) if norm_sigma is None else np.asarray(norm_sigma, float),
        variables=list(variables),
        t_half=t_half,
        seed=seed,
        iterations=0,
    )


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), into ``out`` when given (it
    may be ``x``). Below x = -709.78, exp(-x) overflows to inf and the result
    is 0, so the overflow is not a fault."""
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _cell(layer: LstmLayerParams, lt: LayerTape, t: int) -> None:
    """The cell equations at step t on every row of ``lt``: reads z[t] =
    [a_prev; x] and c[t], and writes g_u, g_f, g_o and c_tilde into
    gates[:, t], then c[t + 1], tanh_c[t] and a[t + 1]. The three sigmoids
    run as one call, in place; each is elementwise, so the bits are those
    of three calls."""
    gates = lt.gates[:, t]
    np.matmul(lt.z[t], layer.w.transpose(0, 2, 1), out=gates)
    gates += layer.b[:, None]
    _sigmoid(gates[:3], out=gates[:3])
    np.tanh(gates[3], out=gates[3])
    g_u, g_f, g_o, c_tilde = gates
    c, tanh_c = lt.c[t + 1], lt.tanh_c[t]
    np.multiply(g_u, c_tilde, out=c)
    c += np.multiply(g_f, lt.c[t], out=tanh_c)  # tanh_c holds g_f * c_prev until the next line
    np.tanh(c, out=tanh_c)
    np.multiply(g_o, tanh_c, out=lt.a[t + 1])


def lstm_cell_step(layer: LstmLayerParams, x: np.ndarray, prev: LstmState) -> LstmState:
    """One cell step; concatenation order is [a_prev; x]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.input_size,):
        raise ValueError(f"input shape {x.shape}, layer expects ({layer.input_size},)")
    if prev.a.shape != (layer.hidden_size,):
        raise ValueError(
            f"state length {prev.a.shape[0]}, layer expects {layer.hidden_size}"
        )
    lt = LayerTape(layer, rows=1, steps=1)
    lt.z[0, 0] = np.concatenate([prev.a, x])
    lt.c[0, 0] = prev.c
    _cell(layer, lt, 0)
    return LstmState(a=lt.a[1, 0], c=lt.c[1, 0])


def standardize(model: ModelCheckpoint, data: np.ndarray, out: np.ndarray | None = None):
    """Per-variable (x - mean) / sigma over [..., n_variables, T], into ``out``
    when given; variables with sigma 0 map to 0."""
    safe = np.where(model.norm_sigma > 0, model.norm_sigma, 1.0)
    z = np.subtract(data, model.norm_mean[:, None], out=out)
    z /= safe[:, None]
    z[..., model.norm_sigma <= 0, :] = 0.0
    return z


class LayerTape:
    """One layer's values over a batched pass, stacked over time [T, B, ...],
    and, for a training step, its BPTT buffers. Every pass rewrites them; the
    zero initial states a[0] and c[0], and the zero a_prev half of z[0], are
    never written."""

    def __init__(self, layer: LstmLayerParams, rows: int, steps: int,
                 out: np.ndarray | None = None, masked: bool = False, backprop: bool = False):
        h, width = layer.hidden_size, layer.hidden_size + layer.input_size
        self.z = np.zeros((steps, rows, width))  # cell input [a_prev; x]
        self.gates = np.empty((4, steps, rows, h))  # g_u, g_f, g_o, c_tilde
        self.c = np.zeros((steps + 1, rows, h))
        self.a = np.zeros((steps + 1, rows, h))
        self.tanh_c = np.empty((steps, rows, h))  # tanh(c[1:])
        # dropout on the output [B, hidden], scaled by 1/keep
        self.mask = np.empty((rows, h)) if masked else None
        # the output as passed on, after dropout: a view of the x half of the
        # layer above's z or, for the top layer, which feeds the head, its
        # own array (a[1:] itself without dropout)
        if out is None:
            out = np.empty((steps, rows, h)) if masked else self.a[1:]
        self.out = out
        if backprop:
            self.d_out = np.empty((steps, rows, h))  # gradient reaching the output, then da
            self.d_gates = np.empty_like(self.gates)  # pre-activation gradients
            self.dz = np.empty((rows, width))  # gradient of z[t]; its a_prev half is a[t]'s
            self.dz_gates = np.empty((4, rows, width))  # dz's four terms
            self.dc, self.dc_next, self.tmp = np.empty((3, rows, h))
            self.one_minus = np.empty((3, rows, h))  # 1 - g of the three sigmoid gates
            self.d_w = np.empty((4, h, width))
            self.d_b = np.empty((4, h))


class StepBuffers:
    """Every array of one batched pass over rows of one shape [B,
    n_variables, T], bound once and rewritten by each pass: the tape and,
    with ``backprop``, the BPTT buffers of every layer; the standardized
    input ``x``, a view of the bottom layer's z; the ``embeddings``; with
    ``masked``, the dropout ``draw`` [B/3, sum(hidden)] and each layer's
    ``mask``; and with ``backprop``, ``d_embeddings``, the gradient ``grad``
    (a twin of the model whose parameters view its ``theta``), the head's
    gradient and the triplet loss's differences, norms and flags
    (``training.backward`` fills them). A set serves one model shape."""

    def __init__(self, model: ModelCheckpoint, shape, masked: bool = False,
                 backprop: bool = False):
        rows, _, steps = self.shape = tuple(shape)
        self.masked = masked
        layers, out = [], None
        for layer in reversed(model.layers):  # each layer's output is the z of the one above
            layers.append(LayerTape(layer, rows, steps, out, masked, backprop))
            out = layers[-1].z[:, :, layer.hidden_size:]
        self.layers = layers[::-1]
        self.x = out.transpose(1, 2, 0)
        self.embeddings = np.empty((rows, model.embed_dim))
        n = rows // 3  # triplets
        if masked:
            self.draw = np.empty((n, sum(model.hidden_sizes)))
        if backprop:
            self.grad = model.clone()
            self.d_embeddings = np.empty_like(self.embeddings)
            self.d_head_w = np.empty_like(model.head_w)
            self.d_head_b = np.empty_like(model.head_b)
            self.diff = np.empty((2, n, model.embed_dim))  # anchor - positive, anchor - negative
            self.norms = np.empty((2, n))
            self.hinge = np.empty(n)
            self.active = np.empty(n, dtype=bool)
            self.positive = np.empty((2, n), dtype=bool)


def run_stack(
    model: ModelCheckpoint, windows: np.ndarray, step: StepBuffers | None = None
) -> StepBuffers:
    """One batched pass over raw windows [B, n_variables, T], written into
    ``step`` (fresh buffers when None), which is returned: ``step.embeddings``
    [B, embed_dim] and the tape ``step.layers``.

    When ``step`` is masked, layer k's output is multiplied by its ``mask``
    [B, hidden_k] before it feeds layer k+1 (or the head, for the top
    layer): zero for dropped units and 1/keep for kept ones (inverted dropout).
    """
    if step is None:
        step = StepBuffers(model, np.shape(windows))
    elif np.shape(windows) != step.shape:
        raise ValueError(f"rows of shape {np.shape(windows)}, the step buffers "
                         f"are bound to {step.shape}")
    standardize(model, windows, out=step.x)
    for layer, lt in zip(model.layers, step.layers):
        h = layer.hidden_size
        for t in range(len(lt.z)):
            if t:
                lt.z[t, :, :h] = lt.a[t]
            _cell(layer, lt, t)
        if lt.mask is not None:
            np.multiply(lt.a[1:], lt.mask, out=lt.out)
        elif lt is not step.layers[-1]:
            lt.out[...] = lt.a[1:]
    np.matmul(step.layers[-1].out[-1], model.head_w.T, out=step.embeddings)
    step.embeddings += model.head_b
    return step


def backprop_stack(model: ModelCheckpoint, step: StepBuffers) -> None:
    """The gradient of sum(step.d_embeddings * embeddings), through the pass
    that :func:`run_stack` last wrote into ``step`` (bound with ``backprop``),
    into ``step.grad``: its ``theta`` is zeroed, then each parameter's
    gradient is added into its view. Each product keeps the operand order of
    the plain expressions in the comments, so the bits are theirs."""
    top, d_embeddings, grad = step.layers[-1], step.d_embeddings, step.grad
    grad.theta.fill(0.0)
    grad.head_w += np.matmul(d_embeddings.T, top.out[-1], out=step.d_head_w)
    grad.head_b += np.add.reduce(d_embeddings, axis=0, out=step.d_head_b)
    # d_out[t]: gradient reaching the layer's output at step t from the layer
    # above, or from the head for the top layer's last step.
    top.d_out[:-1] = 0.0
    np.matmul(d_embeddings, model.head_w, out=top.d_out[-1])
    for k in range(len(model.layers) - 1, -1, -1):
        layer, lt, g = model.layers[k], step.layers[k], grad.layers[k]
        h = layer.hidden_size
        if lt.mask is not None:
            lt.d_out *= lt.mask
        da_rec, dc, dc_next, s = lt.dz[:, :h], lt.dc, lt.dc_next, lt.tmp
        da_rec.fill(0.0)
        dc_next.fill(0.0)
        for t in range(len(lt.z) - 1, -1, -1):
            gates, d_gates = lt.gates[:, t], lt.d_gates[:, t]
            gu, gf, go, ct = gates
            tc = lt.tanh_c[t]
            da = lt.d_out[t]
            da += da_rec  # da = d_out[t] + da_rec
            np.multiply(da, tc, out=d_gates[2])  # dz_o = da * tc * ...
            np.subtract(1.0, np.multiply(tc, tc, out=s), out=s)
            np.multiply(da, go, out=dc)
            dc *= s
            dc += dc_next  # dc = da * go * (1 - tc * tc) + dc_next
            np.multiply(dc, ct, out=d_gates[0])  # dz_u = dc * ct * ...
            np.multiply(dc, lt.c[t], out=d_gates[1])  # dz_f = dc * c[t] * ...
            # ... * g * (1 - g), for the sigmoid gates u, f and o at once
            d_gates[:3] *= gates[:3]
            d_gates[:3] *= np.subtract(1.0, gates[:3], out=lt.one_minus)
            np.subtract(1.0, np.multiply(ct, ct, out=s), out=s)
            np.multiply(dc, gu, out=d_gates[3])
            d_gates[3] *= s  # dz_c = dc * gu * (1 - ct * ct)
            np.multiply(dc, gf, out=dc_next)  # dc_next = dc * gf
            if k or t:  # the bottom layer's first step passes no gradient on
                # dz = dz_u @ w_u + dz_f @ w_f + dz_o @ w_o + dz_c @ w_c
                np.add.reduce(np.matmul(d_gates, layer.w, out=lt.dz_gates), axis=0, out=lt.dz)
                if k:
                    step.layers[k - 1].d_out[t] = lt.dz[:, h:]
        # One stacked matmul and one sum for the four gates, each gate's own
        # matmul and sum as before: the same bits.
        g.w += np.matmul(lt.d_gates.reshape(4, -1, h).transpose(0, 2, 1),
                         lt.z.reshape(-1, lt.z.shape[-1]), out=lt.d_w)
        g.b += np.add.reduce(lt.d_gates, axis=(1, 2), out=lt.d_b)


# Inference runs in fixed-size row chunks so that the tape of a large block
# never has to be held at once (this bounds peak memory, it is not a knob).
_INFERENCE_ROWS = 256


def embed_windows(model: ModelCheckpoint, windows: np.ndarray) -> np.ndarray:
    """Embeddings [B, embed_dim] of raw windows [B, n_variables, T], dropout
    inactive; each chunk runs on fresh step buffers."""
    out = np.empty((len(windows), model.embed_dim))
    for i in range(0, len(windows), _INFERENCE_ROWS):
        out[i : i + _INFERENCE_ROWS] = run_stack(model, windows[i : i + _INFERENCE_ROWS]).embeddings
    return out


def forward(model: ModelCheckpoint, window: ForecastWindow) -> np.ndarray:
    """Embedding of one forecast window (inference: dropout inactive)."""
    if window.n_variables != model.n_variables:
        raise ValueError(
            f"window has {window.n_variables} variables, model expects {model.n_variables}"
        )
    if window.width != 2 * model.t_half + 1:
        raise ValueError(
            f"window width {window.width}, model expects {2 * model.t_half + 1}"
        )
    return embed_windows(model, window.data[None])[0]


@dataclass(frozen=True, eq=False)
class EmbeddingBlock:
    """Precomputed embeddings for a run of cycles at one (station, lead).

    Blocks compare by identity: a search base built from one serves no other.
    """

    station: str
    lead_s: int
    cycles: np.ndarray  # cycle indices, ascending
    valid_times: np.ndarray  # seconds, aligned to cycles
    vectors: np.ndarray  # [n_cycles, embed_dim]; masked rows are zero
    available: np.ndarray  # bool per cycle

    def position(self, cycle: int) -> int:
        i, found = locate(self.cycles, cycle)
        if not found:
            raise KeyError(f"cycle index {cycle} not covered by this block")
        return int(i)


def embed_block(
    model: ModelCheckpoint,
    archive: ForecastArchive,
    station: int,
    lead: int,
    cycles,
) -> EmbeddingBlock:
    """Embeddings for every cycle in the range; a cycle whose
    :func:`~analogkit.archive.window_block` row is unavailable is masked.

    Weights near the float limit may overflow inside the LSTM, where the
    gates saturate to their limits. An available embedding that is not
    finite, or so large that distances between embeddings would overflow,
    raises :class:`DataError`.
    """
    if list(archive.variables) != list(model.variables):
        raise DataError(
            f"archive variables {','.join(archive.variables)} do not match "
            f"model variables {','.join(model.variables)}"
        )
    cycles = sorted_distinct(np.asarray(cycles, dtype=int))
    data, available = window_block(archive, station, lead, cycles, model.t_half)
    vectors = np.zeros((len(cycles), model.embed_dim))
    if available.any():
        with np.errstate(over="ignore", invalid="ignore"):
            vectors[available] = embed_windows(model, data[available])
        # |v| < bound keeps the sum of squared differences of any two rows
        # finite; NaN fails the test too
        bound = np.sqrt(np.finfo(float).max / (4 * model.embed_dim))
        if not np.all(np.abs(vectors[available]) < bound):
            raise DataError(
                "checkpoint weights give non-finite embeddings or embedding distances "
                f"at station {archive.stations[station]}, lead {int(archive.leads[lead])} s"
            )
    return EmbeddingBlock(
        station=archive.stations[station],
        lead_s=int(archive.leads[lead]),
        cycles=cycles,
        valid_times=archive.cycles[cycles] + int(archive.leads[lead]),
        vectors=vectors,
        available=available,
    )


# ---------------------------------------------------------------------------
# Checkpoint file format: line-oriented text. `key=value` metadata lines,
# then named arrays as `@array <name> <dim...>` followed by one line of
# space-separated values with 17 significant digits (exact round-trip).
# ---------------------------------------------------------------------------

_MAGIC = "analogkit checkpoint v1"
_META_KEYS = ("variables", "t_half", "seed", "iterations", "hidden_sizes", "embed_dim")


def storable_name(name: str) -> bool:
    """Whether a checkpoint's ``variables=`` line holds ``name`` as it is:
    no ``,``, ``=`` or newline, and no space at either end (values are stripped)."""
    return not any(ch in name for ch in ",=\n") and name == name.strip()


def save_checkpoint(model: ModelCheckpoint, path) -> None:
    for v in model.variables:
        if not storable_name(v):
            raise ValueError(f"variable name {v!r} cannot be stored in a checkpoint")
    with open_output(path) as fh:
        fh.write(_MAGIC + "\n")
        for key in _META_KEYS:  # the keys load_checkpoint knows
            value = getattr(model, key)
            text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else value
            fh.write(f"{key}={text}\n")

        def write_array(name, arr):
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"@array {name} {dims}\n")
            fh.write(" ".join(format_float(v) for v in arr.ravel(order="C")) + "\n")

        write_array("norm.mean", model.norm_mean)
        write_array("norm.sigma", model.norm_sigma)
        for name, p in named_parameters(model):
            write_array(name, p)


def load_checkpoint(path) -> ModelCheckpoint:
    """Read a checkpoint; any malformed content raises :class:`SchemaError`.

    :func:`archive.read_settings` reads the metadata lines. A repeated array or
    one the model has no place for is malformed. An unreadable path is a :class:`DataError`.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != _MAGIC:
        raise SchemaError(f"{path}: not a checkpoint file")
    meta_lines = []
    arrays: dict[str, tuple[int, str, str]] = {}  # name -> (line number, dims, values) as read
    numbered = enumerate(lines[1:], start=2)
    for number, line in numbered:
        if not line.startswith("@array "):
            meta_lines.append((number, line))
            continue
        name, _, dims = line[len("@array "):].partition(" ")
        _, values = next(numbered, (None, None))
        if values is None:
            raise SchemaError(f"{path}: array {name} has no value line")
        if name in arrays:
            raise SchemaError(f"{path}: line {number}: repeated array {name}")
        arrays[name] = (number, dims, values)
    meta = read_settings(path, meta_lines, _META_KEYS.__contains__)  # key -> (line, value)
    try:
        variables = meta["variables"][1].split(",")
        t_half, seed, iterations, embed_dim = (
            parse_int(meta[key][1]) for key in ("t_half", "seed", "iterations", "embed_dim"))
        hidden_sizes = tuple(map(parse_int, meta["hidden_sizes"][1].split(",")))
    except KeyError as missing:
        raise SchemaError(f"{path}: missing metadata key {missing}") from None
    except ValueError:
        raise SchemaError(f"{path}: non-integer metadata value") from None
    if t_half < 0 or seed < 0 or min(hidden_sizes) < 1 or embed_dim < 1:
        raise SchemaError(f"{path}: metadata value out of range")
    n_values = sum(len(values.split()) for _, _, values in arrays.values())
    if max(hidden_sizes) ** 2 > n_values or embed_dim > n_values:  # checked before allocating
        raise SchemaError(f"{path}: metadata sizes exceed the stored array values")
    # The metadata fixes every array's name and shape; fill a model built from it.
    model = init_model(variables, t_half, hidden_sizes, embed_dim, seed)
    model.iterations = iterations
    expected = dict([("norm.mean", model.norm_mean), ("norm.sigma", model.norm_sigma)]
                    + named_parameters(model))
    for name, (number, _, _) in arrays.items():
        if name not in expected:
            raise SchemaError(f"{path}: line {number}: unknown array {name}")
    for name, target in expected.items():
        if name not in arrays:
            raise SchemaError(f"{path}: missing array {name}")
        _, dims, values = arrays[name]
        try:
            shape = tuple(map(parse_int, dims.split()))
            flat = np.array(list(map(parse_decimal, values.split())), dtype=float)
        except ValueError:
            raise SchemaError(f"{path}: array {name} has a non-numeric dimension or value") from None
        if not np.all(np.isfinite(flat)):
            raise SchemaError(f"{path}: array {name} has a non-finite value")
        if shape != target.shape or flat.size != target.size:
            raise SchemaError(f"{path}: array {name} has shape {shape} and {flat.size} values, "
                              f"expected {target.shape}")
        target[...] = flat.reshape(shape)
    return model
