"""Stacked-LSTM encoder with a dense head producing fixed-size embeddings.

Each LSTM cell step computes, with z = [a_prev; x] (previous activation
concatenated above the current input):

    update gate   G_u = sigmoid(W_u z + b_u)
    forget gate   G_f = sigmoid(W_f z + b_f)
    output gate   G_o = sigmoid(W_o z + b_o)
    candidate     ct  = tanh(W_c z + b_c)
    cell state    c   = G_u * ct + G_f * c_prev
    activation    a   = G_o * tanh(c)

Layers are stacked in depth: layer k consumes layer k-1's activation at
each timestep. The top layer's activation at the final timestep feeds a
linear head, whose output is the embedding. Inputs are standardized per
variable with statistics stored on the checkpoint; initial states are zero.

Every pass is batched over rows, one row per window. A pass takes raw
windows [B, n_variables, T] and runs step t of all B rows at once, so the
cell works on z [B, hidden + input] and states [B, hidden];
``lstm_cell_step`` is the one-row case. The tape of a pass holds, per
layer, its values stacked over time as [T, B, ...], and BPTT runs back over
the same layout. A training batch of B triplets is 3B rows: anchors in rows
[0, B), positives in [B, 2B) and negatives in [2B, 3B), with each triplet's
dropout masks repeated on its three rows. Inference runs in chunks of 256
rows.

All trained parameters live in one float64 vector, ``ModelCheckpoint.theta``,
in the order of ``named_parameters`` and of the checkpoint file. The gate
matrices and biases of each ``LstmLayerParams`` and ``head_w``/``head_b`` are
views of its slices, so each gate keeps its own matmul. Gradients and ADAM
moments are vectors of the same layout.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from scipy.special import expit

from .archive import (
    ForecastArchive,
    ForecastWindow,
    format_float,
    open_output,
    read_text,
    window_block,
)
from .errors import DataError, SchemaError, WindowUnavailable


@dataclass
class LstmLayerParams:
    """Gate weight matrices [hidden, hidden + input] and bias vectors [hidden]."""

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

    @property
    def zero_sigma_variables(self) -> list[str]:
        """Variables that standardize to 0 because their training sigma is 0."""
        return [v for v, s in zip(self.variables, self.norm_sigma) if s <= 0]

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
        views = (view for _, view in named_parameters(self, theta))
        self.layers = [copy.copy(layer) for layer in self.layers]
        for layer in self.layers:
            for f in _LAYER_FIELDS:
                setattr(layer, f, next(views))
        self.head_w, self.head_b = views


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


def _cell(layer: LstmLayerParams, z: np.ndarray, c_prev: np.ndarray):
    """The cell equations on rows: z [B, hidden + input] is [a_prev; x] per
    row, c_prev [B, hidden]. Returns ((g_u, g_f, g_o, c_tilde), c, a)."""
    g_u = expit(z @ layer.w_u.T + layer.b_u)
    g_f = expit(z @ layer.w_f.T + layer.b_f)
    g_o = expit(z @ layer.w_o.T + layer.b_o)
    c_tilde = np.tanh(z @ layer.w_c.T + layer.b_c)
    c = g_u * c_tilde + g_f * c_prev
    return (g_u, g_f, g_o, c_tilde), c, g_o * np.tanh(c)


def lstm_cell_step(layer: LstmLayerParams, x: np.ndarray, prev: LstmState) -> LstmState:
    """One cell step; concatenation order is [a_prev; x]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.input_size,):
        raise ValueError(f"input shape {x.shape}, layer expects ({layer.input_size},)")
    if prev.a.shape != (layer.hidden_size,):
        raise ValueError(
            f"state length {prev.a.shape[0]}, layer expects {layer.hidden_size}"
        )
    _, c, a = _cell(layer, np.concatenate([prev.a, x])[None, :], prev.c[None, :])
    return LstmState(a=a[0], c=c[0])


def standardize(model: ModelCheckpoint, data: np.ndarray) -> np.ndarray:
    """Per-variable (x - mean) / sigma over [..., n_variables, T]; variables
    with sigma 0 map to 0."""
    safe = np.where(model.norm_sigma > 0, model.norm_sigma, 1.0)
    z = (data - model.norm_mean[:, None]) / safe[:, None]
    z[..., model.norm_sigma <= 0, :] = 0.0
    return z


@dataclass
class LayerTape:
    """One layer's values over a batched pass, stacked over time [T, B, ...]."""

    z: np.ndarray  # [T, B, hidden + input]: cell input [a_prev; x]
    gates: np.ndarray  # [4, T, B, hidden]: g_u, g_f, g_o, c_tilde
    c: np.ndarray  # [T + 1, B, hidden]; c[0] is the zero initial state
    a: np.ndarray  # [T + 1, B, hidden]; a[0] is the zero initial state
    mask: np.ndarray | None  # [B, hidden] dropout on the output, scaled by 1/keep

    def output(self) -> np.ndarray:
        """Activations [T, B, hidden] as passed on, after dropout."""
        return self.a[1:] if self.mask is None else self.a[1:] * self.mask


def run_stack(
    model: ModelCheckpoint, windows: np.ndarray, masks: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[LayerTape]]:
    """Embeddings [B, embed_dim] of raw windows [B, n_variables, T], with the tape.

    ``masks[k]`` [B, hidden_k] multiplies layer k's output before it feeds
    layer k+1 (or the head, for the top layer): zero for dropped units and
    1/keep for kept ones (inverted dropout).
    """
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
            lt.gates[:, t], lt.c[t + 1], lt.a[t + 1] = _cell(layer, lt.z[t], lt.c[t])
        tape.append(lt)
        x = lt.output()
    return x[-1] @ model.head_w.T + model.head_b, tape


def backprop_stack(
    model: ModelCheckpoint,
    tape: list[LayerTape],
    d_embeddings: np.ndarray,
    grad: np.ndarray,
) -> None:
    """Accumulate gradients of sum(d_embeddings * embeddings) into the vector ``grad``."""
    views = dict(named_parameters(model, grad))
    views["head.w"] += d_embeddings.T @ tape[-1].output()[-1]
    views["head.b"] += d_embeddings.sum(axis=0)
    # d_out[t]: gradient reaching the layer's output at step t from the layer
    # above, or from the head for the top layer's last step.
    d_out = np.zeros_like(tape[-1].a[1:])
    d_out[-1] = d_embeddings @ model.head_w
    for k in range(len(model.layers) - 1, -1, -1):
        layer, lt = model.layers[k], tape[k]
        h = layer.hidden_size
        d_above = d_out if lt.mask is None else d_out * lt.mask
        d_gates = np.empty_like(lt.gates)  # pre-activation gradients [4, T, B, h]
        d_out = np.empty(lt.z.shape[:2] + (layer.input_size,))  # to the layer below
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
            dz = dz_u @ layer.w_u + dz_f @ layer.w_f + dz_o @ layer.w_o + dz_c @ layer.w_c
            da_rec = dz[:, :h]
            d_out[t] = dz[:, h:]
        z_rows = lt.z.reshape(-1, lt.z.shape[-1])
        for i, g in enumerate(GATES):
            views[f"layer{k}.w_{g}"] += d_gates[i].reshape(-1, h).T @ z_rows
            views[f"layer{k}.b_{g}"] += d_gates[i].sum(axis=(0, 1))


# Inference runs in fixed-size row chunks so that the tape of a large block
# never has to be held at once (this bounds peak memory, it is not a knob).
_INFERENCE_ROWS = 256


def embed_windows(model: ModelCheckpoint, windows: np.ndarray) -> np.ndarray:
    """Embeddings [B, embed_dim] of raw windows [B, n_variables, T], dropout inactive."""
    out = np.empty((len(windows), model.embed_dim))
    for i in range(0, len(windows), _INFERENCE_ROWS):
        out[i : i + _INFERENCE_ROWS] = run_stack(model, windows[i : i + _INFERENCE_ROWS])[0]
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


@dataclass(frozen=True)
class EmbeddingBlock:
    """Precomputed embeddings for a run of cycles at one (station, lead)."""

    station: str
    lead_s: int
    cycles: np.ndarray  # cycle indices, ascending
    valid_times: np.ndarray  # seconds, aligned to cycles
    vectors: np.ndarray  # [n_cycles, embed_dim]; masked rows are zero
    available: np.ndarray  # bool per cycle

    def position(self, cycle: int) -> int:
        i = int(np.searchsorted(self.cycles, cycle))
        if i >= len(self.cycles) or self.cycles[i] != cycle:
            raise KeyError(f"cycle index {cycle} not covered by this block")
        return i


def embed_block(
    model: ModelCheckpoint,
    archive: ForecastArchive,
    station: int,
    lead: int,
    cycles,
) -> EmbeddingBlock:
    """Embeddings for every cycle in the range; unavailable windows are masked."""
    if list(archive.variables) != list(model.variables):
        raise DataError(
            f"archive variables {','.join(archive.variables)} do not match "
            f"model variables {','.join(model.variables)}"
        )
    cycles = np.asarray(sorted(set(int(c) for c in np.asarray(cycles, dtype=int))), dtype=int)
    n = len(cycles)
    vectors = np.zeros((n, model.embed_dim))
    try:
        data, available = window_block(archive, station, lead, cycles, model.t_half)
    except WindowUnavailable:
        # lead too close to the axis edge: no cycle has a window
        data, available = None, np.zeros(n, dtype=bool)
    if available.any():
        vectors[available] = embed_windows(model, data[available])
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


def save_checkpoint(model: ModelCheckpoint, path) -> None:
    for v in model.variables:
        if any(ch in v for ch in ",=\n"):
            raise ValueError(f"variable name {v!r} cannot be stored in a checkpoint")
    with open_output(path) as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"variables={','.join(model.variables)}\n")
        fh.write(f"t_half={model.t_half}\n")
        fh.write(f"seed={model.seed}\n")
        fh.write(f"iterations={model.iterations}\n")
        fh.write(f"hidden_sizes={','.join(str(h) for h in model.hidden_sizes)}\n")
        fh.write(f"embed_dim={model.embed_dim}\n")

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

    A path that cannot be read raises :class:`DataError`.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != _MAGIC:
        raise SchemaError(f"{path}: not a checkpoint file")
    meta: dict[str, str] = {}
    arrays: dict[str, tuple[str, str]] = {}  # name -> (dims, values) as read
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("@array "):
            name, _, dims = line[len("@array "):].partition(" ")
            if i + 1 >= len(lines):
                raise SchemaError(f"{path}: array {name} has no value line")
            arrays[name] = (dims, lines[i + 1])
            i += 1
        elif "=" in line:
            key, _, value = line.partition("=")
            meta[key] = value
        elif line.strip():
            raise SchemaError(f"{path}: unrecognized line {i + 1}")
        i += 1
    try:
        variables = meta["variables"].split(",")
        t_half = int(meta["t_half"])
        seed = int(meta["seed"])
        iterations = int(meta["iterations"])
        hidden_sizes = tuple(int(h) for h in meta["hidden_sizes"].split(","))
        embed_dim = int(meta["embed_dim"])
    except KeyError as missing:
        raise SchemaError(f"{path}: missing metadata key {missing}") from None
    except ValueError:
        raise SchemaError(f"{path}: non-integer metadata value") from None
    if t_half < 0 or seed < 0 or min(hidden_sizes) < 1 or embed_dim < 1:
        raise SchemaError(f"{path}: metadata value out of range")
    n_values = sum(len(values.split()) for _, values in arrays.values())
    if max(hidden_sizes) ** 2 > n_values or embed_dim > n_values:  # checked before allocating
        raise SchemaError(f"{path}: metadata sizes exceed the stored array values")
    # The metadata fixes every array's name and shape; fill a model built from it.
    model = init_model(variables, t_half, hidden_sizes, embed_dim, seed)
    model.iterations = iterations
    expected = [("norm.mean", model.norm_mean), ("norm.sigma", model.norm_sigma)]
    for name, target in expected + named_parameters(model):
        if name not in arrays:
            raise SchemaError(f"{path}: missing array {name}")
        dims, values = arrays[name]
        try:
            shape = tuple(int(d) for d in dims.split())
            flat = np.array([float(v) for v in values.split()], dtype=float)
        except ValueError:
            raise SchemaError(f"{path}: array {name} has a non-numeric dimension or value") from None
        if not np.all(np.isfinite(flat)):
            raise SchemaError(f"{path}: array {name} has a non-finite value")
        if shape != target.shape or flat.size != target.size:
            raise SchemaError(f"{path}: array {name} has shape {shape} and {flat.size} values, "
                              f"expected {target.shape}")
        target[...] = flat.reshape(shape)
    return model
