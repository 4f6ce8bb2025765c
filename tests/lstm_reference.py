"""Per-sequence LSTM forward pass and BPTT, and per-name ADAM, kept as test
oracles.

This is the list-of-vectors implementation that the batched kernel in
``analogkit.network`` replaced: one sequence at a time, one timestep at a
time, with every intermediate value held in Python lists. It runs the
anchor, positive and negative of each triplet as three separate passes and
draws each triplet's dropout masks layer by layer. Tests compare the
batched ``forward``, ``embed_block``, ``evaluate_loss`` and ``backward``
against it. ``adam_step`` is the update that walked the named parameter
arrays one by one, with a moment array per name; the flat ``adam_step`` in
``analogkit.training`` must match it bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from analogkit.errors import DivergenceError
from analogkit.network import ModelCheckpoint, named_parameters
from analogkit.training import TrainConfig, triplet_loss


def standardize(model: ModelCheckpoint, data: np.ndarray) -> np.ndarray:
    """Per-variable (x - mean) / sigma of one window [n_variables, T]."""
    safe = np.where(model.norm_sigma > 0, model.norm_sigma, 1.0)
    z = (data - model.norm_mean[:, None]) / safe[:, None]
    z[model.norm_sigma <= 0, :] = 0.0
    return z


class Cache:
    """Intermediate values of one sequence pass, kept for backpropagation."""

    __slots__ = ("x", "a", "c", "g_u", "g_f", "g_o", "c_tilde", "h_in", "masks", "keep")

    def __init__(self):
        self.x = []  # [layer][t] input actually fed (post-dropout)
        self.a = []  # [layer][t] with index 0 = initial zero state
        self.c = []
        self.g_u = []
        self.g_f = []
        self.g_o = []
        self.c_tilde = []
        self.h_in = None  # head input (post-dropout)
        self.masks = None
        self.keep = 1.0


def run_sequence(
    model: ModelCheckpoint,
    seq: np.ndarray,
    masks: list[np.ndarray] | None = None,
    keep: float = 1.0,
) -> tuple[np.ndarray, Cache]:
    """Run a standardized sequence [T, n_variables] through the stack.

    ``masks`` holds one dropout mask per layer boundary: masks[k] scales the
    output of layer k before it feeds layer k+1 (or the head for the top
    layer). Masked activations are rescaled by 1/keep (inverted dropout).
    """
    cache = Cache()
    cache.masks = masks
    cache.keep = keep
    T = seq.shape[0]
    inputs = [seq[t] for t in range(T)]
    for k, layer in enumerate(model.layers):
        h = layer.hidden_size
        a = [np.zeros(h)]
        c = [np.zeros(h)]
        g_u, g_f, g_o, c_tilde = [], [], [], []
        for t in range(T):
            z = np.concatenate([a[t], inputs[t]])
            gu = expit(layer.w_u @ z + layer.b_u)
            gf = expit(layer.w_f @ z + layer.b_f)
            go = expit(layer.w_o @ z + layer.b_o)
            ct = np.tanh(layer.w_c @ z + layer.b_c)
            c.append(gu * ct + gf * c[t])
            a.append(go * np.tanh(c[t + 1]))
            g_u.append(gu)
            g_f.append(gf)
            g_o.append(go)
            c_tilde.append(ct)
        cache.x.append(inputs)
        cache.a.append(a)
        cache.c.append(c)
        cache.g_u.append(g_u)
        cache.g_f.append(g_f)
        cache.g_o.append(g_o)
        cache.c_tilde.append(c_tilde)
        outputs = a[1:]
        if masks is not None and k < len(model.layers) - 1:
            inputs = [o * masks[k] / keep for o in outputs]
        else:
            inputs = outputs
    h_top = cache.a[-1][-1]
    if masks is not None:
        h_top = h_top * masks[-1] / keep
    cache.h_in = h_top
    embedding = model.head_w @ h_top + model.head_b
    return embedding, cache


def backprop_sequence(
    model: ModelCheckpoint,
    cache: Cache,
    d_embedding: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate gradients of (d_embedding . embedding) into ``grads``."""
    masks, keep = cache.masks, cache.keep
    T = len(cache.x[0])
    L = len(model.layers)
    grads["head.w"] += np.outer(d_embedding, cache.h_in)
    grads["head.b"] += d_embedding
    dh = model.head_w.T @ d_embedding
    if masks is not None:
        dh = dh * masks[-1] / keep
    # d_above[t]: gradient flowing into the current layer's activation a[t]
    # from layers above (or the head, for the top layer at the last step).
    d_above = [np.zeros(model.layers[-1].hidden_size) for _ in range(T)]
    d_above[T - 1] = dh
    for k in range(L - 1, -1, -1):
        layer = model.layers[k]
        h = layer.hidden_size
        da_rec = np.zeros(h)
        dc_next = np.zeros(h)
        dx = [None] * T
        for t in range(T - 1, -1, -1):
            da = d_above[t] + da_rec
            tc = np.tanh(cache.c[k][t + 1])
            gu, gf, go = cache.g_u[k][t], cache.g_f[k][t], cache.g_o[k][t]
            ct = cache.c_tilde[k][t]
            dz_o = da * tc * go * (1.0 - go)
            dc = da * go * (1.0 - tc * tc) + dc_next
            dz_u = dc * ct * gu * (1.0 - gu)
            dz_c = dc * gu * (1.0 - ct * ct)
            dz_f = dc * cache.c[k][t] * gf * (1.0 - gf)
            dc_next = dc * gf
            z = np.concatenate([cache.a[k][t], cache.x[k][t]])
            grads[f"layer{k}.w_u"] += np.outer(dz_u, z)
            grads[f"layer{k}.b_u"] += dz_u
            grads[f"layer{k}.w_f"] += np.outer(dz_f, z)
            grads[f"layer{k}.b_f"] += dz_f
            grads[f"layer{k}.w_o"] += np.outer(dz_o, z)
            grads[f"layer{k}.b_o"] += dz_o
            grads[f"layer{k}.w_c"] += np.outer(dz_c, z)
            grads[f"layer{k}.b_c"] += dz_c
            dz = (
                layer.w_u.T @ dz_u
                + layer.w_f.T @ dz_f
                + layer.w_o.T @ dz_o
                + layer.w_c.T @ dz_c
            )
            da_rec = dz[:h]
            dx[t] = dz[h:]
        if k > 0:
            if masks is not None:
                d_above = [dx[t] * masks[k - 1] / keep for t in range(T)]
            else:
                d_above = dx


def draw_masks(model: ModelCheckpoint, rate: float, rng: np.random.Generator):
    """One mask per layer boundary (inter-layer plus pre-head)."""
    if rate <= 0:
        return None
    return [
        (rng.random(layer.hidden_size) >= rate).astype(float) for layer in model.layers
    ]


def _triplets(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(anchor, positive, negative) windows from rows laid out as the
    batched ``backward`` takes them: anchors, then positives, then negatives."""
    return list(zip(*np.split(rows, 3)))


def backward(
    model: ModelCheckpoint,
    rows: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[dict[str, np.ndarray], float]:
    """Mean hinge loss over a batch and its exact parameter gradients.

    The three passes of each triplet share the model parameters and, when
    dropout is active, the same per-triplet masks. Triplets whose hinge is
    zero contribute zero gradient. Raises :class:`DivergenceError` when any
    loss or gradient comes out non-finite.
    """
    batch = _triplets(rows)
    if not batch:
        raise ValueError("batch must be non-empty")
    grads = {name: np.zeros_like(p) for name, p in named_parameters(model)}
    total = 0.0
    inv_n = 1.0 / len(batch)
    keep = 1.0 - cfg.dropout_rate
    for triplet in batch:
        masks = draw_masks(model, cfg.dropout_rate, rng)
        seqs = [standardize(model, data).T for data in triplet]
        (e_a, cache_a) = run_sequence(model, seqs[0], masks, keep)
        (e_p, cache_p) = run_sequence(model, seqs[1], masks, keep)
        (e_n, cache_n) = run_sequence(model, seqs[2], masks, keep)
        d_ap = np.linalg.norm(e_a - e_p)
        d_an = np.linalg.norm(e_a - e_n)
        hinge = d_ap - d_an + cfg.alpha
        if hinge <= 0:
            continue
        total += hinge
        u_ap = (e_a - e_p) / d_ap if d_ap > 0 else np.zeros_like(e_a)
        u_an = (e_a - e_n) / d_an if d_an > 0 else np.zeros_like(e_a)
        backprop_sequence(model, cache_a, (u_ap - u_an) * inv_n, grads)
        backprop_sequence(model, cache_p, -u_ap * inv_n, grads)
        backprop_sequence(model, cache_n, u_an * inv_n, grads)
    loss = total * inv_n
    if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
        raise DivergenceError(iteration=-1)
    return grads, loss


def embed(model: ModelCheckpoint, data: np.ndarray) -> np.ndarray:
    """Embedding of one raw window [n_variables, T], dropout inactive."""
    return run_sequence(model, standardize(model, data).T)[0]


def evaluate_loss(model: ModelCheckpoint, rows: np.ndarray, alpha: float) -> float:
    """Mean hinge loss without dropout (evaluation mode)."""
    triplets = _triplets(rows)
    if not triplets:
        raise ValueError("no triplets to evaluate")
    total = 0.0
    for t in triplets:
        embeddings = [embed(model, data) for data in t]
        total += triplet_loss(*embeddings, alpha)
    return total / len(triplets)


@dataclass
class AdamState:
    """First/second moment accumulators, one array per named parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(model: ModelCheckpoint) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(p) for name, p in named_parameters(model)},
        v={name: np.zeros_like(p) for name, p in named_parameters(model)},
        step=0,
    )


def adam_step(
    model: ModelCheckpoint,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelCheckpoint, AdamState]:
    """One ADAM update; returns a new model and state, inputs untouched."""
    new_model = model.clone()
    t = state.step + 1
    b1, b2, eps = 0.9, 0.999, 1e-8  # written out, so a change to training's constants shows
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
