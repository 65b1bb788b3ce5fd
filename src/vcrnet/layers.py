"""Composite layers: linear, LayerNorm, feed-forward, and BiLSTM.

Parameter containers are plain dataclasses of Tensors, and lists of them.
`named_tensors` walks such a tree and is the one rule that names its
tensors: a dataclass field by its name, a list item by its index, in
declaration order. The model's flat parameter buffer and its checkpoints
are both laid out in that order.

Initialization: weight matrices uniform in [-1/sqrt(d_in), +1/sqrt(d_in)]
with d_in the matrix's own input width, biases zero, LSTM forget-gate bias
+1.0.

`linear`, `layer_norm`, `feed_forward` and `bilstm` are fused ops: one
tape entry each, with a hand-written backward rule (`attention` adds
`sdpa` and `multi_head`). `feed_forward` serves both the attention units
and, as its score MLP, the pooling in `reduction`. `layer_norm` also takes
a residual pair, LN(x + y), without keeping the sum. `feed_forward` holds
its input and its dropout draw, a boolean mask, and recomputes its hidden
activation in the backward, so a large taped chunk stays small in memory;
`layer_norm` recomputes its normalized input and `multi_head` its
projections the same way.
`bilstm` packs each sequence's live steps to the front, sorts the
sequences longest first and runs both directions in one loop over the
longest sequence, so no step is masked. Its parameters are stored the way
it reads them: `w_x`, `w_h` and `b` each hold both directions on a leading
axis, forward first, and its rule returns their gradients in that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Optional

import numpy as np

from vcrnet.tensor import Tensor, ShapeError, record_op


def named_tensors(params, prefix: str) -> Iterator[tuple[str, Tensor]]:
    """(dotted name, Tensor) for every Tensor under `params`, in a fixed order.

    A Tensor is named `prefix`; a list names its items `prefix.0`,
    `prefix.1`, ...; a dataclass names its fields `prefix.<field>` in field
    order. Any other value (a head count, a dropout rate, None)
    holds no tensor and yields nothing.
    """
    if isinstance(params, Tensor):
        yield prefix, params
    elif isinstance(params, list):
        for i, item in enumerate(params):
            yield from named_tensors(item, f"{prefix}.{i}")
    elif is_dataclass(params):
        for field in fields(params):
            yield from named_tensors(getattr(params, field.name), f"{prefix}.{field.name}")


def _uniform(rng: np.random.Generator, d_in: int, shape: tuple) -> Tensor:
    lim = 1.0 / np.sqrt(d_in)
    return Tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)


def _zeros(shape: tuple) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


# -- linear ----------------------------------------------------------------


@dataclass
class LinearParams:
    weight: Tensor
    bias: Tensor


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> LinearParams:
    return LinearParams(weight=_uniform(rng, d_in, (d_in, d_out)), bias=_zeros((d_out,)))


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """x @ weight + bias over the last axis of x, as one fused op."""
    xd, w, b = x.data, p.weight.data, p.bias.data
    d_in, d_out = w.shape
    if xd.ndim < 2 or xd.shape[-1] != d_in or b.shape != (d_out,):
        raise ShapeError(
            f"linear: {w.shape} weight and {b.shape} bias applied to shape {xd.shape}"
        )

    def rule(g):
        flat = g.reshape(-1, d_out)
        return g @ w.T, xd.reshape(-1, d_in).T @ flat, flat.sum(axis=0)

    return record_op(xd @ w + b, (x, p.weight, p.bias), rule)


# -- layer norm ------------------------------------------------------------


LAYER_NORM_EPS = 1e-5


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


def init_layer_norm(d: int) -> LayerNormParams:
    return LayerNormParams(gamma=Tensor(np.ones(d), requires_grad=True), beta=_zeros((d,)))


def _last_axis_mean(a: np.ndarray, d: int) -> np.ndarray:
    # np.mean's own add-reduce and true divide, without its Python-level
    # wrapper: the same bits for any width
    s = a.sum(axis=-1, keepdims=True)
    s /= d
    return s


def _normalize(a: np.ndarray, d: int) -> tuple:
    """(x̂, 1/σ) of `a` over its last axis, of width d."""
    mu = _last_axis_mean(a, d)
    xhat = a - mu
    var = _last_axis_mean(xhat * xhat, d)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    return xhat, inv


def layer_norm(x: Tensor, p: LayerNormParams, y: Optional[Tensor] = None) -> Tensor:
    """Normalize the last axis of x, or of the residual sum x + y, to zero
    mean / unit variance, then apply γ, β.

    Implemented as one fused op: the composed-op formulation would cost a
    dozen tape entries per call and this sits inside every attention unit.
    Its tape entry keeps only its inputs: the backward recomputes the sum
    x + y, x̂ and 1/σ by the forward's own expressions, so its gradients
    are those of a rule that kept them, bit for bit. x and y get the same
    gradient.
    """
    d = x.data.shape[-1]
    if p.gamma.data.shape != (d,) or p.beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm params for width {p.gamma.data.shape} applied to last axis {d}"
        )
    if y is not None and y.data.shape != x.data.shape:
        raise ShapeError(f"layer_norm of a sum of shapes {x.data.shape} and {y.data.shape}")
    xhat, inv = _normalize(x.data if y is None else x.data + y.data, d)
    out = xhat * p.gamma.data
    out += p.beta.data
    gamma_d = p.gamma.data

    def rule(g):
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv, in place
        xhat, inv = _normalize(x.data if y is None else x.data + y.data, d)
        t = g * xhat
        dgamma = t.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dx = g * gamma_d
        np.multiply(dx, xhat, out=t)
        np.multiply(xhat, _last_axis_mean(t, d), out=t)
        dx -= _last_axis_mean(dx, d)
        dx -= t
        dx *= inv
        if y is None:
            return dx, dgamma, dbeta
        return dx, dx, dgamma, dbeta

    inputs = (x, p.gamma, p.beta) if y is None else (x, y, p.gamma, p.beta)
    return record_op(out, inputs, rule)


# -- feed-forward ----------------------------------------------------------


@dataclass
class FeedForwardParams:
    lin1: LinearParams
    lin2: LinearParams
    dropout: float = 0.0


def init_feed_forward(
    rng: np.random.Generator, d: int, d_ff: int, p_drop: float = 0.0
) -> FeedForwardParams:
    return FeedForwardParams(
        lin1=init_linear(rng, d, d_ff),
        lin2=init_linear(rng, d_ff, d),
        dropout=p_drop,
    )


def feed_forward(
    x: Tensor, p: FeedForwardParams, rng: Optional[np.random.Generator] = None
) -> Tensor:
    """linear, relu, inverted dropout, linear: one fused op.

    Dropout runs iff a generator `rng` is given and `p.dropout` > 0: the
    kept units are drawn from `rng` as a boolean mask and scaled by the
    scalar 1/(1-p). Without a generator the op draws nothing and scales
    nothing. The relu is `np.maximum(h, 0)`, so a NaN pre-activation stays
    NaN and reaches the output, where `Tape.first_non_finite` names this op.

    Its tape entry keeps the input and the boolean dropout mask, not the
    (..., d_ff) hidden activation: the backward recomputes that from the
    input, one more matmul for the largest arrays a taped attention unit
    would otherwise hold. Its gradient mask is a > 0, exactly the relu
    mask and the dropout mask together.
    """
    drop = p.dropout
    if not 0.0 <= drop < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {drop}")
    xd = x.data
    w1, b1 = p.lin1.weight.data, p.lin1.bias.data
    w2, b2 = p.lin2.weight.data, p.lin2.bias.data
    d_in, d_ff = w1.shape
    d_out = w2.shape[1]
    if xd.ndim < 2 or xd.shape[-1] != d_in or w2.shape[0] != d_ff:
        raise ShapeError(
            f"feed_forward: {w1.shape} and {w2.shape} weights applied to shape {xd.shape}"
        )
    keep, scale = None, 1.0 / (1.0 - drop)
    if rng is not None and drop > 0.0:
        keep = rng.random(xd.shape[:-1] + (d_ff,)) >= drop

    def hidden():
        """The hidden activation after relu and dropout, built in place."""
        h = xd @ w1
        h += b1
        a = np.maximum(h, 0.0, out=h)
        if keep is not None:
            a *= keep
            a *= scale
        return a

    def rule(g):
        a = hidden()
        flat = g.reshape(-1, d_out)
        g_h = g @ w2.T
        g_h *= a > 0
        if keep is not None:
            g_h *= scale
        flat_h = g_h.reshape(-1, d_ff)
        return (g_h @ w1.T, xd.reshape(-1, d_in).T @ flat_h, flat_h.sum(axis=0),
                a.reshape(-1, d_ff).T @ flat, flat.sum(axis=0))

    a = hidden()
    inputs = (x, p.lin1.weight, p.lin1.bias, p.lin2.weight, p.lin2.bias)
    return record_op(a @ w2 + b2, inputs, rule)


# -- LSTM ------------------------------------------------------------------


@dataclass
class BiLstmParams:
    """Both directions' gate parameters, stacked on a leading axis of 2 with
    the forward direction at index 0; each direction's gate blocks are fused
    in i/f/g/o order (input, forget, candidate, output)."""

    w_x: Tensor  # (2, d_in, 4·d_h)
    w_h: Tensor  # (2, d_h, 4·d_h)
    b: Tensor  # (2, 4·d_h)

    @property
    def d_h(self) -> int:
        return self.w_h.data.shape[1]


def init_bilstm(rng: np.random.Generator, d_in: int, d_h: int) -> BiLstmParams:
    w_x = np.empty((2, d_in, 4 * d_h))
    w_h = np.empty((2, d_h, 4 * d_h))
    for d in range(2):  # the forward direction's w_x and w_h are drawn first
        w_x[d] = _uniform(rng, d_in, w_x.shape[1:]).data
        w_h[d] = _uniform(rng, d_h, w_h.shape[1:]).data
    b = np.zeros((2, 4 * d_h))
    # forget-gate bias starts at +1 so early training does not erase state
    b[:, d_h:2 * d_h] = 1.0
    return BiLstmParams(*(Tensor(a, requires_grad=True) for a in (w_x, w_h, b)))


def _expit(z: np.ndarray) -> np.ndarray:
    # exp(-logaddexp(0, -z)) is 1/(1+e^-z) without overflow on either tail
    return np.exp(-np.logaddexp(0.0, -z))


def bilstm(seq: Tensor, p: BiLstmParams, mask: Optional[np.ndarray] = None) -> Tensor:
    """Forward and backward passes over a batch of sequences, concatenated per position.

    `seq` is a (B, T, d) batch and `mask` a (B, T) boolean array marking
    the live steps of each sequence (default: all), each sequence needing
    at least one. Live steps may sit anywhere: a sequence skips its other
    steps, so it reads as its live steps packed together. Output rows of
    the other steps are exactly 0 and pass no gradient to their input rows.

    Both directions run as one recurrence of max(lengths) steps. Each
    sequence's live steps are gathered to packed steps 0, 1, ..., in time
    order for the forward direction and in reverse for the backward one,
    and the sequences are sorted longest first, so the sequences live at a
    packed step are a prefix of the batch and no step is masked. The
    directions' weights are stored stacked on a leading axis, so one
    batched matmul per step serves both. The whole recurrence is one tape
    entry with a hand-written backward-through-time rule that scatters its
    gradients back to the (B, T) layout.
    """
    x = seq.data
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"bilstm needs a non-empty B x T x d batch, got shape {x.shape}")
    mask = np.ones(x.shape[:2], dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != bool or mask.shape != x.shape[:2] or not mask.any(axis=1).all():
        raise ShapeError(
            f"bilstm mask must be a boolean {x.shape[:2]} array with a live step "
            f"in every sequence, got {mask.dtype} {mask.shape}"
        )
    batch, m, d_in = x.shape
    d_h = p.d_h
    lengths = mask.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    steps = int(lengths[0])
    # active[t]: the number of (sorted) sequences still live at packed step t
    active = (np.arange(steps)[:, None] < lengths).sum(axis=1).tolist()
    # each sorted sequence's live time steps first, in time order, as (steps, B)
    times = np.argsort(~mask[order], axis=1, kind="stable")[:, :steps].T
    back = np.maximum(lengths - 1 - np.arange(steps)[:, None], 0)
    # source time step of packed step t, sequence j, per direction; the
    # entries past a sequence's length are never read
    pos = np.stack([times, np.take_along_axis(times, back, axis=0)])
    step_idx, col_idx = np.nonzero(np.arange(steps)[:, None] < lengths)
    src_pos = pos[:, step_idx, col_idx]
    src_col = order[col_idx]
    dirs = np.arange(2)[:, None]

    w_x, w_h, b = p.w_x.data, p.w_h.data, p.b.data
    proj = (x.reshape(-1, d_in) @ w_x).reshape(2, batch, m, 4 * d_h) + b[:, None, None]
    packed = proj[dirs[:, :, None], order, pos]

    # gates hold i, f, g, o per step; hs / cs hold the state before each
    # step, so index t + 1 is the state after step t
    gates = np.empty((2, steps, batch, 4 * d_h))
    tcs = np.empty((2, steps, batch, d_h))
    hs = np.zeros((2, steps + 1, batch, d_h))
    cs = np.zeros((2, steps + 1, batch, d_h))
    for t, a in enumerate(active):
        z = packed[:, t, :a] + hs[:, t, :a] @ w_h
        gate = gates[:, t, :a]
        gate[...] = _expit(z)
        gate[..., 2 * d_h:3 * d_h] = np.tanh(z[..., 2 * d_h:3 * d_h])
        c = gate[..., d_h:2 * d_h] * cs[:, t, :a] + gate[..., :d_h] * gate[..., 2 * d_h:3 * d_h]
        tc = np.tanh(c)
        cs[:, t + 1, :a] = c
        tcs[:, t, :a] = tc
        hs[:, t + 1, :a] = gate[..., 3 * d_h:] * tc

    out = np.zeros((batch, m, 2, d_h))
    out[src_col, src_pos, dirs] = hs[:, 1:][:, step_idx, col_idx]

    def rule(g_out):
        g_packed = np.zeros((2, steps, batch, d_h))
        g_packed[:, step_idx, col_idx] = g_out.reshape(batch, m, 2, d_h)[src_col, src_pos, dirs]
        d_packed = np.zeros((2, steps, batch, 4 * d_h))
        dh_next = np.zeros((2, batch, d_h))
        dc_next = np.zeros((2, batch, d_h))
        w_h_t = w_h.transpose(0, 2, 1)
        for t in range(steps - 1, -1, -1):
            a = active[t]
            gate = gates[:, t, :a]
            i = gate[..., :d_h]
            f = gate[..., d_h:2 * d_h]
            g = gate[..., 2 * d_h:3 * d_h]
            o = gate[..., 3 * d_h:]
            tc = tcs[:, t, :a]
            dh = g_packed[:, t, :a] + dh_next[:, :a]
            dc = dh * o * (1.0 - tc * tc) + dc_next[:, :a]
            dz = d_packed[:, t, :a]
            dz[..., :d_h] = dc * g * i * (1.0 - i)
            dz[..., d_h:2 * d_h] = dc * cs[:, t, :a] * f * (1.0 - f)
            dz[..., 2 * d_h:3 * d_h] = dc * i * (1.0 - g * g)
            dz[..., 3 * d_h:] = dh * tc * o * (1.0 - o)
            dh_next[:, :a] = dz @ w_h_t
            dc_next[:, :a] = dc * f
        # entries past a column's length hold zero gradient, so whole-array
        # products need no mask
        d_wh = hs[:, :steps].reshape(2, -1, d_h).transpose(0, 2, 1) @ d_packed.reshape(
            2, -1, 4 * d_h)
        d_proj = np.zeros((2, batch, m, 4 * d_h))
        d_proj[dirs, src_col, src_pos] = d_packed[:, step_idx, col_idx]
        flat = d_proj.reshape(2, -1, 4 * d_h)
        d_x = (flat @ w_x.transpose(0, 2, 1)).sum(axis=0).reshape(x.shape)
        d_wx = x.reshape(-1, d_in).T @ flat
        d_b = flat.sum(axis=1)
        return d_x, d_wx, d_wh, d_b

    return record_op(out.reshape(batch, m, 2 * d_h), (seq, p.w_x, p.w_h, p.b), rule)
