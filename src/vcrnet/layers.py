"""Composite layers: linear, LayerNorm, feed-forward, score MLP, and BiLSTM.

Parameter containers are plain dataclasses of Tensors. Each exposes
`named(prefix)` yielding (dotted-name, tensor) pairs in a fixed order; the
optimizer and the checkpoint writer both rely on that order being stable.

Initialization: weight matrices uniform in [-1/sqrt(d_in), +1/sqrt(d_in)]
with d_in the matrix's own input width, biases zero, LSTM forget-gate bias
+1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from vcrnet.tensor import (
    Tensor,
    ShapeError,
    concat,
    dropout,
    record_op,
    relu,
)

NamedTensors = Iterator[tuple[str, Tensor]]


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

    def named(self, prefix: str) -> NamedTensors:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> LinearParams:
    return LinearParams(weight=_uniform(rng, d_in, (d_in, d_out)), bias=_zeros((d_out,)))


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return x @ p.weight + p.bias


# -- layer norm ------------------------------------------------------------


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5

    def named(self, prefix: str) -> NamedTensors:
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta


def init_layer_norm(d: int, eps: float = 1e-5) -> LayerNormParams:
    return LayerNormParams(gamma=Tensor(np.ones(d), requires_grad=True), beta=_zeros((d,)), eps=eps)


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply γ, β.

    Implemented as one fused op: the composed-op formulation would cost a
    dozen tape entries per call and this sits inside every attention unit.
    """
    d = x.data.shape[-1]
    if p.gamma.data.shape != (d,) or p.beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm params for width {p.gamma.data.shape} applied to last axis {d}"
        )
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    centered = xd - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + p.eps)
    xhat = centered * inv
    out = p.gamma.data * xhat + p.beta.data
    gamma_d = p.gamma.data

    def rule(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gamma_d
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return record_op(out, [x, p.gamma, p.beta], rule)


# -- feed-forward ----------------------------------------------------------


@dataclass
class FeedForwardParams:
    lin1: LinearParams
    lin2: LinearParams
    dropout: float = 0.0

    def named(self, prefix: str) -> NamedTensors:
        yield from self.lin1.named(f"{prefix}.lin1")
        yield from self.lin2.named(f"{prefix}.lin2")


def init_feed_forward(
    rng: np.random.Generator, d: int, d_ff: int, p_drop: float = 0.0
) -> FeedForwardParams:
    return FeedForwardParams(
        lin1=init_linear(rng, d, d_ff),
        lin2=init_linear(rng, d_ff, d),
        dropout=p_drop,
    )


def feed_forward(
    x: Tensor,
    p: FeedForwardParams,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    h = relu(linear(x, p.lin1))
    h = dropout(h, p.dropout, training=training, rng=rng)
    return linear(h, p.lin2)


# -- score MLP -------------------------------------------------------------


@dataclass
class MlpParams:
    layers: list

    def named(self, prefix: str) -> NamedTensors:
        for i, lin in enumerate(self.layers):
            yield from lin.named(f"{prefix}.{i}")


def init_mlp(rng: np.random.Generator, widths: list) -> MlpParams:
    """widths = [d_in, hidden..., d_out]; ReLU between layers, final linear."""
    if len(widths) < 2:
        raise ValueError("mlp needs at least an input and an output width")
    layers = [init_linear(rng, widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    return MlpParams(layers=layers)


def mlp(x: Tensor, p: MlpParams) -> Tensor:
    h = x
    for lin in p.layers[:-1]:
        h = relu(linear(h, lin))
    return linear(h, p.layers[-1])


# -- LSTM ------------------------------------------------------------------


@dataclass
class LstmDirectionParams:
    """One direction's gate parameters, fused with blocks in i/f/g/o order
    (input, forget, candidate, output)."""

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    def named(self, prefix: str) -> NamedTensors:
        yield f"{prefix}.w_x", self.w_x
        yield f"{prefix}.w_h", self.w_h
        yield f"{prefix}.b", self.b

    @property
    def d_h(self) -> int:
        return self.w_h.data.shape[0]


@dataclass
class BiLstmParams:
    fwd: LstmDirectionParams
    bwd: LstmDirectionParams

    def named(self, prefix: str) -> NamedTensors:
        yield from self.fwd.named(f"{prefix}.fwd")
        yield from self.bwd.named(f"{prefix}.bwd")

    @property
    def d_h(self) -> int:
        return self.fwd.d_h


def _init_direction(rng: np.random.Generator, d_in: int, d_h: int) -> LstmDirectionParams:
    p = LstmDirectionParams(
        w_x=_uniform(rng, d_in, (d_in, 4 * d_h)),
        w_h=_uniform(rng, d_h, (d_h, 4 * d_h)),
        b=_zeros((4 * d_h,)),
    )
    # forget-gate bias starts at +1 so early training does not erase state
    p.b.data[d_h:2 * d_h] = 1.0
    return p


def init_bilstm(rng: np.random.Generator, d_in: int, d_h: int) -> BiLstmParams:
    return BiLstmParams(
        fwd=_init_direction(rng, d_in, d_h),
        bwd=_init_direction(rng, d_in, d_h),
    )


def _expit(z: np.ndarray) -> np.ndarray:
    # same stable form as tensor.sigmoid
    return np.exp(-np.logaddexp(0.0, -z))


def _run_direction(seq: Tensor, p: LstmDirectionParams, mask: np.ndarray,
                   reverse: bool) -> Tensor:
    """One direction's full recurrence over a time-major batch as a single fused op.

    `seq` is a (T, B, d_in) batch and `mask` (T, B) marks the steps each
    sequence is live at. On any other step a sequence's state is frozen and
    its output row is exactly 0, so each sequence runs as if packed to its
    live steps; in reverse it starts from a zero state at its last live step.
    The whole unroll is one tape entry with a hand-rolled
    backward-through-time rule; the recurrence sits inside every sequence
    the model touches, so it cannot afford per-step op dispatch.
    """
    x = seq.data
    shape = x.shape
    m, batch = shape[0], shape[1]
    w_x, w_h, b = p.w_x.data, p.w_h.data, p.b.data
    d_h = w_h.shape[0]
    positions = list(range(m - 1, -1, -1) if reverse else range(m))
    # live[pos] marks the sequences that are real at that time step
    live = mask[:, :, None]

    proj = x @ w_x + b
    gates = np.empty((m, batch, 4 * d_h), dtype=x.dtype)
    c_prevs = np.empty((m, batch, d_h), dtype=x.dtype)
    h_prevs = np.empty((m, batch, d_h), dtype=x.dtype)
    tcs = np.empty((m, batch, d_h), dtype=x.dtype)
    out = np.empty((m, batch, d_h), dtype=x.dtype)

    h = np.zeros((batch, d_h), dtype=x.dtype)
    c = np.zeros((batch, d_h), dtype=x.dtype)
    for j, pos in enumerate(positions):
        z = proj[pos] + h @ w_h
        i = _expit(z[:, :d_h])
        f = _expit(z[:, d_h:2 * d_h])
        g = np.tanh(z[:, 2 * d_h:3 * d_h])
        o = _expit(z[:, 3 * d_h:])
        h_prevs[j] = h
        c_prevs[j] = c
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        gates[j, :, :d_h] = i
        gates[j, :, d_h:2 * d_h] = f
        gates[j, :, 2 * d_h:3 * d_h] = g
        gates[j, :, 3 * d_h:] = o
        tcs[j] = tc
        out[pos] = np.where(live[pos], h_new, 0.0)
        h = np.where(live[pos], h_new, h)
        c = np.where(live[pos], c_new, c)

    def rule(g_out):
        d_proj = np.zeros((m, batch, 4 * d_h), dtype=x.dtype)
        d_wh = np.zeros_like(w_h)
        dh_next = np.zeros((batch, d_h), dtype=x.dtype)
        dc_next = np.zeros((batch, d_h), dtype=x.dtype)
        for j in range(m - 1, -1, -1):
            pos = positions[j]
            i = gates[j, :, :d_h]
            f = gates[j, :, d_h:2 * d_h]
            g = gates[j, :, 2 * d_h:3 * d_h]
            o = gates[j, :, 3 * d_h:]
            tc = tcs[j]
            # a frozen step passes its state's gradient straight through
            dh = np.where(live[pos], g_out[pos], 0.0) + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            dz = np.where(live[pos], np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prevs[j] * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ], axis=1), 0.0)
            d_proj[pos] = dz
            d_wh += h_prevs[j].T @ dz
            dh_next = np.where(live[pos], dz @ w_h.T, dh)
            dc_next = np.where(live[pos], dc * f, dc_next)
        flat = d_proj.reshape(-1, 4 * d_h)
        return ((flat @ w_x.T).reshape(shape), x.reshape(-1, shape[-1]).T @ flat, d_wh,
                flat.sum(axis=0))

    return record_op(out, (seq, p.w_x, p.w_h, p.b), rule)


def bilstm(seq: Tensor, p: BiLstmParams, mask: Optional[np.ndarray] = None) -> Tensor:
    """Forward and backward passes over a time-major batch, concatenated per position.

    `seq` is a (T, B, d) batch and `mask` a (T, B) boolean array marking
    the live steps of each sequence (default: all), each sequence needing
    at least one. Live steps may sit anywhere: a sequence skips its other
    steps, so it reads as its live steps packed together. Output rows of
    the other steps are exactly 0 and pass no gradient to their input rows.
    """
    x = seq.data
    if x.ndim != 3 or x.shape[0] < 1:
        raise ShapeError(f"bilstm needs a non-empty T x B x d batch, got shape {x.shape}")
    mask = np.ones(x.shape[:2], dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != bool or mask.shape != x.shape[:2] or not mask.any(axis=0).all():
        raise ShapeError(
            f"bilstm mask must be a boolean {x.shape[:2]} array with a live step "
            f"in every sequence, got {mask.dtype} {mask.shape}"
        )
    fwd = _run_direction(seq, p.fwd, mask, reverse=False)
    bwd = _run_direction(seq, p.bwd, mask, reverse=True)
    return concat([fwd, bwd], axis=-1)
