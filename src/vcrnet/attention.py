"""Scaled dot-product attention, multi-head attention, and attention units.

One unit, `guided_attention_unit`, takes its queries from one sequence
and keys/values from another, so the guide decides what the first sequence
attends to; a self-attention unit is the same call with the sequence as its
own guide. A unit's feed-forward runs dropout only when it is given a
generator to draw from.

A unit is four sublayers run in order (`SUBLAYERS`): the multi-head
attention, the first residual LayerNorm, the feed-forward and the second
residual LayerNorm. They are steps over one state tensor: `mha` and `ffn`
add a branch to it, and a LayerNorm normalizes it. Guided fusion and each
co-attention stack are chains of units. `run_chain` runs a chain's (unit,
sublayer) steps, or a trailing slice of them from the state before it, or
one alone, so the gradient sweep can restart a perturbation at the one
sublayer that reads the parameter.

`sdpa` and `multi_head` are fused ops, one tape entry each, that share one
masked softmax and its gradient (`_attend`, `_attend_grads`), so a taped
unit is four entries, one per sublayer.

Masking is additive: padded key positions get a -1e9 score before softmax,
which underflows to an exactly-zero weight. No positional encodings here;
order information comes from the recurrent grounding stage upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vcrnet.layers import (
    FeedForwardParams,
    LayerNormParams,
    feed_forward,
    init_feed_forward,
    init_layer_norm,
    layer_norm,
)
from vcrnet.tensor import Tensor, ShapeError, record_op

_MASK_SCORE = -1e9

# a unit's sublayers in order, each named by its field of AttnUnitParams
SUBLAYERS = ("mha", "ln1", "ffn", "ln2")


@dataclass
class MhaParams:
    """Query/key/value projections plus the shared output projection.

    Each of wq, wk, wv is one (d_model, d_model) matrix whose column block i
    (of width d_model / heads) projects into head i.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int


@dataclass
class AttnUnitParams:
    mha: MhaParams
    ffn: FeedForwardParams
    ln1: LayerNormParams
    ln2: LayerNormParams


@dataclass
class AttentionTrace:
    """Recorded attention weights of one unit, for interpretability export.

    A unit records (B, heads, m, n) weights, one m x n matrix per batch row
    and head, detached from the tape. A trace holds weights only: the
    tokens that label its two axes are attached at export, by the caller
    that knows the inputs. `row(b)` gives the (heads, m, n) trace of row b
    alone.
    """

    unit: str
    heads: np.ndarray

    def row(self, b: int) -> "AttentionTrace":
        return AttentionTrace(self.unit, self.heads[b])

    def to_json_dict(self, query_tokens: list, key_tokens: list) -> dict:
        """The export of a one-row trace, its axes labelled by the given tokens."""
        return {
            "unit": self.unit,
            "heads": [h.tolist() for h in self.heads],
            "query_tokens": list(query_tokens),
            "key_tokens": list(key_tokens),
        }


def mask_bias(mask: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    """Additive pre-softmax bias for a key mask: 0 where real, -1e9 where padded.

    The mask is (B, n), one row per batch entry, and every row needs at
    least one real key. An absent or all-true mask yields None, which
    callers treat as adding nothing.
    """
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[-1] != n:
        raise ShapeError(f"mask shape {mask.shape} does not match a batch of {n} key positions")
    if not mask.any(axis=-1).all():
        raise ValueError("attention over a fully masked sequence has no valid key")
    if mask.all():
        return None
    return np.where(mask, 0.0, _MASK_SCORE)


def _split(a: np.ndarray, heads: int) -> np.ndarray:  # (B, rows, heads·d) -> (B, heads, rows, d)
    return a.reshape(a.shape[:-1] + (heads, -1)).swapaxes(-3, -2)


def _merge(a: np.ndarray) -> np.ndarray:  # (B, heads, rows, d) -> (B, rows, heads·d)
    return a.swapaxes(-3, -2).reshape(a.shape[:-3] + (a.shape[-2], -1))


def _attend(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, mask: Optional[np.ndarray],
            heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of `sdpa`: its (B, m, heads·d_v) output and (B, heads, m, n)
    weights."""
    if not qd.ndim == kd.ndim == vd.ndim == 3 or not qd.shape[0] == kd.shape[0] == vd.shape[0]:
        raise ShapeError(
            f"sdpa expects a (B, m, d) query batch over (B, n, d) keys and values; "
            f"got {qd.shape}, {kd.shape}, {vd.shape}"
        )
    if qd.shape[-1] != kd.shape[-1]:
        raise ShapeError(f"query width {qd.shape} does not match key width {kd.shape}")
    if kd.shape[:-1] != vd.shape[:-1]:
        raise ShapeError(f"key count {kd.shape} does not match value count {vd.shape}")
    if heads < 1 or qd.shape[-1] % heads or vd.shape[-1] % heads:
        raise ShapeError(f"{heads} heads do not split widths {qd.shape[-1]} and {vd.shape[-1]}")
    if mask is not None and np.shape(mask)[:1] != qd.shape[:1]:
        raise ShapeError(f"a {np.shape(mask)} mask needs a batch of {np.shape(mask)[0]} queries")

    qh = _split(qd, heads)
    # the softmax works in place: a batch's scores are its largest arrays
    w = qh @ _split(kd, heads).swapaxes(-1, -2)
    w *= 1.0 / math.sqrt(qh.shape[-1])
    bias = mask_bias(mask, kd.shape[-2])
    if bias is not None:
        w += bias[:, None, None, :]
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return _merge(w @ _split(vd, heads)), w


def _attend_grads(g: np.ndarray, qd: np.ndarray, kd: np.ndarray, vd: np.ndarray,
                  w: np.ndarray) -> tuple:
    """The gradients of `_attend`'s output with respect to q, k and v, given
    the upstream gradient g and the weights w."""
    qh, kh, vh, gh = (_split(a, w.shape[1]) for a in (qd, kd, vd, g))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    # the softmax gradient w * (g_w - sum(g_w * w)), in place
    g_s = gh @ vh.swapaxes(-1, -2)
    g_s -= (g_s * w).sum(axis=-1, keepdims=True)
    g_s *= w
    return (_merge(g_s @ kh) * scale,
            _merge(g_s.swapaxes(-1, -2) @ qh) * scale,
            _merge(w.swapaxes(-1, -2) @ gh))


def sdpa(
    q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None, heads: int = 1
) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_k)) v per batch row and head; returns (output, weights).

    A (B, m, d) batch of queries attends row by row over (B, n, d) keys and
    values, with an optional (B, n) key mask. q, k, v are split into
    `heads` equal column blocks and head i attends with block i of each, so
    the output is (B, m, heads·d_v) with the heads side by side and the
    weights are (B, heads, m, n).

    One fused tape entry; gradients flow through the output only, and the
    returned weights are a value-only view for inspection. Pooling runs it;
    `multi_head` runs the same arrays inside its own entry.
    """
    qd, kd, vd = q.data, k.data, v.data
    out, w = _attend(qd, kd, vd, mask, heads)
    return record_op(out, (q, k, v), lambda g: _attend_grads(g, qd, kd, vd, w)), Tensor(w)


def init_mha(rng: np.random.Generator, d_model: int, h: int) -> MhaParams:
    if h < 1 or d_model % h != 0:
        raise ValueError(f"head count {h} must divide d_model {d_model}")
    d_head = d_model // h
    lim = 1.0 / math.sqrt(d_model)

    # drawn head by head, all of wq then wk then wv, so a seed gives the
    # same weights as one (d_model, d_head) matrix per head would
    def proj():
        blocks = [rng.uniform(-lim, lim, size=(d_model, d_head)) for _ in range(h)]
        return Tensor(np.hstack(blocks), requires_grad=True)

    return MhaParams(
        wq=proj(),
        wk=proj(),
        wv=proj(),
        wo=Tensor(
            rng.uniform(-1.0 / math.sqrt(h * d_head), 1.0 / math.sqrt(h * d_head),
                        size=(h * d_head, d_model)),
            requires_grad=True,
        ),
        heads=h,
    )


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a shared right operand w in x @ w, from the output's
    gradient g: every leading index of x summed."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def multi_head(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    p: MhaParams,
    mask: Optional[np.ndarray] = None,
    label: str = "mha",
) -> tuple[Tensor, AttentionTrace]:
    """`sdpa(q_in @ wq, k_in @ wk, v_in @ wv) @ wo` as one fused op.

    Its tape entry keeps the inputs, the weights and the attention weights
    (the trace holds those anyway); the backward recomputes the projections
    and merged heads, as `feed_forward` recomputes its hidden activation.
    """
    qx, kx, vx = q_in.data, k_in.data, v_in.data
    wq, wk, wv, wo = p.wq.data, p.wk.data, p.wv.data, p.wo.data
    for x, wt in ((qx, wq), (kx, wk), (vx, wv)):
        if x.shape[-1:] != wt.shape[:1]:
            raise ShapeError(f"multi_head: a {wt.shape} projection applied to shape {x.shape}")
    heads_out, w = _attend(qx @ wq, kx @ wk, vx @ wv, mask, p.heads)

    def rule(g):
        # the projections and merged heads again; each gradient is the
        # expression that matmul's or sdpa's own rule computes
        q, k, v = qx @ wq, kx @ wk, vx @ wv
        merged = _merge(w @ _split(v, p.heads))
        g_q, g_k, g_v = _attend_grads(g @ wo.T, q, k, v, w)
        return (g_v @ wv.T, g_k @ wk.T, g_q @ wq.T, _weight_grad(vx, g_v),
                _weight_grad(kx, g_k), _weight_grad(qx, g_q), _weight_grad(merged, g))

    # values first: a tape adds an input's gradient terms in input order, so
    # an input passed as several of q_in, k_in, v_in sums v, then k, then q,
    # the order a tape of five separate ops (q, k and v projections, sdpa,
    # output projection) would, walking back from its last entry
    inputs = (v_in, k_in, q_in, p.wv, p.wk, p.wq, p.wo)
    return record_op(heads_out @ wo, inputs, rule), AttentionTrace(unit=label, heads=w)


def init_attn_unit(
    rng: np.random.Generator, d_model: int, h: int, d_ff: int, p_drop: float = 0.0
) -> AttnUnitParams:
    return AttnUnitParams(
        mha=init_mha(rng, d_model, h),
        ffn=init_feed_forward(rng, d_model, d_ff, p_drop),
        ln1=init_layer_norm(d_model),
        ln2=init_layer_norm(d_model),
    )


def guided_attention_unit(
    x: Tensor,
    guide: Tensor,
    p: AttnUnitParams,
    mask: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    label: str = "ga",
    sublayers: Sequence[str] = SUBLAYERS,
) -> tuple[Tensor, Optional[AttentionTrace]]:
    """One unit: attend x over the guide, then feed-forward; each sublayer
    adds its input back before its LayerNorm. A generator `rng` turns on
    the feed-forward's dropout.

    The four sublayers are steps over one state, which starts as x: `mha`
    and `ffn` add a branch computed from it, and `ln1` and `ln2` normalize
    it. `sublayers` runs only a trailing slice of them, or one sublayer
    alone, from the state before its first (see `run_chain`). Returns (the
    state after the last sublayer run, the trace): the unit's output for a
    trailing slice, and the trace is None if the slice skips `mha`. A
    LayerNorm after its branch in one call reads the pair, LN(x + branch),
    to the same bits as the sum x + branch that a slice ending there returns.
    """
    trace = branch = None
    for sub in sublayers:
        if sub == "mha":
            branch, trace = multi_head(x, guide, guide, p.mha, mask, label)
        elif sub == "ffn":
            branch = feed_forward(x, p.ffn, rng)
        else:
            x, branch = layer_norm(x, getattr(p, sub), branch), None
    if branch is not None:
        x = record_op(x.data + branch.data, (x, branch), lambda g: (g, g))
    return x, trace


def chain_steps(chain: Sequence[tuple]) -> tuple:
    """A chain's (unit name, sublayer) steps in order: every sublayer of its
    first unit, then of the next."""
    return tuple((name, sub) for name, *_ in chain for sub in SUBLAYERS)


def run_chain(x: Tensor, chain: Sequence[tuple], steps: Optional[Sequence[tuple]] = None,
              rng: Optional[np.random.Generator] = None) -> tuple:
    """Run a chain of attention units on x, each unit on the one before's output.

    A chain is a list of (name, params, guide, mask, label) entries: unit
    `name` attends over `guide` under its key `mask`, or over its own input
    if `guide` is None, and records its trace as `label`. `steps` runs only
    a trailing slice of `chain_steps(chain)`, or one step alone, from the
    state x before its first (see `guided_attention_unit`). Returns (the
    state after the last step run, one trace per attention run).
    """
    traces = []
    for name, p, guide, mask, label in chain:
        sublayers = SUBLAYERS if steps is None else [sub for at, sub in steps if at == name]
        if not sublayers:
            continue
        x, trace = guided_attention_unit(x, x if guide is None else guide, p, mask, rng, label,
                                         sublayers)
        if trace is not None:
            traces.append(trace)
    return x, traces
