"""Attention reduction, fusion of the two pooled vectors, and the logit head.

Reduction pools a sequence into one vector by attentional reduction: a
two-layer score MLP, stored as the `FeedForwardParams` that the fused
`feed_forward` reads, scores every position, and one fused `sdpa` call
pools the rows by the masked softmax of those scores. The query and
response pools are fused by two linear projections, added, LayerNorm-ed,
and a final linear layer emits the per-candidate logit. Each step runs on
a batch of candidates, one pooled row and one logit per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vcrnet.attention import sdpa
from vcrnet.layers import (
    FeedForwardParams,
    LayerNormParams,
    LinearParams,
    feed_forward,
    init_layer_norm,
    init_linear,
    layer_norm,
    linear,
)
from vcrnet.tensor import Tensor, ShapeError


@dataclass
class ReductionParams:
    """Score MLPs for the two paths, fusion, head."""

    mlp_q: FeedForwardParams
    mlp_r: FeedForwardParams
    w1: Tensor
    w2: Tensor
    ln: LayerNormParams
    clf: LinearParams


def init_reduction(rng: np.random.Generator, d_model: int, d_c: int) -> ReductionParams:
    hidden = max(d_model // 2, 1)
    mlp_q, mlp_r = (FeedForwardParams(init_linear(rng, d_model, hidden),
                                      init_linear(rng, hidden, 1)) for _ in range(2))
    lim = 1.0 / np.sqrt(d_model)
    # the classifier starts at zero: a fresh model scores all candidates
    # identically, pinning the untrained loss at ln 4 and keeping the
    # chance baseline honest
    return ReductionParams(
        mlp_q=mlp_q,
        mlp_r=mlp_r,
        w1=Tensor(rng.uniform(-lim, lim, size=(d_model, d_c)), requires_grad=True),
        w2=Tensor(rng.uniform(-lim, lim, size=(d_model, d_c)), requires_grad=True),
        ln=init_layer_norm(d_c),
        clf=LinearParams(
            weight=Tensor(np.zeros((d_c, 1)), requires_grad=True),
            bias=Tensor(np.zeros(1), requires_grad=True),
        ),
    )


def reduce(
    Z: Tensor, mask: Optional[np.ndarray], p_mlp: FeedForwardParams
) -> tuple[Tensor, Tensor]:
    """Pool each sequence of a (B, m, d) batch by learned softmax weights.

    Returns (B, d) pooled vectors and (B, m) weights; `mask` is (B, m) or
    None. Masked positions get exactly zero weight; a fully masked sequence
    is an error. With a zero MLP the weights are uniform over unmasked rows.

    The score MLP `p_mlp`, d -> hidden -> 1, runs as one `feed_forward`
    with no dropout, giving one score per position. The pooling is `sdpa`
    with one unit query of width 1 over those scores as keys and the rows
    as values: q kᵀ is exactly the scores and the scale is 1.
    """
    shape = Z.data.shape
    if len(shape) != 3 or shape[1] < 1:
        raise ShapeError(f"reduce needs a (B, m, d) batch of non-empty sequences, got {shape}")
    batch, m, d = shape
    if mask is not None and np.shape(mask) != shape[:-1]:
        raise ShapeError(f"mask shape {np.shape(mask)} does not match sequence shape {shape}")
    scores = feed_forward(Z, p_mlp)
    if scores.data.shape != shape[:-1] + (1,):
        raise ShapeError(f"score MLP must map to one column, got {scores.data.shape}")
    pooled, weights = sdpa(Tensor(np.ones((batch, 1, 1))), scores, Z, mask)
    return pooled.reshape(batch, d), weights.reshape(batch, m)


def fuse(z_q: Tensor, z_r: Tensor, p: ReductionParams) -> Tensor:
    """LayerNorm of the summed projections of pooled vectors, row by row (n x d_c)."""
    d = p.w1.data.shape[0]
    if z_q.data.shape != z_r.data.shape or z_q.data.ndim != 2 or z_q.data.shape[1] != d:
        raise ShapeError(
            f"fuse expects two n x {d} row stacks, got {z_q.data.shape} and {z_r.data.shape}"
        )
    return layer_norm(z_q @ p.w1, p.ln, z_r @ p.w2)


def candidate_logit(fused: Tensor, p: ReductionParams) -> Tensor:
    """Final linear head: one scalar logit per fused row, shape (n, 1)."""
    return linear(fused, p.clf)
