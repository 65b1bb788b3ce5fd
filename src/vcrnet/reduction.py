"""Attention reduction, fusion of the two pooled vectors, and the logit head.

Reduction pools a sequence into one vector: a small MLP scores every
position, a masked softmax turns the scores into weights, and the weighted
rows are summed. The query and response pools are fused by two linear
projections, added, LayerNorm-ed, and a final linear layer emits the
per-candidate logit. Each step runs on a batch of candidates, one pooled
row and one logit per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vcrnet.attention import mask_bias
from vcrnet.layers import (
    LayerNormParams,
    LinearParams,
    init_layer_norm,
    init_mlp,
    layer_norm,
    linear,
    mlp,
)
from vcrnet.tensor import Tensor, ShapeError, softmax


@dataclass
class ReductionParams:
    """Score MLPs for the two paths (lists of LinearParams), fusion, head."""

    mlp_q: list
    mlp_r: list
    w1: Tensor
    w2: Tensor
    ln: LayerNormParams
    clf: LinearParams


def init_reduction(rng: np.random.Generator, d_model: int, d_c: int) -> ReductionParams:
    widths = [d_model, max(d_model // 2, 1), 1]
    mlp_q = init_mlp(rng, widths)
    mlp_r = init_mlp(rng, widths)
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


def reduce(Z: Tensor, mask: Optional[np.ndarray], p_mlp: list) -> tuple[Tensor, Tensor]:
    """Pool each sequence of a (B, m, d) batch by learned softmax weights.

    Returns (B, d) pooled vectors and (B, m) weights; `mask` is (B, m) or
    None. Masked positions get exactly zero weight; a fully masked sequence
    is an error. With a zero MLP the weights are uniform over unmasked rows.
    """
    shape = Z.data.shape
    if len(shape) != 3 or shape[1] < 1:
        raise ShapeError(f"reduce needs a (B, m, d) batch of non-empty sequences, got {shape}")
    batch, m, d = shape
    if mask is not None and np.shape(mask) != shape[:-1]:
        raise ShapeError(f"mask shape {np.shape(mask)} does not match sequence shape {shape}")
    scores = mlp(Z, p_mlp)
    if scores.data.shape != shape[:-1] + (1,):
        raise ShapeError(f"score MLP must map to one column, got {scores.data.shape}")
    row = scores.reshape(batch, 1, m)
    bias = mask_bias(mask, m)
    if bias is not None:
        row = row + Tensor(bias.reshape(batch, 1, m))
    alpha_row = softmax(row, axis=-1)
    return (alpha_row @ Z).reshape(batch, d), alpha_row.reshape(batch, m)


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
