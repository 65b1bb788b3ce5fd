"""Co-attention over the joined query/response sequence.

The fused query and response are concatenated along the sequence axis into
a joint sequence X, which both encoders build with `join`. Two stacks then
run in lockstep: one refines the query against X, the other refines the
response against X, each layer being a self-attention unit followed by a
unit guided by X; `side_chain` declares a stack as one chain of units. X
stays fixed at the initial join through every layer. An alternative
encoder replaces both stacks with a single BiLSTM over X, used as an
ablation baseline.

Everything here runs on a batch: the candidates of a chunk of tasks as
(B, m, d) GroundedSeqs with a (B, m) mask, X and the BiLSTM's input
included, each paired row by row with its own task's query, repeated once
per candidate. A generator passed to `coattend` draws every unit's dropout
mask, layer by layer, query side first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vcrnet.attention import AttnUnitParams, run_chain
from vcrnet.grounding import GroundedSeq
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import ShapeError, concat


def join(q: GroundedSeq, r: GroundedSeq) -> GroundedSeq:
    """Concatenate query then response along the sequence axis, row by row."""
    qs, rs = q.positions.data.shape, r.positions.data.shape
    if qs[-1] != rs[-1]:
        raise ShapeError(f"cannot join feature widths {qs[-1]} and {rs[-1]}")
    if qs[0] != rs[0]:
        raise ShapeError(f"cannot join batch shapes {qs} and {rs}")
    if rs[1] < 1:
        raise ShapeError("response sequence must be non-empty")
    return GroundedSeq(concat([q.positions, r.positions], axis=1),
                       np.concatenate([q.mask, r.mask], axis=1))


@dataclass
class CoAttnLayerParams:
    sa: AttnUnitParams
    ga: AttnUnitParams


@dataclass
class CoAttnParams:
    """The query stack and the response stack: one CoAttnLayerParams per layer each."""

    q: list
    r: list


def side_chain(p: CoAttnParams, side: str, mask: np.ndarray, joint: GroundedSeq) -> list:
    """The `side` stack as one chain of units (see `attention.run_chain`):
    per layer idx, unit '<idx>.sa' attends over the side's own sequence
    under its `mask`, then '<idx>.ga' over the joint X."""
    chain = []
    for idx, layer in enumerate(getattr(p, side)):
        chain += [(f"{idx}.sa", layer.sa, None, mask, f"coattn.{side}.sa.{idx}"),
                  (f"{idx}.ga", layer.ga, joint.positions, joint.mask, f"coattn.{side}.ga.{idx}")]
    return chain


def coattend(
    fused_q: GroundedSeq,
    fused_r: GroundedSeq,
    p: CoAttnParams,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Run both co-attention stacks against the fixed joint X; returns (Z_q, Z_r, traces)."""
    if len(p.q) != len(p.r) or not p.q:
        raise ShapeError("both co-attention stacks need the same depth >= 1")
    joint = join(fused_q, fused_r)
    q_chain = side_chain(p, "q", fused_q.mask, joint)
    r_chain = side_chain(p, "r", fused_r.mask, joint)
    y_q, y_r, traces = fused_q.positions, fused_r.positions, []
    # a layer's two units at a time, query side first: the order of the dropout draws
    for at in range(0, len(q_chain), 2):
        y_q, more_q = run_chain(y_q, q_chain[at:at + 2], rng=rng)
        y_r, more_r = run_chain(y_r, r_chain[at:at + 2], rng=rng)
        traces += more_q + more_r
    return y_q, y_r, traces


def lstm_encode(fused_q: GroundedSeq, fused_r: GroundedSeq, p: BiLstmParams) -> tuple:
    """Ablation encoder: one BiLSTM over X, split back at the query's width.

    The recurrence is masked to the real positions of each row, wherever
    its padding sits (after the query or after the response), so it reads
    the query and the response packed together; padded output rows are
    exactly zero.
    """
    joint = join(fused_q, fused_r)
    out = bilstm(joint.positions, p, joint.mask)
    m_q, m = fused_q.mask.shape[1], joint.mask.shape[1]
    return out.slice(1, 0, m_q), out.slice(1, m_q, m), []
