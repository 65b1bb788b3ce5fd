"""Co-attention over the joined query/response sequence.

The fused query and response are concatenated along the sequence axis into
a joint sequence X. Two stacks then run in lockstep: one refines the query
against X, the other refines the response against X, each layer being a
self-attention unit followed by a unit guided by X. X stays fixed at the
initial join through every layer. An alternative encoder replaces both
stacks with a single BiLSTM over X, used as an ablation baseline.

Everything here runs on a batch: the candidates of a chunk of tasks as
(B, m, d) sequences with a (B, m) mask, each paired row by row with its own
task's query, repeated once per candidate. A generator passed to
`coattend` draws every unit's dropout mask, layer by layer, query side
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vcrnet.attention import SUBLAYERS, AttnUnitParams, guided_attention_unit
from vcrnet.grounding import GroundedSeq
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat


@dataclass
class JointSeq:
    """Query then response along the sequence axis of a (B, m_query + m_r, d)
    batch with its (B, m_query + m_r) mask; the first m_query positions of
    every row are the query's."""

    positions: Tensor
    mask: np.ndarray
    m_query: int


def join(q: GroundedSeq, r: GroundedSeq) -> JointSeq:
    """Concatenate query then response along the sequence axis, row by row."""
    qs, rs = q.positions.data.shape, r.positions.data.shape
    if qs[-1] != rs[-1]:
        raise ShapeError(f"cannot join feature widths {qs[-1]} and {rs[-1]}")
    if qs[0] != rs[0]:
        raise ShapeError(f"cannot join batch shapes {qs} and {rs}")
    if rs[1] < 1:
        raise ShapeError("response sequence must be non-empty")
    return JointSeq(
        positions=concat([q.positions, r.positions], axis=1),
        mask=np.concatenate([q.mask, r.mask], axis=1),
        m_query=qs[1],
    )


@dataclass
class CoAttnLayerParams:
    sa: AttnUnitParams
    ga: AttnUnitParams


@dataclass
class CoAttnParams:
    """The query stack and the response stack: one CoAttnLayerParams per layer each."""

    q: list
    r: list


UNITS = ("sa", "ga")
# a layer's steps in order: every sublayer of its `sa` unit, then of its `ga` unit
LAYER_STEPS = tuple((unit, sub) for unit in UNITS for sub in SUBLAYERS)


def coattend_layer(
    y: Tensor,
    mask: np.ndarray,
    joint: JointSeq,
    layer: CoAttnLayerParams,
    side: str,
    idx: int,
    steps: Sequence[tuple] = LAYER_STEPS,
    rng: Optional[np.random.Generator] = None,
    branch: Optional[Tensor] = None,
) -> tuple:
    """Layer `idx` of the `side` stack on y: the `sa` unit attends over y
    itself under its `mask`, then the `ga` unit over the joint X.

    `steps` runs only a trailing slice of the layer's (unit, sublayer)
    steps, or one step alone, from the state (y, branch) before it (see
    `attention.guided_attention_unit`), so a gradient sweep can restart at
    the sublayer a parameter feeds. Returns (the output of the last step
    run, one trace per attention run).
    """
    traces = []
    for unit in UNITS:
        sublayers = [sub for at, sub in steps if at == unit]
        if not sublayers:
            continue
        guide, guide_mask = (y, mask) if unit == "sa" else (joint.positions, joint.mask)
        y, trace = guided_attention_unit(y, guide, getattr(layer, unit), mask=guide_mask,
                                         rng=rng, label=f"coattn.{side}.{unit}.{idx}",
                                         sublayers=sublayers, branch=branch)
        branch = None
        if trace is not None:
            traces.append(trace)
    return y, traces


def coattend(
    joint: JointSeq,
    fused_q: GroundedSeq,
    fused_r: GroundedSeq,
    p: CoAttnParams,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Run both co-attention stacks against the fixed joint X; returns (Z_q, Z_r, traces)."""
    depth = len(p.q)
    if depth != len(p.r) or depth < 1:
        raise ShapeError("both co-attention stacks need the same depth >= 1")
    traces = []
    y_q, y_r = fused_q.positions, fused_r.positions
    # layer by layer, query side first: the order of the dropout draws
    for idx in range(depth):
        y_q, more_q = coattend_layer(y_q, fused_q.mask, joint, p.q[idx], "q", idx, rng=rng)
        y_r, more_r = coattend_layer(y_r, fused_r.mask, joint, p.r[idx], "r", idx, rng=rng)
        traces += more_q + more_r
    return y_q, y_r, traces


def lstm_encode(joint: JointSeq, p: BiLstmParams) -> tuple:
    """Ablation encoder: one BiLSTM over X, split back at the query's end.

    The recurrence is masked to the real positions of each row, wherever
    its padding sits (after the query or after the response), so it reads
    the query and the response packed together; padded output rows are
    exactly zero.
    """
    out = bilstm(joint.positions.transpose((1, 0, 2)), p, joint.mask.T).transpose((1, 0, 2))
    m_q, m = joint.m_query, out.data.shape[1]
    return out.slice(1, 0, m_q), out.slice(1, m_q, m), []
