"""Co-attention over the joined query/response sequence.

The fused query and response are concatenated along the sequence axis into
a joint sequence X. Two stacks then run in lockstep: one refines the query
against X, the other refines the response against X, each layer being a
self-attention unit followed by a unit guided by X. X stays fixed at the
initial join through every layer. An alternative encoder replaces both
stacks with a single BiLSTM over X, used as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from vcrnet.attention import AttnUnitParams, guided_attention_unit, self_attention_unit
from vcrnet.grounding import GroundedSeq
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat

PROV_QUERY = "q"
PROV_RESPONSE = "r"


@dataclass
class JointSeq:
    positions: Tensor
    tokens: list
    mask: np.ndarray
    provenance: np.ndarray

    @property
    def m_query(self) -> int:
        return int((self.provenance == PROV_QUERY).sum())

    @property
    def texts(self) -> list:
        return [t.text for t in self.tokens]


def join(q: GroundedSeq, r: GroundedSeq) -> JointSeq:
    """Concatenate query then response along the sequence axis."""
    d_q = q.positions.data.shape[1]
    d_r = r.positions.data.shape[1]
    if d_q != d_r:
        raise ShapeError(f"cannot join feature widths {d_q} and {d_r}")
    m_q = q.positions.data.shape[0]
    m_r = r.positions.data.shape[0]
    if m_r < 1:
        raise ShapeError("response sequence must be non-empty")
    return JointSeq(
        positions=concat([q.positions, r.positions], axis=0),
        tokens=list(q.tokens) + list(r.tokens),
        mask=np.concatenate([q.mask, r.mask]),
        provenance=np.array([PROV_QUERY] * m_q + [PROV_RESPONSE] * m_r),
    )


def split_joint(joint: JointSeq) -> tuple[Tensor, Tensor]:
    """Inverse of join: recover the query and response halves by provenance."""
    m_q = joint.m_query
    m = joint.positions.data.shape[0]
    return joint.positions.slice(0, 0, m_q), joint.positions.slice(0, m_q, m)


@dataclass
class CoAttnLayerParams:
    sa: AttnUnitParams
    ga: AttnUnitParams

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.sa.named(f"{prefix}.sa")
        yield from self.ga.named(f"{prefix}.ga")


@dataclass
class CoAttnModuleParams:
    layers: list

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for i, layer in enumerate(self.layers):
            yield from layer.named(f"{prefix}.{i}")


@dataclass
class CoAttnParams:
    mod_q: CoAttnModuleParams
    mod_r: CoAttnModuleParams

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.mod_q.named(f"{prefix}.q")
        yield from self.mod_r.named(f"{prefix}.r")


def coattend(
    joint: JointSeq,
    fused_q: GroundedSeq,
    fused_r: GroundedSeq,
    p: CoAttnParams,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Run both co-attention stacks against the fixed joint X; returns (Z_q, Z_r, traces)."""
    depth = len(p.mod_q.layers)
    if depth != len(p.mod_r.layers) or depth < 1:
        raise ShapeError("both co-attention stacks need the same depth >= 1")
    traces = []
    x_tokens = joint.texts

    def one_module(y, seq, layer, side, idx):
        y, sa = self_attention_unit(y, layer.sa, mask=seq.mask, training=training,
                                    rng=rng, label=f"coattn.{side}.sa.{idx}")
        sa.query_tokens = sa.key_tokens = seq.texts
        y, ga = guided_attention_unit(y, joint.positions, layer.ga, mask=joint.mask,
                                      training=training, rng=rng,
                                      label=f"coattn.{side}.ga.{idx}")
        ga.query_tokens = seq.texts
        ga.key_tokens = x_tokens
        traces.extend([sa, ga])
        return y

    y_q, y_r = fused_q.positions, fused_r.positions
    for idx in range(depth):
        y_q = one_module(y_q, fused_q, p.mod_q.layers[idx], "q", idx)
        y_r = one_module(y_r, fused_r, p.mod_r.layers[idx], "r", idx)
    return y_q, y_r, traces


def lstm_encode(joint: JointSeq, p: BiLstmParams) -> tuple:
    """Ablation encoder: one BiLSTM over X, split back by provenance."""
    out = bilstm(joint.positions, p)
    m_q = joint.m_query
    m = out.data.shape[0]
    return out.slice(0, 0, m_q), out.slice(0, m_q, m), []
