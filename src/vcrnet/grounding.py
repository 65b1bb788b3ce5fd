"""Visual grounding: align object features to text tags, fuse, then guide.

`align_tags` concatenates each token's embedding with the feature of the
object its tag points at (zeros when untagged); `ground` runs the joint
sequence through a BiLSTM whose bidirectional output width equals the model
width. `guided_fuse` then refines the response: one guided-attention unit
reads the grounded query, then a second reads the object features. The
query passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from vcrnet.attention import AttnUnitParams, guided_attention_unit
from vcrnet.data import DataError, PAD_TOKEN, TaggedToken
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat


@dataclass
class GroundedSeq:
    """A fused image-text sequence: positions, source tokens, padding mask."""

    positions: Tensor
    tokens: list
    mask: np.ndarray

    def __post_init__(self):
        m = self.positions.data.shape[0]
        if len(self.tokens) != m or self.mask.shape != (m,):
            raise ShapeError(
                f"grounded sequence inconsistent: {m} positions, "
                f"{len(self.tokens)} tokens, mask {self.mask.shape}"
            )

    @property
    def texts(self) -> list:
        return [t.text for t in self.tokens]


@dataclass
class GaFuseParams:
    ga_query: AttnUnitParams
    ga_object: AttnUnitParams

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.ga_query.named(f"{prefix}.ga_query")
        yield from self.ga_object.named(f"{prefix}.ga_object")


def align_tags(tokens: list, token_emb: Tensor, objects: Tensor) -> Tensor:
    """Concatenate each token embedding with its tagged object's feature row.

    Untagged positions get a zero object half. Gradients flow into both the
    embeddings and the object features (via a constant selection matrix).
    """
    m = len(tokens)
    if token_emb.data.shape[0] != m:
        raise ShapeError(
            f"{m} tokens but embedding matrix has {token_emb.data.shape[0]} rows"
        )
    k = objects.data.shape[0]
    select = np.zeros((m, k))
    for i, tok in enumerate(tokens):
        if tok.tag is None:
            continue
        if not 0 <= tok.tag < k:
            raise DataError(
                f"token {i} ({tok.text!r}) tags object {tok.tag} but only {k} objects exist"
            )
        select[i, tok.tag] = 1.0
    object_half = Tensor(select) @ objects
    return concat([token_emb, object_half], axis=1)


def ground(aligned: Tensor, tokens: list, p: BiLstmParams) -> GroundedSeq:
    """BiLSTM over the aligned sequence; every position counts as real."""
    positions = bilstm(aligned, p)
    return GroundedSeq(
        positions=positions,
        tokens=list(tokens),
        mask=np.ones(len(tokens), dtype=bool),
    )


def pad_grounded(seq: GroundedSeq, length: int) -> GroundedSeq:
    """Extend to `length` with zero rows masked out; no-op when already there."""
    m, d = seq.positions.data.shape
    if length < m:
        raise ShapeError(f"cannot pad length-{m} sequence down to {length}")
    if length == m:
        return seq
    extra = length - m
    return GroundedSeq(
        positions=concat([seq.positions, Tensor(np.zeros((extra, d)))], axis=0),
        tokens=list(seq.tokens) + [TaggedToken(PAD_TOKEN)] * extra,
        mask=np.concatenate([seq.mask, np.zeros(extra, dtype=bool)]),
    )


def guided_fuse(
    grounded_q: GroundedSeq,
    grounded_r: GroundedSeq,
    objects: Tensor,
    object_labels: list,
    p: GaFuseParams,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Refine the response under query guidance, then under object guidance.

    Returns (grounded_q unchanged, fused response sequence, traces).
    """
    if objects.data.shape[0] != len(object_labels):
        raise ShapeError(
            f"{objects.data.shape[0]} object rows but {len(object_labels)} labels"
        )
    r_pos, q_trace = guided_attention_unit(
        grounded_r.positions, grounded_q.positions, p.ga_query, mask=grounded_q.mask,
        training=training, rng=rng, label="ga.r_from_q",
    )
    q_trace.query_tokens = grounded_r.texts
    q_trace.key_tokens = grounded_q.texts
    r_pos, obj_trace = guided_attention_unit(
        r_pos, objects, p.ga_object, training=training, rng=rng, label="ga.r_from_obj",
    )
    obj_trace.query_tokens = grounded_r.texts
    obj_trace.key_tokens = list(object_labels)
    fused_r = GroundedSeq(r_pos, grounded_r.tokens, grounded_r.mask)
    return grounded_q, fused_r, [q_trace, obj_trace]
