"""Visual grounding: align object features to text tags, fuse, then guide.

`align_tags` concatenates each token's embedding with the feature of the
object its tag points at (zeros when untagged); `ground` runs the joint
sequences through a BiLSTM whose bidirectional output width equals the
model width. The query and the four candidate responses of a task go
through one length-aware recurrence together, so padding never enters it.
`guided_fuse` then refines the batch of responses: one guided-attention
unit reads the grounded query, shared by every candidate, then a second
reads the object features. The query passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from vcrnet.attention import AttnUnitParams, guided_attention_unit
from vcrnet.data import DataError, PAD_TOKEN, TaggedToken
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat, tile


@dataclass
class GroundedSeq:
    """A fused image-text sequence: positions, source tokens, padding mask.

    One sequence has (m, d) positions, a list of m tokens and an (m,) mask.
    A batch of B sequences padded to one width m has (B, m, d) positions,
    one token list per sequence and a (B, m) mask.
    """

    positions: Tensor
    tokens: list
    mask: np.ndarray

    def __post_init__(self):
        shape = self.positions.data.shape
        rows = [self.tokens] if len(shape) == 2 else self.tokens
        if (len(shape) not in (2, 3) or self.mask.shape != shape[:-1]
                or len(rows) != int(np.prod(shape[:-2]))
                or any(len(row) != shape[-2] for row in rows)):
            raise ShapeError(
                f"grounded sequence inconsistent: positions {shape}, "
                f"{len(self.tokens)} tokens, mask {self.mask.shape}"
            )

    @property
    def texts(self) -> list:
        """Token texts, nested per sequence like `tokens`."""
        if self.positions.data.ndim == 2:
            return [t.text for t in self.tokens]
        return [[t.text for t in row] for row in self.tokens]

    def tiled(self, count: int) -> "GroundedSeq":
        """A batch of `count` copies of one sequence (one tile op)."""
        return GroundedSeq(tile(self.positions, count), [list(self.tokens)] * count,
                           np.tile(self.mask, (count, 1)))

    def rows(self, start: int, stop: int, length: int) -> "GroundedSeq":
        """Sequences start..stop-1 of a batch, cut to their first `length` positions."""
        pos = self.positions.slice(0, start, stop)
        if length != pos.data.shape[1]:
            pos = pos.slice(1, 0, length)
        return GroundedSeq(pos, [row[:length] for row in self.tokens[start:stop]],
                           self.mask[start:stop, :length])

    def row(self, b: int, length: int) -> "GroundedSeq":
        """Sequence b of a batch on its own, cut to its first `length` positions."""
        one = self.rows(b, b + 1, length)
        return GroundedSeq(one.positions.reshape(length, -1), one.tokens[0], one.mask[0])


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
    """BiLSTM over aligned sequences.

    A 2-d `aligned` is one sequence whose every position counts as real. A
    time-major (T, B, d) `aligned` holds B sequences, sequence b being the
    first len(tokens[b]) steps of column b; the result is a batch-major
    GroundedSeq padded to T, with padded rows exactly zero and masked out.
    """
    if aligned.data.ndim == 2:
        return GroundedSeq(bilstm(aligned, p), list(tokens), np.ones(len(tokens), dtype=bool))
    steps = aligned.data.shape[0]
    lengths = np.array([len(row) for row in tokens])
    pad = TaggedToken(PAD_TOKEN)
    return GroundedSeq(
        positions=bilstm(aligned, p, lengths).transpose((1, 0, 2)),
        tokens=[list(row) + [pad] * (steps - len(row)) for row in tokens],
        mask=np.arange(steps) < lengths[:, None],
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

    `grounded_r` may be a batch of candidate responses; the query and the
    objects are then shared by every candidate. Returns (grounded_q
    unchanged, fused response sequence(s), traces).
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
