"""Visual grounding: align object features to text tags, fuse, then guide.

`align_tags` gathers the object row each token's tag points at and joins
it to the token's embedding. It takes one row index per token, -1 for an
untagged token, which reads zeros; the model checks each tag against its
own task's objects before it turns the tag into a row. `ground` runs the joint
sequences through a BiLSTM whose bidirectional output width equals the
model width. The queries and candidate responses of a chunk of tasks go
through one masked recurrence together, so padding never enters it.
`guided_fuse` then refines the batch of responses with the chain of units
`fuse_chain`: one unit reads each response's grounded query, then a second
reads its object features. The model repeats each task's query and objects
once per candidate, so a candidate attends over its own task's only.
Sequences here are numbers and masks only; the tokens that label them are
attached at export (see `model.trace_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vcrnet.attention import AttnUnitParams, run_chain
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat, embedding_lookup, repeat


@dataclass
class GroundedSeq:
    """A batch of B fused image-text sequences padded to one width m:
    (B, m, d) positions and a (B, m) padding mask."""

    positions: Tensor
    mask: np.ndarray

    def __post_init__(self):
        shape = self.positions.data.shape
        if len(shape) != 3 or self.mask.shape != shape[:-1]:
            raise ShapeError(
                f"grounded sequence inconsistent: positions {shape}, mask {self.mask.shape}"
            )

    def rows(self, start: int, stop: int, length: int) -> "GroundedSeq":
        """Sequences start..stop-1 of the batch, cut to their first `length` positions."""
        pos = self.positions.slice(0, start, stop)
        if length != pos.data.shape[1]:
            pos = pos.slice(1, 0, length)
        return GroundedSeq(pos, self.mask[start:stop, :length])

    def repeat(self, count: int) -> "GroundedSeq":
        """Each sequence copied `count` times in place (see `tensor.repeat`)."""
        return GroundedSeq(repeat(self.positions, count), np.repeat(self.mask, count, axis=0))


@dataclass
class GaFuseParams:
    ga_query: AttnUnitParams
    ga_object: AttnUnitParams


def fuse_chain(grounded_q: GroundedSeq, objects: GroundedSeq, p: GaFuseParams) -> list:
    """The fusion's chain (see `attention.run_chain`): `ga_query` over the
    grounded query, then `ga_object` over the objects."""
    return [("ga_query", p.ga_query, grounded_q.positions, grounded_q.mask, "ga.r_from_q"),
            ("ga_object", p.ga_object, objects.positions, objects.mask, "ga.r_from_obj")]


def align_tags(rows: np.ndarray, token_emb: Tensor, objects: Tensor) -> Tensor:
    """Concatenate each token embedding with the object feature row it reads.

    rows[i] is the row of `objects` that token i reads, or -1 for an
    untagged token, whose object half is zero. A token reads its own row
    alone; the object features' gradient is a scatter-add of the tokens'.
    """
    m, k = len(rows), objects.data.shape[0]
    if token_emb.data.shape[0] != m:
        raise ShapeError(f"{m} object rows but embedding matrix has {token_emb.data.shape[0]} rows")
    if np.any((rows < -1) | (rows >= k)):
        raise ShapeError(f"object rows must lie in [-1, {k}), got {rows.min()}..{rows.max()}")
    # row -1 reads the zero row appended after the k object rows
    padded = concat([objects, Tensor(np.zeros((1, objects.data.shape[1])))], axis=0)
    return concat([token_emb, embedding_lookup(padded, np.where(rows < 0, k, rows))], axis=1)


def ground(aligned: Tensor, lengths, p: BiLstmParams) -> GroundedSeq:
    """BiLSTM over a (B, T, d) batch of aligned sequences.

    Sequence b is the first lengths[b] steps of row b; the result is a
    GroundedSeq padded to T, with padded rows exactly zero and masked out.
    """
    mask = np.arange(aligned.data.shape[1]) < np.asarray(lengths)[:, None]
    return GroundedSeq(bilstm(aligned, p, mask), mask)


def guided_fuse(
    grounded_q: GroundedSeq,
    grounded_r: GroundedSeq,
    objects: GroundedSeq,
    p: GaFuseParams,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Refine the responses under query guidance, then under object guidance.

    Row c of `grounded_q` and of `objects` is what response c reads: its own
    task's grounded query and projected object features. Returns (fused
    responses, traces of one row per response); the query is not changed.
    """
    n_r, n_q, n_obj = (seq.mask.shape[0] for seq in (grounded_r, grounded_q, objects))
    if not n_r == n_q == n_obj:
        raise ShapeError(f"{n_r} responses, {n_q} queries and {n_obj} object sets are not one "
                         f"row per response")
    r_pos, traces = run_chain(grounded_r.positions, fuse_chain(grounded_q, objects, p), rng=rng)
    return GroundedSeq(r_pos, grounded_r.mask), traces
