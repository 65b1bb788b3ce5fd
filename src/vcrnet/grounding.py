"""Visual grounding: align object features to text tags, fuse, then guide.

`align_tags` gathers the object row each token's tag points at and joins
it to the token's embedding. It takes one row index per token, -1 for an
untagged token, which reads zeros; the model checks each tag against its
own task's objects before it turns the tag into a row. `ground` runs the joint
sequences through a BiLSTM whose bidirectional output width equals the
model width. The queries and candidate responses of a chunk of tasks go
through one masked recurrence together, so padding never enters it.
`guided_fuse` then refines the batch of responses with the chain of units
`fuse_chain`: one unit reads each task's grounded query, then a second
reads that task's object features. A task's candidates sit side by side in
one row of those units, so a candidate attends over its own task's query
and objects only. Sequences here are numbers and masks only; the tokens
that label them are attached at export (see `model.trace_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vcrnet.attention import AttnUnitParams, run_chain
from vcrnet.layers import BiLstmParams, bilstm
from vcrnet.tensor import Tensor, ShapeError, concat, embedding_lookup


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
    """BiLSTM over a time-major (T, B, d) batch of aligned sequences.

    Sequence b is the first lengths[b] steps of column b; the result is a
    batch-major GroundedSeq padded to T, with padded rows exactly zero and
    masked out.
    """
    mask = np.arange(aligned.data.shape[0])[:, None] < np.asarray(lengths)
    return GroundedSeq(bilstm(aligned, p, mask).transpose((1, 0, 2)), mask.T)


def _per_candidate(heads: np.ndarray, count: int) -> np.ndarray:
    """(n, heads, count·w, k) weights of side-by-side candidates -> (n·count, heads, w, k)."""
    n, h, rows, k = heads.shape
    split = heads.reshape(n, h, count, rows // count, k).transpose(0, 2, 1, 3, 4)
    return split.reshape(n * count, h, rows // count, k)


def guided_fuse(
    grounded_q: GroundedSeq,
    grounded_r: GroundedSeq,
    objects: GroundedSeq,
    p: GaFuseParams,
    rng: Optional[np.random.Generator] = None,
    steps: Optional[Sequence[tuple]] = None,
    branch: Optional[Tensor] = None,
) -> tuple:
    """Refine the responses under query guidance, then under object guidance.

    `grounded_q` holds n task queries and `objects` the n tasks' projected
    object features; `grounded_r` holds each task's candidate responses in
    turn, the same count per task. Each task's candidates are reshaped (no
    copy) into one row of the units, so they attend over their own task's
    query and objects only; the traces are split back to one row per
    candidate, (n·count, heads, w, m_q) and (n·count, heads, w, k). Returns
    (fused responses, traces); the query is not changed here.

    `steps` runs only a trailing slice of `fuse_chain`'s (unit, sublayer)
    steps, or one step alone, so a gradient sweep can restart at the
    sublayer a parameter feeds: `grounded_r` then holds the residual before
    the first step and `branch` its pending branch, in grounded_r's layout
    (see `attention.run_chain`), and the result holds the output of the
    last step run.
    """
    n = grounded_q.mask.shape[0]
    rows, w = grounded_r.mask.shape
    if rows % n or objects.mask.shape[0] != n:
        raise ShapeError(
            f"{rows} responses, {n} queries and {objects.mask.shape[0]} object sets "
            f"do not split into tasks"
        )
    count = rows // n
    d = grounded_r.positions.data.shape[-1]
    r_pos = grounded_r.positions.reshape(n, count * w, d)
    if branch is not None:
        branch = branch.reshape(n, count * w, d)
    r_pos, traces = run_chain(r_pos, fuse_chain(grounded_q, objects, p), steps, rng, branch)
    for trace in traces:
        trace.heads = _per_candidate(trace.heads, count)
    return GroundedSeq(r_pos.reshape(rows, w, d), grounded_r.mask), traces
