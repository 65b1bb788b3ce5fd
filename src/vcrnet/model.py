"""End-to-end scorer for four-way grounded question answering.

Pipeline per task, with the four candidate responses as one batch: embed
and tag-align the query and the responses, and run them through the shared
grounding BiLSTM as one length-aware five-sequence recurrence. Pad the
responses to the longest as a (4, w, d) batch with a (4, w) mask, and refine
them under query and object guidance. Encode the query (tiled once per
candidate) and the responses against their joint concatenation, pool each
to a single vector, fuse, and emit one scalar logit per candidate. The four
logits feed a softmax over candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from vcrnet import tensor as T
from vcrnet import layers as L
from vcrnet.attention import AttentionTrace, AttnUnitParams, init_attn_unit
from vcrnet.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from vcrnet.coattention import (
    CoAttnLayerParams,
    CoAttnModuleParams,
    CoAttnParams,
    coattend,
    join,
    lstm_encode,
)
from vcrnet.config import TrainConfig
from vcrnet.data import (
    PAD_TOKEN,
    DataError,
    PredictionRecord,
    TaggedToken,
    TaskExample,
    VcrInstance,
    Vocab,
    make_task,
)
from vcrnet.grounding import GaFuseParams, GroundedSeq, align_tags, ground, guided_fuse
from vcrnet.reduction import ReductionParams, candidate_logit, fuse, init_reduction, reduce
from vcrnet.tensor import Tensor

CANDIDATES = 4


@dataclass
class EncodeState:
    """Stage one: grounded sequences, before any cross-sequence attention.

    grounded_r holds the candidate responses as one batch padded to the
    longest of them.
    """

    objects_t: Tensor
    proj_obj: Tensor
    labels: list
    grounded_q: GroundedSeq
    grounded_r: GroundedSeq

    @property
    def grounded_rs(self) -> list:
        """Each candidate's row of grounded_r on its own (detached values)."""
        r = self.grounded_r
        return [GroundedSeq(Tensor(r.positions.data[c]), r.tokens[c], r.mask[c])
                for c in range(len(r.tokens))]


@dataclass
class FusedState:
    """Stage two: the query and the guided-attention refined responses."""

    fq: GroundedSeq
    fr: GroundedSeq
    traces: list


@dataclass
class EncodedState:
    """Stage three: the tiled query and the responses, encoded against the joint."""

    fq: GroundedSeq
    fr: GroundedSeq
    z_q: Tensor
    z_r: Tensor
    traces: list


@dataclass
class TaskForward:
    """The (4,) candidate logits and every attention trace of one task.

    traces are batched, in pipeline order: each holds (4, heads, m, n)
    weights, and `trace.row(c)` is candidate c's slice.
    """

    example: TaskExample
    logits: Tensor
    traces: list

    @property
    def pred(self) -> int:
        # ties resolve to the lowest index (argmax returns the first maximum)
        return int(np.argmax(self.logits.data))

    def record(self) -> PredictionRecord:
        return PredictionRecord(
            instance_id=self.example.instance_id,
            task=self.example.task,
            logits=[float(v) for v in self.logits.data],
            pred=self.pred,
            gold=self.example.gold,
        )


class VcrModel:
    """All trainable state plus the forward pass, configured by a TrainConfig."""

    def __init__(
        self,
        config: TrainConfig,
        vocab: Vocab,
        embedding: Tensor,
        obj_proj: L.LinearParams,
        ground_lstm: L.BiLstmParams,
        ga_fuse: Optional[GaFuseParams],
        coattn: Optional[CoAttnParams],
        encoder_lstm: Optional[L.BiLstmParams],
        reduction: ReductionParams,
    ):
        self.config = config
        self.vocab = vocab
        self.embedding = embedding
        self.obj_proj = obj_proj
        self.ground_lstm = ground_lstm
        self.ga_fuse = ga_fuse
        self.coattn = coattn
        self.encoder_lstm = encoder_lstm
        self.reduction = reduction

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, config: TrainConfig, vocab: Vocab, d_o: int, rng: np.random.Generator
    ) -> "VcrModel":
        config.validate()
        if d_o < 1:
            raise ValueError(f"object feature width must be positive, got {d_o}")
        d = config.d_model
        d_ff = 4 * d
        lim = 1.0 / np.sqrt(config.d_token)
        embedding = Tensor(
            rng.uniform(-lim, lim, size=(len(vocab), config.d_token)),
            requires_grad=True,
        )
        obj_proj = L.init_linear(rng, d_o, d)
        ground_lstm = L.init_bilstm(rng, config.d_token + d_o, d // 2)

        def unit() -> AttnUnitParams:
            return init_attn_unit(rng, d, config.heads, d_ff, config.dropout)

        ga_fuse = None
        if config.ga:
            ga_fuse = GaFuseParams(ga_query=unit(), ga_object=unit())

        coattn = None
        encoder_lstm = None
        if config.encoder == "coattention":
            def module() -> CoAttnModuleParams:
                return CoAttnModuleParams(
                    layers=[
                        CoAttnLayerParams(sa=unit(), ga=unit())
                        for _ in range(config.layers)
                    ]
                )

            coattn = CoAttnParams(mod_q=module(), mod_r=module())
        else:
            encoder_lstm = L.init_bilstm(rng, d, d // 2)

        reduction = init_reduction(rng, d, d)
        return cls(
            config, vocab, embedding, obj_proj, ground_lstm,
            ga_fuse, coattn, encoder_lstm, reduction,
        )

    # -- parameter plumbing ------------------------------------------------

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "embedding", self.embedding
        yield from self.obj_proj.named("obj_proj")
        yield from self.ground_lstm.named("ground")
        if self.ga_fuse is not None:
            yield from self.ga_fuse.named("fuse")
        if self.coattn is not None:
            yield from self.coattn.named("coattn")
        if self.encoder_lstm is not None:
            yield from self.encoder_lstm.named("encoder")
        yield from self.reduction.named("reduce")

    def num_parameters(self) -> int:
        return sum(t.data.size for _, t in self.named_parameters())

    def zero_grad(self) -> None:
        for _, t in self.named_parameters():
            t.grad = None

    def state_dict(self) -> dict:
        return {name: t.data for name, t in self.named_parameters()}

    def load_state_dict(self, arrays: dict) -> None:
        mine = dict(self.named_parameters())
        for what, names in (("unexpected", set(arrays) - set(mine)),
                            ("missing", set(mine) - set(arrays))):
            if names:
                raise CheckpointError(f"state has {_name_summary(what, names)}")
        for name, t in mine.items():
            arr = arrays[name]
            if arr.shape != t.data.shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {arr.shape}, expected {t.data.shape}"
                )
            t.data = np.asarray(arr, dtype=np.float64)
            t.grad = None

    def save(self, path) -> None:
        write_checkpoint(path, self.state_dict())

    @classmethod
    def from_state(cls, config: TrainConfig, vocab: Vocab, arrays: dict) -> "VcrModel":
        if "obj_proj.weight" not in arrays:
            raise CheckpointError("state has no obj_proj.weight to size objects from")
        d_o = arrays["obj_proj.weight"].shape[0]
        model = cls.build(config, vocab, d_o, np.random.default_rng(0))
        model.load_state_dict(arrays)
        return model

    @classmethod
    def load(cls, ckpt_path, config: TrainConfig, vocab: Vocab) -> "VcrModel":
        arrays = read_checkpoint(ckpt_path)
        try:
            return cls.from_state(config, vocab, arrays)
        except CheckpointError as exc:
            raise CheckpointError(f"{ckpt_path}: {exc}") from exc

    # -- forward -----------------------------------------------------------

    def _encode(self, seqs: list, objects: Tensor) -> GroundedSeq:
        """Ground token sequences together as one time-major BiLSTM batch."""
        steps = max(len(seq) for seq in seqs)
        pad = TaggedToken(PAD_TOKEN)
        flat = [seq[t] if t < len(seq) else pad for t in range(steps) for seq in seqs]
        emb = T.embedding_lookup(self.embedding, self.vocab.encode(flat))
        aligned = align_tags(flat, emb, objects).reshape(steps, len(seqs), -1)
        return ground(aligned, seqs, self.ground_lstm)

    def forward_task(
        self,
        inst: VcrInstance,
        kind: str,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> TaskForward:
        ex = make_task(inst, kind)
        return self.forward_example(
            ex, inst.objects, inst.object_labels, training=training, rng=rng
        )

    def forward_example(
        self,
        ex: TaskExample,
        objects: np.ndarray,
        object_labels: Sequence[str],
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> TaskForward:
        state = self._stage_encode(ex, objects, object_labels)
        fused = self._stage_fuse(state, training, rng)
        encoded = self._stage_joint(fused, training, rng)
        return self._stage_head(ex, encoded)

    # The forward pass is split into stages so diagnostics can rerun only
    # the part of the pipeline a given parameter can influence. Composed in
    # order they are exactly forward_example.

    def _stage_encode(
        self, ex: TaskExample, objects: np.ndarray, object_labels: Sequence[str]
    ) -> EncodeState:
        if len(ex.responses) != CANDIDATES:
            raise DataError(
                f"{ex.instance_id}: expected {CANDIDATES} candidate responses, "
                f"got {len(ex.responses)}"
            )
        d_o = self.obj_proj.weight.data.shape[0]
        if objects.shape[1] != d_o:
            raise DataError(
                f"{ex.instance_id}: object features are {objects.shape[1]} wide, "
                f"the model expects {d_o}"
            )
        objects_t = Tensor(objects)
        grounded = self._encode([ex.query, *ex.responses], objects_t)
        width = max(len(resp) for resp in ex.responses)
        return EncodeState(
            objects_t=objects_t,
            proj_obj=L.linear(objects_t, self.obj_proj),
            labels=list(object_labels),
            grounded_q=grounded.row(0, len(ex.query)),
            grounded_r=grounded.rows(1, CANDIDATES + 1, width),
        )

    def _stage_fuse(
        self,
        state: EncodeState,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> FusedState:
        if self.ga_fuse is None:
            return FusedState(fq=state.grounded_q, fr=state.grounded_r, traces=[])
        fq, fr, traces = guided_fuse(
            state.grounded_q,
            state.grounded_r,
            state.proj_obj,
            state.labels,
            self.ga_fuse,
            training=training,
            rng=rng,
        )
        return FusedState(fq=fq, fr=fr, traces=traces)

    def _stage_joint(
        self,
        fused: FusedState,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> EncodedState:
        fq = fused.fq.tiled(CANDIDATES)
        joint = join(fq, fused.fr)
        if self.coattn is not None:
            z_q, z_r, traces = coattend(
                joint, fq, fused.fr, self.coattn, training=training, rng=rng
            )
        else:
            z_q, z_r, traces = lstm_encode(joint, self.encoder_lstm)
        return EncodedState(fq=fq, fr=fused.fr, z_q=z_q, z_r=z_r, traces=fused.traces + traces)

    def _stage_head(self, ex: TaskExample, encoded: EncodedState) -> TaskForward:
        pooled_q, alpha_q = reduce(encoded.z_q, encoded.fq.mask, self.reduction.mlp_q)
        pooled_r, alpha_r = reduce(encoded.z_r, encoded.fr.mask, self.reduction.mlp_r)
        fused = fuse(pooled_q, pooled_r, self.reduction)
        logits = candidate_logit(fused, self.reduction).reshape(CANDIDATES)
        traces = encoded.traces + [
            _pool_trace("reduce.q", alpha_q, encoded.fq),
            _pool_trace("reduce.r", alpha_r, encoded.fr),
        ]
        return TaskForward(example=ex, logits=logits, traces=traces)

    def predict(self, inst: VcrInstance, kind: str) -> PredictionRecord:
        return self.forward_task(inst, kind).record()


def _name_summary(what: str, names: set, shown: int = 3) -> str:
    """'<count> <what> parameters: a, b, c, ...' with at most `shown` names."""
    listed = sorted(names)
    more = ", ..." if len(listed) > shown else ""
    return f"{len(listed)} {what} parameters: {', '.join(listed[:shown])}{more}"


def _pool_trace(label: str, alpha: Tensor, seq: GroundedSeq) -> AttentionTrace:
    """Expose batched pooling weights in the same shape contract as attention traces."""
    batch, m = alpha.data.shape
    return AttentionTrace(
        unit=label,
        heads=alpha.data.reshape(batch, 1, 1, m),
        query_tokens=["<pool>"],
        key_tokens=seq.texts,
    )
