"""End-to-end scorer for four-way grounded question answering.

Pipeline per candidate: embed and tag-align the token sequences, run them
through a shared grounding BiLSTM, refine the response under query and
object guidance, encode both refined sequences against their joint
concatenation, pool each to a single vector, fuse, and emit one scalar
logit. The four logits feed a softmax over candidates.
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
    DataError,
    PredictionRecord,
    TaggedToken,
    TaskExample,
    VcrInstance,
    Vocab,
    make_task,
)
from vcrnet.grounding import GaFuseParams, GroundedSeq, align_tags, ground, guided_fuse, pad_grounded
from vcrnet.reduction import ReductionParams, candidate_logit, fuse, init_reduction, reduce
from vcrnet.tensor import Tensor

CANDIDATES = 4


@dataclass
class CandidateForward:
    """Everything recorded while scoring one candidate response."""

    traces: list
    alpha_q: Tensor
    alpha_r: Tensor


@dataclass
class EncodeState:
    """Stage one: grounded sequences, before any cross-sequence attention."""

    objects_t: Tensor
    proj_obj: Tensor
    labels: list
    grounded_q: GroundedSeq
    grounded_rs: list


@dataclass
class FusedState:
    """Stage two, per candidate: guided-attention refined sequences."""

    fq: GroundedSeq
    fr: GroundedSeq
    traces: list


@dataclass
class EncodedState:
    """Stage three, per candidate: sequences encoded against the joint."""

    fq: GroundedSeq
    fr: GroundedSeq
    z_q: Tensor
    z_r: Tensor
    traces: list


@dataclass
class TaskForward:
    example: TaskExample
    logits: Tensor
    candidates: list

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

    def _encode(self, tokens: Sequence[TaggedToken], objects: Tensor) -> GroundedSeq:
        ids = self.vocab.encode(tokens)
        emb = T.embedding_lookup(self.embedding, ids)
        aligned = align_tags(list(tokens), emb, objects)
        return ground(aligned, list(tokens), self.ground_lstm)

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
        objects_t = Tensor(objects)
        width = max(len(resp) for resp in ex.responses)
        return EncodeState(
            objects_t=objects_t,
            proj_obj=L.linear(objects_t, self.obj_proj),
            labels=list(object_labels),
            grounded_q=self._encode(ex.query, objects_t),
            # responses are padded after the grounding BiLSTM so the zero
            # rows never enter the recurrence
            grounded_rs=[
                pad_grounded(self._encode(resp, objects_t), width)
                for resp in ex.responses
            ],
        )

    def _stage_fuse(
        self,
        state: EncodeState,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> list:
        out = []
        for grounded_r in state.grounded_rs:
            if self.ga_fuse is not None:
                fq, fr, traces = guided_fuse(
                    state.grounded_q,
                    grounded_r,
                    state.proj_obj,
                    state.labels,
                    self.ga_fuse,
                    training=training,
                    rng=rng,
                )
            else:
                fq, fr, traces = state.grounded_q, grounded_r, []
            out.append(FusedState(fq=fq, fr=fr, traces=traces))
        return out

    def _stage_joint(
        self,
        fused: list,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> list:
        out = []
        for f in fused:
            joint = join(f.fq, f.fr)
            if self.coattn is not None:
                z_q, z_r, traces = coattend(
                    joint, f.fq, f.fr, self.coattn, training=training, rng=rng
                )
            else:
                z_q, z_r, traces = lstm_encode(joint, self.encoder_lstm)
            out.append(
                EncodedState(
                    fq=f.fq, fr=f.fr, z_q=z_q, z_r=z_r, traces=f.traces + traces
                )
            )
        return out

    def _stage_head(self, ex: TaskExample, encoded: list) -> TaskForward:
        logit_rows = []
        cands = []
        for e in encoded:
            pooled_q, alpha_q = reduce(e.z_q, e.fq.mask, self.reduction.mlp_q)
            pooled_r, alpha_r = reduce(e.z_r, e.fr.mask, self.reduction.mlp_r)
            traces = list(e.traces)
            traces.append(_pool_trace("reduce.q", alpha_q, e.fq))
            traces.append(_pool_trace("reduce.r", alpha_r, e.fr))
            fused = fuse(pooled_q, pooled_r, self.reduction)
            logit_rows.append(candidate_logit(fused, self.reduction))
            cands.append(CandidateForward(traces=traces, alpha_q=alpha_q, alpha_r=alpha_r))
        logits = T.concat(logit_rows, axis=0).reshape(CANDIDATES)
        return TaskForward(example=ex, logits=logits, candidates=cands)

    def predict(self, inst: VcrInstance, kind: str) -> PredictionRecord:
        return self.forward_task(inst, kind).record()


def _name_summary(what: str, names: set, shown: int = 3) -> str:
    """'<count> <what> parameters: a, b, c, ...' with at most `shown` names."""
    listed = sorted(names)
    more = ", ..." if len(listed) > shown else ""
    return f"{len(listed)} {what} parameters: {', '.join(listed[:shown])}{more}"


def _pool_trace(label: str, alpha: Tensor, seq: GroundedSeq) -> AttentionTrace:
    """Expose pooling weights in the same shape contract as attention traces."""
    return AttentionTrace(
        unit=label,
        heads=[alpha.data.reshape(1, -1)],
        query_tokens=["<pool>"],
        key_tokens=seq.texts,
    )
