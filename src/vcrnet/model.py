"""End-to-end scorer for four-way grounded question answering.

The forward pass scores a chunk of n tasks at once, which may mix Q2A and
QA2R tasks of different instances. Embed the n queries and 4n candidate
responses from one token grid, a row per sequence, join each tagged token
to the object row it gathers, and ground all 5n in one masked BiLSTM
recurrence over that (5n, T) batch. From then on the chunk holds one row
per candidate, task-major and candidate-minor: the responses as a
(4n, w, d) batch with a (4n, w) mask, and each task's grounded query and
projected objects repeated once per candidate, as a (4n, m_q, d) and a
(4n, k, d) batch with their masks, each padded to the longest in the
chunk. So row c of every batch belongs to candidate c. Refine the
responses under their query and object guidance. Encode the queries and
the responses against their joint concatenation, pool each to a single
vector, fuse, and emit one scalar logit per candidate: (n, 4) logits,
whose rows feed a softmax.

These steps are the four STAGES: `encode` (embed, gather, ground), `fuse`
(the paper's image-text fusion module), `joint` (its inference module) and
`head` (pool, fuse, score). `forward_chunk` runs each `VcrModel._stage_<s>`
in turn, from the task sequence to the `ChunkState` after each stage.

The forward is numeric only: every attention unit and pooling step records
a trace of weights, and no sequence carries its tokens. `trace_labels`
names the two axes of a trace once, when `inspect` exports it.

Chunks are cut from a task sequence in its order so that 4·n·(m_q + w)
stays within CHUNK_POSITIONS padded positions, one task at the least:
larger chunks amortize Python dispatch over more tasks, and the bound keeps
the memory of one forward small. Taped training and untaped scoring share
the bound. Training cuts each mini-batch in data order, so a default
mini-batch is one taped forward; its tape stays small because the
feed-forward, affine and residual-LayerNorm sublayers are one fused entry
each, and the feed-forward recomputes its hidden activation in the
backward instead of keeping it. Untaped scoring sorts its tasks by
`task_lengths` first, so that tasks of like length share a chunk; most of
the memory of such a chunk is its attention traces.

A task is a `data.TaskExample`, which carries its image's objects. The
forward's one switch is a generator: `forward_chunk(tasks, rng)` draws
dropout masks from `rng`, and without one the forward runs no dropout.
Training passes its generator; scoring and diagnostics pass none.

Every parameter's `.data` is a view into one flat buffer, `VcrModel.flat`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from vcrnet import tensor as T
from vcrnet import layers as L
from vcrnet.attention import AttentionTrace, AttnUnitParams, init_attn_unit
from vcrnet.checkpoint import CheckpointError, write_checkpoint
from vcrnet.coattention import CoAttnLayerParams, CoAttnParams, coattend, lstm_encode
from vcrnet.config import TrainConfig
from vcrnet.data import (
    PAD_TOKEN,
    DataError,
    PredictionRecord,
    TaskExample,
    VcrInstance,
    Vocab,
    make_task,
)
from vcrnet.grounding import GaFuseParams, GroundedSeq, align_tags, ground, guided_fuse
from vcrnet.reduction import ReductionParams, candidate_logit, fuse, init_reduction, reduce
from vcrnet.tensor import ShapeError, Tensor

CANDIDATES = 4
CHUNK_POSITIONS = 768

# the forward's stages in order; `forward_chunk` runs `VcrModel._stage_<s>`
STAGES = ("encode", "fuse", "joint", "head")

# The model's parts in checkpoint order: (checkpoint prefix, VcrModel
# attribute, forward stage the part feeds). An absent part (None) has no
# parameters. The stage, never earlier than the row above's, says which of
# the STAGES a parameter's change first reaches, so diagnostics rerun the
# forward from there; each stage's parameters are one slice of `flat`.
PARTS = (
    ("embedding", "embedding", "encode"),
    ("obj_proj", "obj_proj", "encode"),
    ("ground", "ground_lstm", "encode"),
    ("fuse", "ga_fuse", "fuse"),
    ("coattn", "coattn", "joint"),
    ("encoder", "encoder_lstm", "joint"),
    ("reduce", "reduction", "head"),
)


def stage_of(name: str) -> str:
    """The stage of STAGES that parameter `name` feeds."""
    top = name.split(".", 1)[0]
    for prefix, _, stage in PARTS:
        if prefix == top:
            return stage
    raise ValueError(f"no stage known for parameter {name!r}")


def task_lengths(task: TaskExample) -> tuple:
    """(query length, longest response length): what a task adds to a chunk's padding."""
    return len(task.query), max(len(resp) for resp in task.responses)


def chunked(tasks: Sequence[TaskExample]) -> Iterator[list]:
    """Consecutive runs of tasks whose padded chunk fits CHUNK_POSITIONS.

    A run grows while 4·n·(longest query + longest response) stays within
    the bound; a task too long to share a chunk gets one of its own. The
    runs keep the order of `tasks`: sort them first to pad less.
    """
    chunk: list = []
    m_q = w = 0
    for task in tasks:
        q_len, r_len = task_lengths(task)
        grown = CANDIDATES * (len(chunk) + 1) * (max(m_q, q_len) + max(w, r_len))
        if chunk and grown > CHUNK_POSITIONS:
            yield chunk
            chunk, m_q, w = [], 0, 0
        chunk.append(task)
        m_q, w = max(m_q, q_len), max(w, r_len)
    if chunk:
        yield chunk


@dataclass
class ChunkState:
    """What the forward knows of a chunk after a stage; each stage returns a copy.

    r holds the candidate responses (task-major), and q and objects each
    task's grounded query and projected object features once per
    candidate, so row c of each belongs to candidate c; each is padded to
    the longest of its kind. objects is None in a model without guided
    fusion, the one stage that reads them. z_q / z_r are the encoded sides
    and logits the (n, 4) candidate logits, each None until its stage sets
    it. traces gathers the attention traces in pipeline order.
    """

    objects: Optional[GroundedSeq]
    q: GroundedSeq
    r: GroundedSeq
    traces: list
    z_q: Optional[Tensor] = None
    z_r: Optional[Tensor] = None
    logits: Optional[Tensor] = None

    @property
    def grounded_rs(self) -> list:
        """Each candidate row of r on its own, as a batch of one (values only)."""
        r = self.r
        return [GroundedSeq(Tensor(r.positions.data[c:c + 1]), r.mask[c:c + 1])
                for c in range(r.mask.shape[0])]


def _record(ex: TaskExample, logits: np.ndarray) -> PredictionRecord:
    return PredictionRecord(
        instance_id=ex.instance_id,
        task=ex.task,
        logits=[float(v) for v in logits],
        # ties resolve to the lowest index (argmax returns the first maximum)
        pred=int(np.argmax(logits)),
        gold=ex.gold,
    )


@dataclass
class ChunkForward:
    """The (n, 4) candidate logits of a chunk of n tasks and every attention trace.

    traces are batched, in pipeline order: each holds (4n, heads, m, k)
    weights, one row per candidate, task-major, and no tokens (see
    `trace_labels`).
    """

    examples: list
    logits: Tensor
    traces: list

    def records(self) -> list:
        return [_record(ex, row) for ex, row in zip(self.examples, self.logits.data)]


@dataclass(eq=False)
class VcrModel:
    """All trainable state plus the forward pass, configured by a TrainConfig.

    The parameter fields are the attributes of PARTS. Each parameter's
    `.data` is a view into one contiguous float64 buffer, `flat`, laid out
    in PARTS order: write it with `t.data[...] = ...`, never rebind it.
    """

    config: TrainConfig
    vocab: Vocab
    embedding: Tensor
    obj_proj: L.LinearParams
    ground_lstm: L.BiLstmParams
    ga_fuse: Optional[GaFuseParams]
    coattn: Optional[CoAttnParams]
    encoder_lstm: Optional[L.BiLstmParams]
    reduction: ReductionParams

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
            def stack() -> list:
                return [CoAttnLayerParams(sa=unit(), ga=unit()) for _ in range(config.layers)]

            coattn = CoAttnParams(q=stack(), r=stack())
        else:
            encoder_lstm = L.init_bilstm(rng, d, d // 2)

        reduction = init_reduction(rng, d, d)
        return cls(
            config, vocab, embedding, obj_proj, ground_lstm,
            ga_fuse, coattn, encoder_lstm, reduction,
        )

    # -- parameter plumbing ------------------------------------------------

    def __post_init__(self) -> None:
        self._named = [(name, t) for prefix, attr, _ in PARTS
                       for name, t in L.named_tensors(getattr(self, attr), prefix)]
        self.flat = np.concatenate([t.data.ravel() for _, t in self._named])
        offsets = np.cumsum([t.data.size for _, t in self._named])[:-1]
        for (_, t), part in zip(self._named, np.split(self.flat, offsets)):
            t.data = part.reshape(t.data.shape)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._named)

    def num_parameters(self) -> int:
        return self.flat.size

    def zero_grad(self) -> None:
        for _, t in self._named:
            t.grad = None

    def flat_grad(self) -> np.ndarray:
        """Every parameter's gradient in `flat`'s layout; 0 where a parameter has none."""
        return np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                               for _, t in self._named])

    def state_dict(self) -> dict:
        """{name: value}, in PARTS order; each value is a view into `flat`."""
        return {name: t.data for name, t in self._named}

    def load_state_dict(self, arrays: dict) -> None:
        """Copy `arrays` into `flat`; every entry is checked before any is written."""
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
            if not np.isfinite(arr).all():
                raise CheckpointError(f"parameter {name!r} holds NaN or Inf")
        for name, t in mine.items():
            t.data[...] = arrays[name]
            t.grad = None

    def save(self, path) -> None:
        write_checkpoint(path, self.state_dict())

    @classmethod
    def from_state(cls, config: TrainConfig, vocab: Vocab, arrays: dict) -> "VcrModel":
        """The model whose state `arrays` holds. The config and vocabulary must
        agree with the architecture its names and shapes imply before anything
        is built; `heads` cannot be read from a state, so it is trusted."""
        d_o, d_model = _matrix_shape(arrays, "obj_proj.weight")
        vocab_size, d_token = _matrix_shape(arrays, "embedding")
        stacks = {name.split(".", 3)[2] for name in arrays if name.startswith("coattn.q.")}
        coattn = any(name.startswith("coattn.") for name in arrays)
        for field, want, got in (
            ("vocabulary size", len(vocab), vocab_size),
            ("d_token", config.d_token, d_token),
            ("d_model", config.d_model, d_model),
            ("ga", config.ga, any(name.startswith("fuse.") for name in arrays)),
            ("encoder", config.encoder, "coattention" if coattn else "lstm"),
            # an lstm encoder has no stacks; the encoder check has settled it
            ("layers", config.layers, len(stacks) or config.layers),
        ):
            if want != got:
                raise CheckpointError(f"checkpoint has {field} {got!r}, the run declares {want!r}")
        model = cls.build(config, vocab, d_o, np.random.default_rng(0))
        model.load_state_dict(arrays)
        return model

    # -- forward -----------------------------------------------------------

    def check_object_width(self, instance_id: str, objects: np.ndarray) -> None:
        """Raise DataError naming the instance unless its objects fit obj_proj."""
        d_o = self.obj_proj.weight.data.shape[0]
        if objects.shape[1] != d_o:
            raise DataError(
                f"{instance_id}: object features are {objects.shape[1]} wide, "
                f"the model expects {d_o}"
            )

    def forward_chunk(
        self, tasks: Sequence[TaskExample], rng: Optional[np.random.Generator] = None
    ) -> ChunkForward:
        """Score a chunk of tasks; a generator `rng` turns dropout on and draws its masks."""
        state = tasks
        for stage in STAGES:
            # looked up per call: a tracer replaces the stages on the class
            state = getattr(self, f"_stage_{stage}")(state, rng)
        return ChunkForward(examples=list(tasks), logits=state.logits, traces=state.traces)

    def _stage_encode(self, tasks: Sequence[TaskExample], rng) -> ChunkState:
        n = len(tasks)
        d_o = self.obj_proj.weight.data.shape[0]
        k = max(task.objects.shape[0] for task in tasks)
        steps = max(len(seq) for ex in tasks for seq in (ex.query, *ex.responses))
        objects = np.zeros((n, k, d_o))
        object_mask = np.zeros((n, k), dtype=bool)
        # one row per sequence, the n queries then the 4n responses: each token's vocab
        # id and the row of the flat (n·k, d_o) objects its tag reads, else pad id and -1
        ids = np.full((n * (1 + CANDIDATES), steps), self.vocab.pad_id)
        rows = np.full(ids.shape, -1)
        lengths = np.zeros(ids.shape[0], dtype=int)
        for i, ex in enumerate(tasks):
            k_i = ex.objects.shape[0]
            if len(ex.responses) != CANDIDATES:
                raise DataError(
                    f"{ex.instance_id}: expected {CANDIDATES} candidate responses, "
                    f"got {len(ex.responses)}"
                )
            self.check_object_width(ex.instance_id, ex.objects)
            objects[i, :k_i] = ex.objects
            object_mask[i, :k_i] = True
            seqs = (i, *range(n + i * CANDIDATES, n + (i + 1) * CANDIDATES))
            for row, seq in zip(seqs, (ex.query, *ex.responses)):
                lengths[row] = len(seq)
                ids[row, :len(seq)] = self.vocab.encode(seq)
                for t, tok in enumerate(seq):
                    if tok.tag is not None:
                        if not 0 <= tok.tag < k_i:
                            raise DataError(f"{ex.instance_id}: token {tok.text!r} tags "
                                            f"object {tok.tag} but only {k_i} objects exist")
                        rows[row, t] = i * k + tok.tag
        objects = Tensor(objects)
        emb = T.embedding_lookup(self.embedding, ids.ravel())
        aligned = align_tags(rows.ravel(), emb, objects.reshape(n * k, d_o))
        grounded = ground(aligned.reshape(ids.shape + (-1,)), lengths, self.ground_lstm)
        return ChunkState(
            objects=None if self.ga_fuse is None else GroundedSeq(
                L.linear(objects, self.obj_proj), object_mask).repeat(CANDIDATES),
            q=grounded.rows(0, n, lengths[:n].max()).repeat(CANDIDATES),
            r=grounded.rows(n, ids.shape[0], lengths[n:].max()),
            traces=[],
        )

    def _stage_fuse(self, state: ChunkState, rng) -> ChunkState:
        if self.ga_fuse is None:
            return state
        r, traces = guided_fuse(state.q, state.r, state.objects, self.ga_fuse, rng=rng)
        return replace(state, r=r, traces=state.traces + traces)

    def _stage_joint(self, state: ChunkState, rng) -> ChunkState:
        if self.coattn is not None:
            z_q, z_r, traces = coattend(state.q, state.r, self.coattn, rng=rng)
        else:
            z_q, z_r, traces = lstm_encode(state.q, state.r, self.encoder_lstm)
        return replace(state, z_q=z_q, z_r=z_r, traces=state.traces + traces)

    def _stage_head(self, state: ChunkState, rng) -> ChunkState:
        pooled_q, alpha_q = reduce(state.z_q, state.q.mask, self.reduction.mlp_q)
        pooled_r, alpha_r = reduce(state.z_r, state.r.mask, self.reduction.mlp_r)
        fused = fuse(pooled_q, pooled_r, self.reduction)
        logits = candidate_logit(fused, self.reduction).reshape(-1, CANDIDATES)
        traces = [_pool_trace("reduce.q", alpha_q), _pool_trace("reduce.r", alpha_r)]
        return replace(state, logits=logits, traces=state.traces + traces)

    def predict(self, inst: VcrInstance, kind: str) -> PredictionRecord:
        return self.forward_chunk([make_task(inst, kind)]).records()[0]


def _matrix_shape(arrays: dict, name: str) -> tuple:
    """The shape of state entry `name`, which sizes the model: a matrix with rows."""
    if name not in arrays:
        raise CheckpointError(f"state has no {name} to size the model from")
    shape = arrays[name].shape
    if len(shape) != 2 or shape[0] < 1:
        raise CheckpointError(f"parameter {name!r} has shape {shape}, "
                              f"expected a matrix with at least one row")
    return shape


def _name_summary(what: str, names: set, shown: int = 3) -> str:
    """'<count> <what> parameters: a, b, c, ...' with at most `shown` names."""
    listed = sorted(names)
    more = ", ..." if len(listed) > shown else ""
    return f"{len(listed)} {what} parameters: {', '.join(listed[:shown])}{more}"


def _pool_trace(label: str, alpha: Tensor) -> AttentionTrace:
    """Expose batched pooling weights in the same shape contract as attention traces."""
    batch, m = alpha.data.shape
    return AttentionTrace(unit=label, heads=alpha.data.reshape(batch, 1, 1, m))


def trace_labels(
    trace: AttentionTrace, c: int, ex: TaskExample, object_labels: Sequence[str]
) -> tuple:
    """(query_tokens, key_tokens): the tokens along the two axes of candidate
    c's slice of a trace from a one-task forward of `ex`.

    An axis is the query; candidate c's response, padded with <pad> to the
    task's widest response; the object labels; the joint (query then
    response); or the single <pool> row of a pooling step. The unit name
    says which: `ga.r_from_{q,obj}`, `coattn.{q,r}.sa.*` (a side over
    itself), `coattn.{q,r}.ga.*` (a side over the joint), `reduce.{q,r}`.
    """
    query = [tok.text for tok in ex.query]
    response = [tok.text for tok in ex.responses[c]]
    response += [PAD_TOKEN] * (max(len(resp) for resp in ex.responses) - len(response))
    axes = {"q": query, "r": response, "obj": list(object_labels),
            "joint": query + response, "pool": ["<pool>"]}
    stage, side, *rest = trace.unit.split(".")
    if stage == "ga":
        query_axis, key_axis = side.split("_from_")
    elif stage == "coattn":
        query_axis, key_axis = side, side if rest[0] == "sa" else "joint"
    else:
        query_axis, key_axis = "pool", side
    labels = axes[query_axis], axes[key_axis]
    if trace.heads.shape[-2:] != tuple(map(len, labels)):
        raise ShapeError(
            f"{trace.unit}: weights {trace.heads.shape} do not match "
            f"{len(labels[0])} x {len(labels[1])} labels"
        )
    return labels
