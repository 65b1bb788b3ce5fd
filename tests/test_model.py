import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from helpers import add, loop_forward, padded_positions

from vcrnet.attention import SUBLAYERS, AttentionTrace
from vcrnet.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from vcrnet.config import TrainConfig
from vcrnet.data import (
    TASK_Q2A,
    TASK_QA2R,
    DataError,
    TaggedToken,
    TaskExample,
    VcrInstance,
    Vocab,
    make_task,
    synth_generate,
)
from vcrnet.diagnostics import probe_instance, probe_model
from vcrnet.model import (
    CANDIDATES,
    CHUNK_POSITIONS,
    PARTS,
    STAGES,
    ChunkForward,
    VcrModel,
    chunked,
    task_lengths,
    trace_labels,
)
from vcrnet.tensor import ShapeError, Tape, Tensor
from vcrnet.training import (
    CHECKPOINT_NAME,
    load_run,
    predict_all,
    task_loss,
)


def _config(**kw):
    base = dict(d_model=8, d_token=8, heads=2, layers=1, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def _model(inst, seed=0, **kw):
    cfg = _config(**kw)
    return VcrModel.build(cfg, Vocab.build([inst]), inst.objects.shape[1],
                          np.random.default_rng(seed))


def _forward(model, inst, kind):
    """One task of `inst` scored as a chunk of one."""
    return model.forward_chunk([make_task(inst, kind)])


def _logits(model, ex):
    """The (4,) candidate logits of one task example."""
    return model.forward_chunk([ex]).logits.data[0]


def _ragged_inst():
    """Candidates of different lengths so the forward pass must pad."""

    def tok(text, tag=None):
        return TaggedToken(text, tag)

    return VcrInstance(
        instance_id="ragged-0",
        objects=np.arange(6, dtype=float).reshape(2, 3),
        object_labels=["cat", "dog"],
        question=[tok("what"), tok("is", 0), tok("near")],
        answers=[
            [tok("a"), tok("cat", 0)],
            [tok("the"), tok("dog", 1), tok("sits"), tok("here")],
            [tok("nothing")],
            [tok("both"), tok("cat", 0), tok("dog", 1)],
        ],
        rationales=[
            [tok("because"), tok("fur")],
            [tok("seen", 1)],
            [tok("it"), tok("is"), tok("close")],
            [tok("shadow"), tok("falls", 0)],
        ],
        gold_answer=1,
        gold_rationale=2,
    ).validate()


def test_fresh_model_scores_all_candidates_zero():
    inst = probe_instance()
    fwd = _forward(_model(inst), inst, TASK_Q2A)
    npt.assert_array_equal(fwd.logits.data, np.zeros((1, CANDIDATES)))
    assert fwd.records()[0].pred == 0


def test_uniform_loss_is_log_of_candidate_count():
    loss = task_loss(Tensor(np.zeros(4)), 3)
    assert float(loss.data) == 1.3862943611198906


def test_loss_matches_logsumexp_oracle():
    loss = task_loss(Tensor(np.array([1.0, 0.0, 0.0, 0.0])), 0)
    assert abs(float(loss.data) - 0.7436683806286791) < 1e-12
    z = np.array([0.3, -1.2, 2.0, 0.7])
    want = np.log(np.exp(z).sum()) - z[2]
    assert abs(float(task_loss(Tensor(z), 2).data) - want) < 1e-12


def test_loss_rejects_out_of_range_gold():
    with pytest.raises(DataError):
        task_loss(Tensor(np.zeros(4)), 4)
    with pytest.raises(DataError):
        task_loss(Tensor(np.zeros(4)), -1)


def test_argmax_tie_goes_to_lowest_index():
    inst = probe_instance()
    ex = TaskExample(inst.instance_id, TASK_Q2A, inst.question, inst.answers, 0, inst.objects)
    fwd = ChunkForward([ex, ex], Tensor(np.array([[0.5, 0.9, 0.9, 0.1], [0.25] * 4])), [])
    assert [rec.pred for rec in fwd.records()] == [1, 0]


def test_duplicate_candidates_score_identically():
    inst = _ragged_inst()
    model = _model(inst, seed=4)
    _randomize_head(model)
    ex = TaskExample(inst.instance_id, TASK_Q2A, inst.question,
                     [inst.answers[1], inst.answers[0], inst.answers[1], inst.answers[2]],
                     0, inst.objects)
    logits = _logits(model, ex)
    assert logits[0] == logits[2]
    assert logits[0] != logits[1]


def test_candidate_order_permutes_logits_bitwise():
    inst = _ragged_inst()
    model = _model(inst, seed=5)
    _randomize_head(model)
    base = _forward(model, inst, TASK_Q2A).logits.data[0]
    perm = [2, 0, 3, 1]
    ex = TaskExample(inst.instance_id, TASK_Q2A, inst.question,
                     [inst.answers[i] for i in perm], 0, inst.objects)
    shuffled = _logits(model, ex)
    npt.assert_array_equal(shuffled, base[perm])


def test_wrong_candidate_count_rejected():
    inst = probe_instance()
    model = _model(inst)
    ex = TaskExample(inst.instance_id, TASK_Q2A, inst.question, inst.answers[:3], 0,
                     inst.objects)
    with pytest.raises(DataError):
        _logits(model, ex)


@pytest.mark.parametrize("objects,tag", [(2, 2), (1, 1), (2, -1)],
                         ids=["next-task", "padding", "negative"])
def test_forward_checks_each_tag_against_its_own_tasks_objects(objects, tag):
    # the chunk flattens its tasks' objects into one (n·k) block, so a tag
    # past its own task's objects would read the next task's first object
    # or its own padding there, with no error from the rows it becomes
    inst = probe_instance()
    model = probe_model(inst)
    answers = [list(a) for a in inst.answers]
    answers[1][1] = TaggedToken("c", tag)
    bad = TaskExample("bad-0", TASK_Q2A, inst.question, answers, 1, inst.objects[:objects])
    with pytest.raises(DataError) as err:
        model.forward_chunk([bad, make_task(inst, TASK_Q2A)])
    assert str(err.value) == f"bad-0: token 'c' tags object {tag} but only {objects} objects exist"


@pytest.mark.parametrize("bad_first", [False, True], ids=["a-b", "b-a"])
def test_non_finite_features_stay_in_their_own_task(bad_first):
    # a token reads only its own object row, so a NaN feature row of one
    # task never reaches another task's logits through the shared chunk
    inst = probe_instance()
    model = probe_model(inst)
    a = make_task(inst, TASK_Q2A)
    objects = inst.objects.copy()
    objects[1] = np.nan  # answers 1 and 3 tag object 1
    b = dataclasses.replace(a, instance_id="nan-0", objects=objects)
    chunk = [b, a] if bad_first else [a, b]
    with np.errstate(invalid="ignore"):
        rows = dict(zip((ex.instance_id for ex in chunk), model.forward_chunk(chunk).logits.data))
    npt.assert_array_equal(rows[a.instance_id], _logits(model, a))
    assert not np.isfinite(rows[b.instance_id]).any()


def test_encode_holds_one_row_per_candidate():
    # from encode on, row c of q, objects and r belongs to candidate c: rows
    # 4i..4i+3 of q and objects are task i's own query and objects, padded
    insts = synth_generate(21, 1) + synth_generate(22, 1, k_objects=6)
    tasks = [make_task(insts[0], TASK_Q2A), make_task(insts[1], TASK_QA2R)]
    assert len(tasks[0].query) != len(tasks[1].query)
    assert tasks[0].objects.shape[0] != tasks[1].objects.shape[0]
    model = VcrModel.build(_config(), Vocab.build(insts), insts[0].objects.shape[1],
                           np.random.default_rng(13))
    state = model._stage_encode(tasks, None)
    for seq in (state.q, state.objects, state.r):
        assert seq.mask.shape[0] == CANDIDATES * len(tasks)
    for i, task in enumerate(tasks):
        alone = model._stage_encode([task], None)
        rows = slice(CANDIDATES * i, CANDIDATES * (i + 1))
        for got, want in ((state.q, alone.q), (state.objects, alone.objects)):
            width = want.mask.shape[1]
            npt.assert_array_equal(got.positions.data[rows, :width], want.positions.data)
            npt.assert_array_equal(got.mask[rows, :width], want.mask)
            assert not got.mask[rows, width:].any()


def test_taped_fusion_records_one_entry_per_sublayer():
    # the fusion chain runs on the encode stage's rows as they are: no
    # reshape in or out of it
    inst = probe_instance()
    model = probe_model(inst)
    state = model._stage_encode([make_task(inst, TASK_Q2A), make_task(inst, TASK_QA2R)], None)
    with Tape() as tape:
        model._stage_fuse(state, None)
    assert len(tape) == 2 * len(SUBLAYERS)


def _default_chunk(**arch):
    """The model `train` builds for TrainConfig(**arch) on the default data,
    and its first mini-batch: the first 8 instances of synth_generate(9001,
    40), 16 tasks, one chunk."""
    insts = synth_generate(9001, 40)
    config = TrainConfig(**arch)
    model = VcrModel.build(config, Vocab.build(insts[:32]), insts[0].objects.shape[1],
                           np.random.default_rng(config.seed))
    return model, [make_task(inst, kind) for inst in insts[:8] for kind in (TASK_Q2A, TASK_QA2R)]


@pytest.mark.parametrize("arch,want", [
    ({}, {"encode": 10, "fuse": 8, "joint": 33, "head": 11}),
    ({"ga": False}, {"encode": 8, "fuse": 0, "joint": 33, "head": 11}),
    ({"encoder": "lstm"}, {"encode": 10, "fuse": 8, "joint": 4, "head": 11}),
], ids=["default", "no-ga", "lstm"])
def test_tape_entries_per_stage_of_the_default_chunk(arch, want):
    # the first training chunk's entries per stage: no sequence is
    # transposed, and objects are projected only for guided fusion
    model, state = _default_chunk(**arch)
    rng = np.random.default_rng(0)
    got = {}
    with Tape() as tape:
        for stage in STAGES:
            before = len(tape)
            state = getattr(model, f"_stage_{stage}")(state, rng)
            got[stage] = len(tape) - before
    assert got == want


def test_without_guided_fusion_encode_projects_no_objects():
    model, tasks = _default_chunk(ga=False)
    with Tape() as tape:
        state = model._stage_encode(tasks, None)
    assert state.objects is None and model.obj_proj is None
    assert len(tape) == 8


def _randomize_head(model):
    # fresh heads are zero on purpose; give them values so logits differ
    rng = np.random.default_rng(99)
    clf = model.reduction.clf
    clf.weight.data[...] = rng.standard_normal(clf.weight.data.shape)
    clf.bias.data[...] = rng.standard_normal(clf.bias.data.shape)


def _unit_layout(prefix, d, d_ff):
    """The 12 (name, shape) entries of one attention unit, written out."""
    return ([(f"{prefix}.mha.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")]
            + [(f"{prefix}.ffn.lin1.weight", (d, d_ff)), (f"{prefix}.ffn.lin1.bias", (d_ff,)),
               (f"{prefix}.ffn.lin2.weight", (d_ff, d)), (f"{prefix}.ffn.lin2.bias", (d,))]
            + [(f"{prefix}.{ln}.{v}", (d,)) for ln in ("ln1", "ln2") for v in ("gamma", "beta")])


def _bilstm_layout(prefix, d_in, d_h):
    # both directions stacked on a leading axis, the forward one first
    return [(f"{prefix}.w_x", (2, d_in, 4 * d_h)), (f"{prefix}.w_h", (2, d_h, 4 * d_h)),
            (f"{prefix}.b", (2, 4 * d_h))]


def _expected_layout(ga, encoder):
    """Checkpoint names and shapes of a d_model=8, layers=1 model over the
    probe instance (8 vocabulary entries, 2-wide object features)."""
    layout = [("embedding", (8, 8))]
    if ga:  # the objects are projected only for the guided fusion
        layout += [("obj_proj.weight", (2, 8)), ("obj_proj.bias", (8,))]
    layout += _bilstm_layout("ground", 10, 4)
    if ga:
        layout += _unit_layout("fuse.ga_query", 8, 32) + _unit_layout("fuse.ga_object", 8, 32)
    if encoder == "coattention":
        for side in ("q", "r"):
            layout += (_unit_layout(f"coattn.{side}.0.sa", 8, 32)
                       + _unit_layout(f"coattn.{side}.0.ga", 8, 32))
    else:
        layout += _bilstm_layout("encoder", 8, 4)
    for path in ("mlp_q", "mlp_r"):
        layout += [(f"reduce.{path}.lin1.weight", (8, 4)), (f"reduce.{path}.lin1.bias", (4,)),
                   (f"reduce.{path}.lin2.weight", (4, 1)), (f"reduce.{path}.lin2.bias", (1,))]
    layout += [("reduce.w1", (8, 8)), ("reduce.w2", (8, 8)), ("reduce.ln.gamma", (8,)),
               ("reduce.ln.beta", (8,)), ("reduce.clf.weight", (8, 1)), ("reduce.clf.bias", (1,))]
    return layout


@pytest.mark.parametrize("arch,count", [({}, 92), ({"ga": False}, 66), ({"encoder": "lstm"}, 47)],
                         ids=["default", "no-ga", "lstm"])
def test_parameter_layout_is_pinned(arch, count):
    # checkpoint names and their order are a file format: the optimizer,
    # the writer and every saved run depend on them
    model = _model(probe_instance(), **arch)
    got = [(name, t.data.shape) for name, t in model.named_parameters()]
    assert got == _expected_layout(arch.get("ga", True), arch.get("encoder", "coattention"))
    assert len(got) == count


def test_parts_feed_the_stages_in_order():
    # so each stage's parameters are one slice of `flat`, which a per-stage
    # report of the flat gradient can cut without an index
    ranks = [STAGES.index(stage) for _, _, stage in PARTS]
    assert ranks == sorted(ranks)


def test_forward_runs_each_stage_of_the_table_once_in_order(monkeypatch):
    # the stages are looked up on the class on every call, so a stage
    # replaced there (as the tracer replaces them) is the one that runs
    inst = _ragged_inst()
    model = _model(inst, seed=12)
    _randomize_head(model)
    chunk = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R)]
    want = model.forward_chunk(chunk).logits.data
    calls = []
    for stage in STAGES:
        def recorded(self, state, rng, stage=stage, orig=getattr(VcrModel, f"_stage_{stage}")):
            calls.append(stage)
            return orig(self, state, rng)

        monkeypatch.setattr(VcrModel, f"_stage_{stage}", recorded)
    got = model.forward_chunk(chunk).logits.data
    assert calls == list(STAGES)
    npt.assert_array_equal(got, want)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    inst = _ragged_inst()
    model = _model(inst, seed=6)
    _randomize_head(model)
    before = _forward(model, inst, TASK_QA2R).logits.data
    path = tmp_path / "model.canckpt"
    model.save(path)

    again, config, vocab = load_run(path)
    assert config == model.config and vocab.tokens() == model.vocab.tokens()
    for (name_a, t_a), (name_b, t_b) in zip(model.named_parameters(),
                                            again.named_parameters()):
        assert name_a == name_b
        npt.assert_array_equal(t_a.data, t_b.data)
    npt.assert_array_equal(_forward(again, inst, TASK_QA2R).logits.data, before)


def test_load_rejects_mismatched_state():
    inst = probe_instance()
    model = _model(inst)
    state = model.state_dict()

    bad = dict(state)
    bad["embedding"] = bad["embedding"][:, :-1]
    with pytest.raises(CheckpointError):
        VcrModel.from_state(model.config, model.vocab, bad)

    extra = dict(state)
    extra["mystery.weight"] = np.zeros(3)
    with pytest.raises(CheckpointError):
        VcrModel.from_state(model.config, model.vocab, extra)

    missing = dict(state)
    del missing["reduce.w1"]
    with pytest.raises(CheckpointError):
        VcrModel.from_state(model.config, model.vocab, missing)


def test_a_state_with_split_lstm_directions_is_refused():
    # the layout before the BiLSTM stored its directions stacked: each
    # direction its own ground.fwd.* / ground.bwd.* entries
    model = probe_model()
    state = {name: value for name, value in model.state_dict().items()
             if not name.startswith("ground.")}
    for d, direction in enumerate(("fwd", "bwd")):
        for key in ("w_x", "w_h", "b"):
            state[f"ground.{direction}.{key}"] = model.state_dict()[f"ground.{key}"][d]
    with pytest.raises(CheckpointError, match=r"^state has no ground\.w_x to size the model"):
        VcrModel.from_state(model.config, model.vocab, state)


@pytest.mark.parametrize("field,change", [
    ("layers", {"layers": 2000}),
    ("d_model", {"d_model": 12}),
    ("d_token", {"d_token": 6}),
    ("ga", {"ga": False}),
    ("encoder", {"encoder": "lstm"}),
    ("vocabulary size", {}),
])
def test_from_state_checks_the_architecture_before_it_builds(monkeypatch, field, change):
    # a run's config and vocabulary must agree with what the checkpoint's
    # names and shapes imply; a mismatch must fail before the model the
    # config declares is allocated
    model = probe_model()
    config = dataclasses.replace(model.config, **change)
    vocab = model.vocab if change else Vocab(model.vocab.tokens() + ["extra"])
    have = {**dataclasses.asdict(model.config), "vocabulary size": len(model.vocab)}
    want = {**dataclasses.asdict(config), "vocabulary size": len(vocab)}

    def refuse(*args):
        raise AssertionError("VcrModel.build ran on a mismatched config")

    monkeypatch.setattr(VcrModel, "build", refuse)
    with pytest.raises(CheckpointError) as err:
        VcrModel.from_state(config, vocab, model.state_dict())
    assert str(err.value) == (
        f"checkpoint has {field} {have[field]!r}, the run declares {want[field]!r}"
    )


def test_load_error_names_file_and_bounds_name_list(tmp_path):
    inst = probe_instance()
    model = _model(inst)
    path = tmp_path / CHECKPOINT_NAME
    model.save(path)
    state = read_checkpoint(path)
    state.update({f"stale.{i:02d}.weight": np.zeros(2) for i in range(40)})
    write_checkpoint(path, state)
    with pytest.raises(CheckpointError) as err:
        load_run(path)
    msg = str(err.value)
    assert msg.startswith(f"{path}: ")
    assert "40 unexpected parameters" in msg
    assert "stale.00.weight, stale.01.weight, stale.02.weight, ..." in msg
    assert "stale.03.weight" not in msg


def test_a_byte_parameter_entry_is_refused():
    # a uint8 entry of the right shape would otherwise be cast into flat
    model = probe_model()
    before = model.flat.copy()
    state = model.state_dict()
    state["reduce.w1"] = state["reduce.w1"].astype(np.uint8)
    with pytest.raises(CheckpointError,
                       match=r"^parameter 'reduce\.w1' has dtype uint8, not floats$"):
        model.load_state_dict(state)
    npt.assert_array_equal(model.flat, before)


@pytest.mark.parametrize("ga", [True, False], ids=["ga", "no-ga"])
def test_only_guided_fusion_sees_the_objects_of_a_mention_task(ga):
    # no mention candidate carries a tag, so tag alignment reads no object
    # row: without guided fusion no change to the objects reaches a logit
    insts = synth_generate(5, 4, task="mention")
    model = VcrModel.build(_config(ga=ga), Vocab.build(insts), insts[0].objects.shape[1],
                           np.random.default_rng(3))
    _randomize_head(model)
    rng = np.random.default_rng(0)
    changes = [
        lambda objects: rng.standard_normal(objects.shape),
        lambda objects: np.zeros_like(objects),
        lambda objects: objects * 1e3,
        lambda objects: objects[:4],  # fewer objects
        lambda objects: objects[::-1].copy(),  # evidence on other objects
    ]
    for kind in (TASK_Q2A, TASK_QA2R):
        tasks = [make_task(inst, kind) for inst in insts]
        want = model.forward_chunk(tasks).logits.data
        for change in changes:
            changed = [dataclasses.replace(t, objects=change(t.objects)) for t in tasks]
            got = model.forward_chunk(changed).logits.data
            if ga:
                assert (got != want).any()
            else:
                npt.assert_array_equal(got, want)


@pytest.mark.parametrize("fault", ["nan", "shape"])
def test_failed_load_leaves_every_parameter_as_it_was(fault):
    # only the last entry is malformed, so every other one passes its checks
    model = probe_model()
    before = model.flat.copy()
    state = {name: value + 1.0 for name, value in model.state_dict().items()}
    last = list(state)[-1]
    assert last == "reduce.clf.bias"
    if fault == "nan":
        state[last][-1] = np.nan
    else:
        state[last] = state[last][:-1]
    with pytest.raises(CheckpointError, match=last):
        model.load_state_dict(state)
    assert model.flat.tobytes() == before.tobytes()


def test_trace_labels_cover_the_pipeline():
    inst = probe_instance()
    fwd = _forward(_model(inst), inst, TASK_Q2A)
    labels = [t.unit for t in fwd.traces]
    assert labels == [
        "ga.r_from_q", "ga.r_from_obj",
        "coattn.q.sa.0", "coattn.q.ga.0",
        "coattn.r.sa.0", "coattn.r.ga.0",
        "reduce.q", "reduce.r",
    ]
    deep = _forward(_model(inst, layers=2), inst, TASK_Q2A)
    deep_labels = [t.unit for t in deep.traces]
    assert "coattn.q.sa.1" in deep_labels and "coattn.r.ga.1" in deep_labels


def test_lstm_encoder_skips_coattention_traces():
    inst = probe_instance()
    model = _model(inst, encoder="lstm")
    assert model.coattn is None and model.encoder_lstm is not None
    labels = [t.unit for t in _forward(model, inst, TASK_Q2A).traces]
    assert labels == ["ga.r_from_q", "ga.r_from_obj", "reduce.q", "reduce.r"]


def test_no_guided_fusion_skips_its_traces():
    inst = probe_instance()
    model = _model(inst, ga=False)
    assert model.ga_fuse is None
    labels = [t.unit for t in _forward(model, inst, TASK_Q2A).traces]
    assert labels[0].startswith("coattn.")
    assert not any(l.startswith("ga.") for l in labels)


def test_ablations_shrink_the_model():
    inst = probe_instance()
    full = _model(inst).num_parameters()
    assert _model(inst, ga=False).num_parameters() < full
    assert _model(inst, encoder="lstm").num_parameters() < full


def test_padded_candidate_rows_get_zero_weight():
    inst = _ragged_inst()
    fwd = _forward(_model(inst, seed=7), inst, TASK_Q2A)
    # answers are 2, 4, 1, 3 tokens; everything pads to 4
    pool = next(t for t in fwd.traces if t.unit == "reduce.r")
    for idx, length in enumerate([2, 4, 1, 3]):
        alpha = pool.heads[idx, 0, 0]
        assert alpha.shape == (4,)
        npt.assert_array_equal(alpha[length:], np.zeros(4 - length))
        assert abs(alpha.sum() - 1.0) < 1e-6


def test_predict_builds_a_full_record():
    inst = probe_instance()
    model = _model(inst)
    rec = model.predict(inst, TASK_QA2R)
    assert rec.instance_id == inst.instance_id
    assert rec.task == TASK_QA2R
    assert len(rec.logits) == CANDIDATES
    assert rec.gold == inst.gold_rationale
    assert rec.pred == 0


def test_num_parameters_sums_every_tensor():
    inst = probe_instance()
    model = _model(inst)
    assert model.num_parameters() == sum(
        t.data.size for _, t in model.named_parameters())


_ARCHITECTURES = {"default": {}, "no-ga": {"ga": False}, "lstm": {"encoder": "lstm"}}


def _grads(model, logits, gold):
    model.zero_grad()
    with Tape() as tape:
        losses = task_loss(logits(), gold)
    tape.seed(losses, np.ones(losses.data.shape))
    return {name: t.grad for name, t in model.named_parameters()}


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
@pytest.mark.parametrize("task", [TASK_Q2A, TASK_QA2R])
def test_batched_forward_matches_candidate_loop(arch, task):
    inst = _ragged_inst()
    model = _model(inst, seed=11, **_ARCHITECTURES[arch])
    _randomize_head(model)
    batched = _forward(model, inst, task)
    ex = batched.examples[0]
    loop_logits, loop_traces = loop_forward(model, ex)
    npt.assert_allclose(batched.logits.data[0], loop_logits.data, rtol=0, atol=1e-12)

    assert len(loop_traces) == CANDIDATES
    for c, want in enumerate(loop_traces):
        # the pooling weights are the reduce.q / reduce.r traces
        got = [t.row(c) for t in batched.traces]
        assert [t.unit for t in got] == [t.unit for t in want]
        for g, w in zip(got, want):
            npt.assert_allclose(np.asarray(g.heads), np.asarray(w.heads), rtol=0, atol=1e-12)

    with_batch = _grads(model, lambda: _forward(model, inst, task).logits, [ex.gold])
    with_loop = _grads(model, lambda: loop_forward(model, ex)[0], ex.gold)
    for name, grad in with_batch.items():
        npt.assert_allclose(grad, with_loop[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("encoder", ["coattention", "lstm"])
@pytest.mark.parametrize("ga", [True, False])
def test_lengthening_one_candidate_leaves_the_others(ga, encoder):
    inst = _ragged_inst()
    model = _model(inst, seed=12, ga=ga, encoder=encoder)
    _randomize_head(model)
    ex = TaskExample(inst.instance_id, TASK_Q2A, inst.question, inst.answers, 0, inst.objects)
    longer = [tok for _ in range(3) for tok in inst.answers[3]]
    ex_long = TaskExample(inst.instance_id, TASK_Q2A, inst.question,
                          inst.answers[:3] + [longer], 0, inst.objects)
    base = _logits(model, ex)
    moved = _logits(model, ex_long)
    npt.assert_allclose(moved[:3], base[:3], rtol=0, atol=1e-12)
    assert moved[3] != base[3]


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
def test_chunk_matches_loop_of_one_task_forwards(arch):
    # Q2A and QA2R tasks of three instances, with different query lengths
    # and with 4 and 6 objects, scored as one chunk
    insts = synth_generate(21, 2) + synth_generate(22, 1, k_objects=6)
    tasks = [make_task(inst, kind) for inst in insts for kind in (TASK_Q2A, TASK_QA2R)]
    assert len({len(t.query) for t in tasks}) > 2
    assert {t.objects.shape[0] for t in tasks} == {4, 6}
    model = VcrModel.build(_config(**_ARCHITECTURES[arch]), Vocab.build(insts),
                           insts[0].objects.shape[1], np.random.default_rng(13))
    _randomize_head(model)
    golds = [t.gold for t in tasks]

    chunk = model.forward_chunk(tasks)
    assert chunk.logits.data.shape == (len(tasks), CANDIDATES)
    assert [ex.instance_id for ex in chunk.examples] == [t.instance_id for t in tasks]
    loop = np.stack([model.forward_chunk([t]).logits.data[0] for t in tasks])
    npt.assert_allclose(chunk.logits.data, loop, rtol=0, atol=1e-12)
    assert [r.logits for r in chunk.records()] == chunk.logits.data.tolist()
    for trace in chunk.traces:
        assert trace.heads.shape[0] == CANDIDATES * len(tasks)

    def loop_loss():
        losses = [task_loss(model.forward_chunk([t]).logits, [t.gold]) for t in tasks]
        total = losses[0]
        for loss in losses[1:]:
            total = add(total, loss)
        return total

    with_chunk = _grads(model, lambda: model.forward_chunk(tasks).logits, golds)
    model.zero_grad()
    with Tape() as tape:
        tape.backward(loop_loss())
    with_loop = {name: t.grad for name, t in model.named_parameters()}
    for name, grad in with_chunk.items():
        npt.assert_allclose(grad, with_loop[name], rtol=0, atol=1e-12, err_msg=name)


def test_chunks_respect_the_position_bound():
    insts = synth_generate(5, 12)
    tasks = [make_task(inst, kind) for inst in insts for kind in (TASK_Q2A, TASK_QA2R)]
    inst = _ragged_inst()
    long = TaskExample(inst.instance_id, TASK_Q2A, inst.question * 100, inst.answers, 0,
                       inst.objects)
    assert CHUNK_POSITIONS == 768
    chunks = list(chunked(tasks))
    assert [t for chunk in chunks for t in chunk] == tasks
    assert len(chunks) > 1 and max(len(chunk) for chunk in chunks) > 1
    for chunk, after in zip(chunks, chunks[1:] + [None]):
        assert padded_positions(chunk) <= CHUNK_POSITIONS
        # a run grows as long as it can
        if after is not None:
            assert padded_positions(chunk + after[:1]) > CHUNK_POSITIONS
    # a task too long for the bound still gets a chunk of its own
    assert padded_positions([long]) > CHUNK_POSITIONS
    assert [len(c) for c in chunked([long, long, tasks[0]])] == [1, 1, 1]


def _dropout_model(arch, dropout):
    """A ragged-instance model with a live head, and a chunk of its two tasks."""
    inst = _ragged_inst()
    model = _model(inst, seed=14, dropout=dropout, **_ARCHITECTURES[arch])
    _randomize_head(model)
    return model, [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R)]


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
def test_a_generator_turns_dropout_on_through_the_whole_model(arch):
    model, chunk = _dropout_model(arch, 0.1)
    plain = model.forward_chunk(chunk).logits.data
    dropped = model.forward_chunk(chunk, np.random.default_rng(3)).logits.data
    assert not np.array_equal(dropped, plain)
    # without a generator the rate is never read: the same weights at
    # dropout 0 score the same bits
    npt.assert_array_equal(_dropout_model(arch, 0.0)[0].forward_chunk(chunk).logits.data, plain)


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
def test_at_dropout_zero_a_generator_changes_nothing(arch):
    model, chunk = _dropout_model(arch, 0.0)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with_rng = model.forward_chunk(chunk, rng)
    without = model.forward_chunk(chunk)
    npt.assert_array_equal(with_rng.logits.data, without.logits.data)
    for a, b in zip(with_rng.traces, without.traces, strict=True):
        npt.assert_array_equal(a.heads, b.heads)
    assert rng.bit_generator.state == state


def _mixed_length_instances():
    """Short synthetic instances, every third with a long question, some with
    six objects: sorting their tasks by length reorders them."""
    insts = synth_generate(41, 16) + synth_generate(42, 8, k_objects=6)
    for inst in insts[::3]:
        inst.question = inst.question * 4
    return insts[1::2] + insts[::2]


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
def test_predict_all_matches_one_task_predicts_in_data_order(arch, monkeypatch):
    insts = _mixed_length_instances()
    model = VcrModel.build(_config(**_ARCHITECTURES[arch]), Vocab.build(insts),
                           insts[0].objects.shape[1], np.random.default_rng(17))
    _randomize_head(model)
    tasks = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R) for inst in insts]
    assert sorted(tasks, key=task_lengths) != tasks

    chunks = []
    forward = VcrModel.forward_chunk

    def recorded(self, chunk, *args, **kwargs):
        chunks.append(list(chunk))
        return forward(self, chunk, *args, **kwargs)

    monkeypatch.setattr(VcrModel, "forward_chunk", recorded)
    q2a, qa2r = predict_all(model, insts)
    monkeypatch.undo()
    # several chunks of several tasks each: the length-sorted tasks cut at the bound
    assert sum(len(c) > 1 for c in chunks) >= 3
    assert chunks == list(chunked(sorted(tasks, key=task_lengths)))

    for kind, records in ((TASK_Q2A, q2a), (TASK_QA2R, qa2r)):
        assert len(records) == len(insts)
        for inst, rec in zip(insts, records):
            alone = model.predict(inst, kind)
            assert (rec.instance_id, rec.task, rec.pred, rec.gold) == (
                alone.instance_id, alone.task, alone.pred, alone.gold)
            npt.assert_allclose(rec.logits, alone.logits, rtol=0, atol=1e-12)


_PAD = "<pad>"
# the ragged instance's token texts, each response padded to its task's widest
_EXPORT_SIDES = {
    TASK_Q2A: {
        "q": ["what", "is", "near"],
        "r": [["a", "cat", _PAD, _PAD],
              ["the", "dog", "sits", "here"],
              ["nothing", _PAD, _PAD, _PAD],
              ["both", "cat", "dog", _PAD]],
    },
    TASK_QA2R: {
        "q": ["what", "is", "near", "the", "dog", "sits", "here"],
        "r": [["because", "fur", _PAD],
              ["seen", _PAD, _PAD],
              ["it", "is", "close"],
              ["shadow", "falls", _PAD]],
    },
}
# unit -> (query axis, key axis); "joint" is the query then the response
_EXPORT_ROLES = {
    "ga.r_from_q": ("r", "q"),
    "ga.r_from_obj": ("r", "obj"),
    "coattn.q.sa.0": ("q", "q"),
    "coattn.q.ga.0": ("q", "joint"),
    "coattn.r.sa.0": ("r", "r"),
    "coattn.r.ga.0": ("r", "joint"),
    "reduce.q": ("pool", "q"),
    "reduce.r": ("pool", "r"),
}
_EXPORT_UNITS = {
    "default": list(_EXPORT_ROLES),
    "no-ga": [u for u in _EXPORT_ROLES if not u.startswith("ga.")],
    "lstm": [u for u in _EXPORT_ROLES if not u.startswith("coattn.")],
}


def _exported_labels(model, inst, task, c):
    """unit -> the (query_tokens, key_tokens) that `inspect` writes for candidate c."""
    fwd = _forward(model, inst, task)
    out = {}
    for trace in fwd.traces:
        labels = trace_labels(trace, c, fwd.examples[0], inst.object_labels)
        blob = trace.row(c).to_json_dict(*labels)
        assert np.asarray(blob["heads"]).shape[1:] == (
            len(blob["query_tokens"]), len(blob["key_tokens"])), trace.unit
        out[trace.unit] = (blob["query_tokens"], blob["key_tokens"])
    return out


@pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
@pytest.mark.parametrize("task", [TASK_Q2A, TASK_QA2R])
def test_export_labels_name_every_axis(arch, task):
    inst = _ragged_inst()
    model = _model(inst, seed=11, **_ARCHITECTURES[arch])
    q = _EXPORT_SIDES[task]["q"]
    for c, r in enumerate(_EXPORT_SIDES[task]["r"]):
        axes = {"q": q, "r": r, "obj": ["cat", "dog"], "joint": q + r, "pool": ["<pool>"]}
        want = {unit: (axes[_EXPORT_ROLES[unit][0]], axes[_EXPORT_ROLES[unit][1]])
                for unit in _EXPORT_UNITS[arch]}
        assert _exported_labels(model, inst, task, c) == want, (task, c)


def test_export_labels_reject_weights_of_another_shape():
    inst = _ragged_inst()
    ex = make_task(inst, TASK_Q2A)  # answers pad to 4 tokens
    trace_labels(AttentionTrace("reduce.r", np.zeros((4, 1, 1, 4))), 0, ex, inst.object_labels)
    with pytest.raises(ShapeError):
        trace_labels(AttentionTrace("reduce.r", np.zeros((4, 1, 1, 5))), 0, ex,
                     inst.object_labels)
