import inspect
import json
import sys

import numpy as np
import numpy.testing as npt
import pytest

from helpers import LoopAdam, add, assert_flat_aliasing
from vcrnet import layers as L
from vcrnet import tensor as T
from vcrnet import training
from vcrnet.checkpoint import read_checkpoint
from vcrnet.config import TrainConfig
from vcrnet.data import TASK_Q2A, TASK_QA2R, DataError, Vocab, make_task, synth_generate
from vcrnet.diagnostics import probe_instance, probe_model
from vcrnet.model import VcrModel, chunked, task_lengths
from vcrnet.tensor import Tape
from vcrnet.training import (
    CHECKPOINT_NAME,
    CONFIG_NAME,
    LOG_NAME,
    VOCAB_NAME,
    Adam,
    TrainingDiverged,
    evaluate,
    load_run,
    task_loss,
    train,
)


def _quick_config(**kw):
    base = dict(d_model=8, d_token=8, heads=2, layers=1, dropout=0.0,
                epochs=3, batch_size=4, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def _data(n=8, seed=0):
    insts = synth_generate(seed, n)
    cut = max(1, n // 4)
    return insts[cut:], insts[:cut]


def _random_grads(model, rng):
    for _, t in model.named_parameters():
        t.grad = rng.standard_normal(t.data.shape)


def test_adam_matches_per_parameter_loop():
    # the flat update is elementwise, so it must give the loop's bits
    model, oracle = probe_model(), probe_model()
    opt, ref = Adam(model, lr=0.01), LoopAdam(oracle.named_parameters(), lr=0.01)
    rng = np.random.default_rng(0)
    for step in range(3):
        _random_grads(model, rng)
        for (_, t), (_, u) in zip(model.named_parameters(), oracle.named_parameters()):
            u.grad = t.grad
        if step == 1:
            # a parameter the loss did not reach has no gradient
            for m in (model, oracle):
                m.embedding.grad = None
        opt.step()
        ref.step()
    npt.assert_array_equal(model.flat, oracle.flat)


def test_adam_zero_lr_is_bitwise_identity():
    model = probe_model()
    before = model.flat.copy()
    opt = Adam(model, lr=0.0)
    _random_grads(model, np.random.default_rng(0))
    opt.step()
    npt.assert_array_equal(model.flat, before)


def test_adam_first_step_moves_by_lr():
    # bias correction makes the very first update lr-sized regardless of the
    # gradient's magnitude
    model = probe_model()
    before = model.flat.copy()
    opt = Adam(model, lr=0.5)
    rng = np.random.default_rng(0)
    for _, t in model.named_parameters():
        # signed magnitudes from 0.01 to 100
        t.grad = rng.choice([-1.0, 1.0], t.data.shape) * 10.0 ** rng.uniform(-2, 2, t.data.shape)
    opt.step()
    npt.assert_allclose(model.flat, before - 0.5 * np.sign(model.flat_grad()), atol=1e-5)


def test_parameters_are_views_into_the_flat_buffer(tmp_path):
    # Adam, load_state_dict and probe_model write parameters in place; a
    # rebound `.data` would leave the optimizer updating a stale buffer
    tr, va = _data()
    built = VcrModel.build(_quick_config(), Vocab.build(tr), tr[0].objects.shape[1],
                           np.random.default_rng(0))
    assert_flat_aliasing(built)
    assert_flat_aliasing(probe_model())
    result = train(_quick_config(epochs=1), tr, va, tmp_path)
    assert_flat_aliasing(result.model)
    loaded, _, _ = load_run(tmp_path / CHECKPOINT_NAME)
    assert_flat_aliasing(loaded)
    npt.assert_array_equal(loaded.flat, result.model.flat)


def test_gradient_accumulation_is_linear():
    inst_a = probe_instance()
    model = probe_model(inst_a)

    def loss_for(task):
        ex = make_task(inst_a, task)
        return task_loss(model.forward_chunk([ex]).logits, [ex.gold])

    def grads_for(task):
        model.zero_grad()
        with Tape() as tape:
            tape.backward(loss_for(task))
        return {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in model.named_parameters()}

    ga = grads_for(TASK_Q2A)
    gr = grads_for(TASK_QA2R)

    model.zero_grad()
    with Tape() as tape:
        tape.backward(add(loss_for(TASK_Q2A), loss_for(TASK_QA2R)))

    worst = 0.0
    for name, t in model.named_parameters():
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, np.abs(got - (ga[name] + gr[name])).max())
    assert worst < 1e-10


def test_train_writes_sidecars_and_log(tmp_path):
    tr, va = _data()
    result = train(_quick_config(epochs=1), tr, va, tmp_path)
    assert (tmp_path / CHECKPOINT_NAME).exists()
    assert (tmp_path / CONFIG_NAME).exists()
    assert (tmp_path / VOCAB_NAME).exists()
    lines = (tmp_path / LOG_NAME).read_text().splitlines()
    assert len(lines) == len(result.reports)
    entry = json.loads(lines[0])
    for key in ("epoch", "mean_loss", "train_q2a", "train_qa2r",
                "val_q2a", "val_qa2r", "wall_time", "instances_per_s"):
        assert key in entry
    assert result.final_report is result.reports[-1]
    report = result.final_report
    assert report.instances_per_s == pytest.approx(len(tr) / report.wall_time)
    # the timings cannot reproduce across runs, so the core leaves them out
    assert set(report.core()) == set(entry) - {"wall_time", "instances_per_s"}


def test_loss_decreases_over_epochs(tmp_path):
    tr, va = _data()
    result = train(_quick_config(epochs=2, lr=1e-4, patience=50), tr, va, tmp_path)
    if len(result.reports) > 1:
        assert result.reports[1].mean_loss < result.reports[0].mean_loss


def test_training_fits_the_synthetic_rule(tmp_path):
    tr, va = _data(12, seed=3)
    result = train(_quick_config(epochs=30), tr, va, tmp_path)
    final = result.reports[-1]
    assert final.train_q2a == 1.0 and final.train_qa2r == 1.0
    # perfect fit stops the loop, no need to burn the remaining epochs
    assert len(result.reports) < 30


def test_ablations_train_without_divergence(tmp_path):
    tr, va = _data()
    for i, cfg in enumerate([_quick_config(epochs=2, ga=False),
                             _quick_config(epochs=2, encoder="lstm")]):
        result = train(cfg, tr, va, tmp_path / str(i))
        assert all(np.isfinite(r.mean_loss) for r in result.reports)


def test_same_seed_runs_are_identical(tmp_path):
    tr, va = _data()
    cfg = _quick_config(epochs=2, patience=50)
    a = train(cfg, tr, va, tmp_path / "a")
    b = train(cfg, tr, va, tmp_path / "b")
    assert [r.core() for r in a.reports] == [r.core() for r in b.reports]
    assert (tmp_path / "a" / CHECKPOINT_NAME).read_bytes() == \
        (tmp_path / "b" / CHECKPOINT_NAME).read_bytes()


def test_dropout_changes_a_same_seed_training_run(tmp_path):
    # training must hand its generator to the forward: without it every
    # dropout rate would train the same weights
    tr, va = _data()
    for rate in (0.1, 0.0):
        train(_quick_config(epochs=1, dropout=rate), tr, va, tmp_path / str(rate))
    assert (tmp_path / "0.1" / CHECKPOINT_NAME).read_bytes() != \
        (tmp_path / "0.0" / CHECKPOINT_NAME).read_bytes()


def test_zero_lr_stops_on_patience(tmp_path):
    tr, va = _data()
    result = train(_quick_config(lr=0.0, epochs=50, patience=3), tr, va, tmp_path)
    # epoch 1 sets the best score; nothing ever improves on it
    assert len(result.reports) == 4


def test_early_stopping_keeps_the_last_weights(tmp_path, monkeypatch):
    # validation answer accuracy peaks at epoch 1; with patience 2 training
    # stops at epoch 3, and everything it hands back describes epoch 3
    tr, va = _data()
    val_acc = iter([0.5, 0.75, 0.5, 0.5])

    def scripted(model, instances):
        acc = next(val_acc) if instances is va else 0.5
        return {"q2a": acc, "qa2r": 0.5, "q2ar": 0.25, "n": len(instances)}

    monkeypatch.setattr(training, "evaluate", scripted)
    saved = []
    result = train(_quick_config(epochs=10, patience=2), tr, va, tmp_path,
                   progress=lambda _: saved.append(read_checkpoint(tmp_path / CHECKPOINT_NAME)))
    assert [r.val_q2a for r in result.reports] == [0.5, 0.75, 0.5, 0.5]
    assert result.final_report.epoch == 3

    final = read_checkpoint(tmp_path / CHECKPOINT_NAME)
    state = result.model.state_dict()
    assert list(final) == list(state)
    for name, arr in state.items():
        npt.assert_array_equal(final[name], arr)
        npt.assert_array_equal(saved[3][name], arr)
    assert any((saved[1][name] != arr).any() for name, arr in state.items())
    last_line = (tmp_path / LOG_NAME).read_text().splitlines()[-1]
    assert json.loads(last_line) == result.final_report.to_json_dict()
    assert result.val_metrics["q2a"] == 0.5


def test_non_finite_loss_raises_diverged(tmp_path):
    tr, va = _data()
    for inst in tr:
        inst.objects *= np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(_quick_config(), tr, va, tmp_path)
    assert exc.value.reports == []
    msg = str(exc.value)
    assert msg.startswith("non-finite loss at epoch 0, instance ")
    assert msg.split("instance ", 1)[1].split(":", 1)[0] in {i.instance_id for i in tr}
    # the features first meet the tape where align_tags joins them to the embeddings
    assert "first non-finite output from op concat (tape entry 1 of " in msg


def test_divergence_names_the_instance_with_non_finite_features(tmp_path):
    insts = synth_generate(7, 40)
    tr, va = insts[:32], insts[32:]
    bad = tr[5]
    tag = next(tok.tag for seq in (bad.question, *bad.answers) for tok in seq
               if tok.tag is not None)
    bad.objects[tag] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(TrainConfig(epochs=1), tr, va, tmp_path)
    msg = str(exc.value)
    # the NaN row reaches no other instance of the mini-batch's chunk
    assert msg.startswith(f"non-finite loss at epoch 0, instance {bad.instance_id}: ")
    assert bad.instance_id == "synth-7-00005"
    assert "first non-finite output from op concat (tape entry 1 of " in msg


def test_empty_training_set_rejected(tmp_path):
    with pytest.raises(DataError):
        train(_quick_config(), [], [], tmp_path)


def test_an_instance_in_both_sets_is_rejected(tmp_path):
    # a validation copy of a training instance would score it as held out
    train_set, val_set = _data(n=8)
    with pytest.raises(DataError, match=f"^instance_id '{train_set[2].instance_id}' is in "
                                        f"both the training and validation sets$"):
        train(_quick_config(), train_set, val_set + train_set[2:3], tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_mixed_object_widths_rejected(tmp_path):
    wide = synth_generate(0, 2, d_o=8)
    narrow = synth_generate(1, 2, d_o=4)
    with pytest.raises(DataError):
        train(_quick_config(), wide + narrow, [], tmp_path)


def test_evaluate_reports_all_metrics(tmp_path):
    insts = synth_generate(5, 4)
    tr, va = insts[1:], insts[:1]
    result = train(_quick_config(epochs=1), tr, va, tmp_path)
    metrics = evaluate(result.model, va)
    assert set(metrics) == {"q2a", "qa2r", "q2ar", "n"}
    assert metrics["n"] == 1
    assert 0.0 <= metrics["q2ar"] <= metrics["q2a"]
    assert 0.0 <= metrics["q2ar"] <= metrics["qa2r"]


def test_evaluate_names_the_first_wrong_width_in_data_order(tmp_path):
    result = train(_quick_config(epochs=1), *_data(), tmp_path)  # 8-wide objects
    first, later = synth_generate(4, 2, d_o=4)
    first.question = first.question * 5
    # sorted by length, every task of `later` would be scored before `first`
    keys = {inst.instance_id: [task_lengths(make_task(inst, kind))
                               for kind in (TASK_Q2A, TASK_QA2R)]
            for inst in (first, later)}
    assert max(keys[later.instance_id]) < min(keys[first.instance_id])
    good = synth_generate(3, 4)
    with pytest.raises(DataError) as err:
        evaluate(result.model, good[:2] + [first] + good[2:] + [later])
    assert str(err.value) == (f"{first.instance_id}: object features are 4 wide, "
                              f"the model expects 8")


def _recorded_chunks(monkeypatch) -> tuple:
    """(taped, untaped): the task lists of every later `forward_chunk` call,
    split by whether a tape was open."""
    taped, untaped = [], []
    forward = VcrModel.forward_chunk

    def recorded(self, chunk, *args, **kwargs):
        (taped if T._TAPES else untaped).append(list(chunk))
        return forward(self, chunk, *args, **kwargs)

    monkeypatch.setattr(VcrModel, "forward_chunk", recorded)
    return taped, untaped


def test_evaluate_validates_in_data_order_before_any_forward(tmp_path, monkeypatch):
    result = train(_quick_config(epochs=1), *_data(), tmp_path)
    insts = synth_generate(4, 6)
    insts[2].gold_answer = 7
    insts[4].answers = insts[4].answers[:3]
    taped, untaped = _recorded_chunks(monkeypatch)
    with pytest.raises(DataError) as err:
        evaluate(result.model, insts)
    assert str(err.value) == f"{insts[2].instance_id}: gold index out of range"
    # the first repeat in data order is named, not the first id repeated
    good = insts[:2] + insts[5:]
    with pytest.raises(DataError) as err:
        evaluate(result.model, good + [good[1], good[0]])
    assert str(err.value) == f"{good[1].instance_id}: duplicate instance_id"
    assert taped == untaped == []


def test_taped_training_cuts_data_order_chunks_at_the_training_bound(tmp_path, monkeypatch):
    taped, untaped = _recorded_chunks(monkeypatch)
    # 18 training instances: mini-batches of 32 and 4 tasks
    config = _quick_config(epochs=1, batch_size=16)
    tr, va = _data(n=24)
    train(config, tr, va, tmp_path)

    # each mini-batch lists its instances' Q2A and QA2R tasks in pairs, and
    # is cut greedily in that order under the bound
    flat = [t for chunk in taped for t in chunk]
    firsts = [t.instance_id for t in flat[::2]]
    assert sorted(firsts) == sorted(inst.instance_id for inst in tr)
    assert [(t.instance_id, t.task) for t in flat] == [
        (inst_id, kind) for inst_id in firsts for kind in (TASK_Q2A, TASK_QA2R)]
    batch = 2 * config.batch_size
    recut = [chunk for start in range(0, len(flat), batch)
             for chunk in chunked(flat[start:start + batch])]
    assert taped == recut and len(taped) > 2 and max(map(len, taped)) > 1
    # the in-epoch evaluation cuts the length-sorted tasks at the same bound
    expected = [chunk for insts in (tr, va) for chunk in chunked(sorted(
        (make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R) for inst in insts),
        key=task_lengths))]
    assert untaped == expected


def test_a_default_mini_batch_is_one_taped_forward(tmp_path, monkeypatch):
    taped, _ = _recorded_chunks(monkeypatch)
    config = TrainConfig(epochs=1)
    insts = synth_generate(9001, 40)
    train(config, insts[:32], insts[32:], tmp_path)
    assert [len(chunk) for chunk in taped] == [2 * config.batch_size] * 4


def test_load_run_round_trip(tmp_path):
    tr, va = _data()
    result = train(_quick_config(epochs=1), tr, va, tmp_path)
    model, config, vocab = load_run(tmp_path / CHECKPOINT_NAME)
    assert config == result.model.config
    assert vocab.tokens() == result.vocab.tokens()
    for (na, ta), (nb, tb) in zip(model.named_parameters(),
                                  result.model.named_parameters()):
        assert na == nb
        npt.assert_array_equal(ta.data, tb.data)


def test_load_run_missing_sidecar(tmp_path):
    tr, va = _data()
    train(_quick_config(epochs=1), tr, va, tmp_path)
    (tmp_path / VOCAB_NAME).unlink()
    with pytest.raises(FileNotFoundError):
        load_run(tmp_path / CHECKPOINT_NAME)


def _op_builders():
    """Names of the functions and Tensor methods that build a tape rule
    themselves, i.e. call `tensor._result`; `record_op` builds rules owned
    by its callers."""
    fns = [(name, fn) for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__]
    fns += [(f"Tensor.{name}", fn) for name, fn in vars(T.Tensor).items()
            if inspect.isfunction(fn)]
    return {name for name, fn in fns if "_result" in fn.__code__.co_names} - {"record_op"}


def test_one_train_epoch_reaches_every_tensor_op(tmp_path, monkeypatch):
    """The tensor library holds only ops the program runs: one default
    training epoch, which also evaluates, builds a rule of each of them."""
    owners = set()
    result = T._result

    def collecting(data, inputs, rule):
        owners.add(rule.__qualname__.split(".<locals>", 1)[0])
        return result(data, inputs, rule)

    monkeypatch.setattr(T, "_result", collecting)
    train_set, val_set = _data(n=8)
    train(TrainConfig(epochs=1), train_set, val_set, tmp_path / "run")
    builders = _op_builders()
    assert {"matmul", "Tensor.reshape", "Tensor.slice"} <= builders
    assert builders - owners == set()
    assert "task_loss" in owners


def test_one_train_epoch_calls_every_layer(tmp_path, monkeypatch):
    """`layers` holds only layers the program runs: one default training
    epoch calls each of its public functions other than the `init_*` ones,
    wherever a vcrnet module holds it."""
    public = {name: fn for name, fn in vars(L).items()
              if inspect.isfunction(fn) and fn.__module__ == L.__name__
              and not name.startswith(("_", "init_"))}
    assert {"linear", "layer_norm", "feed_forward", "bilstm"} <= set(public)
    called = set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name, fn in public.items():
        wrapped = counting(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "vcrnet" or mod_name.startswith("vcrnet."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, wrapped)
    train_set, val_set = _data(n=8)
    train(TrainConfig(epochs=1), train_set, val_set, tmp_path / "run")
    assert set(public) - called == set()
