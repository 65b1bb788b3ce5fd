import json
import shutil
import struct

import numpy as np
import pytest

from helpers import append_entry, entry_bytes, set_entry, write_overflowing_container

import vcrnet.cli as cli
from vcrnet.checkpoint import MAGIC, read_checkpoint, write_checkpoint
from vcrnet.cli import main
from vcrnet.data import (
    TASK_Q2A,
    TASK_QA2R,
    load_instances,
    make_task,
    save_annotations,
    save_features,
    serialize_instance,
    synth_generate,
)
from vcrnet.diagnostics import CheckResult
from vcrnet.model import trace_labels
from vcrnet.training import load_run


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _lines(capsys):
    return [json.loads(line, parse_constant=_strict)
            for line in capsys.readouterr().out.splitlines()]


def _synth(tmp_path, n=4, seed=3):
    data = tmp_path / "data"
    assert main(["synth", "--n", str(n), "--seed", str(seed), "--out", str(data)]) == 0
    return data


def test_synth_writes_dataset(tmp_path, capsys):
    data = _synth(tmp_path, n=8)
    summary = _lines(capsys)[-1]
    assert summary["train"] == 8 and summary["val"] == 2
    for name in (cli.TRAIN_FILE, cli.VAL_FILE, cli.FEATURES_FILE):
        assert (data / name).exists()
    assert len((data / cli.TRAIN_FILE).read_text().splitlines()) == 8
    assert len((data / cli.VAL_FILE).read_text().splitlines()) == 2


def test_synth_reruns_are_byte_identical(tmp_path):
    a = _synth(tmp_path / "a", n=6, seed=11)
    b = _synth(tmp_path / "b", n=6, seed=11)
    for name in (cli.TRAIN_FILE, cli.VAL_FILE, cli.FEATURES_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_writes_the_mention_task(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--n", "4", "--seed", "5", "--task", "mention",
                 "--out", str(data)]) == 0
    written = [inst for name in (cli.TRAIN_FILE, cli.VAL_FILE)
               for inst in load_instances(data / name, data / cli.FEATURES_FILE)]
    want = synth_generate(5, 5, task="mention")
    assert [serialize_instance(x) for x in written] == [serialize_instance(x) for x in want]
    for x, y in zip(written, want):
        assert x.objects.tobytes() == y.objects.tobytes()


def test_synth_rejects_nonpositive_n(tmp_path, capsys):
    assert main(["synth", "--n", "0", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().out == ""


_FAST = ["--d-model", "8", "--d-token", "8", "--layers", "1",
         "--dropout", "0.0", "--epochs", "2"]


def test_train_emits_reports_and_final_metrics(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), *_FAST]) == 0
    lines = _lines(capsys)[1:]  # drop the synth summary
    final = lines[-1]
    assert final["metric"] == "accuracy"
    assert set(final["train"]) == {"q2a", "qa2r", "q2ar", "n"}
    assert (out / "model.canckpt").exists()
    for report in lines[:-1]:
        assert "mean_loss" in report and "wall_time" in report
        assert report["instances_per_s"] > 0


def test_train_flags_override_config_file(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"epochs": 1, "d_model": 8, "d_token": 8, "layers": 1, "dropout": 0.0}')
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(cfg), "--epochs", "2"]) == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["epochs"] == 2
    assert stored["d_model"] == 8


def test_train_rejects_bad_config_value(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"heads": 5, "d_model": 8}')
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)]) == 2
    error = _one_error(capsys)
    assert str(cfg) in error and "heads=5" in error


@pytest.mark.parametrize("text,named", [
    ('{"epochs": 1,}', "line 1 column 14"),
    ('{"heads": "2"}', "heads must be int"),
    ('{"momentum": 0.9}', "unknown config keys"),
    ('[1, 2]', "must be a JSON object"),
], ids=["malformed", "mistyped", "unknown-key", "not-object"])
def test_train_bad_config_file_is_one_error_line(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)]) == 2
    error = _one_error(capsys)
    assert str(cfg) in error and named in error
    assert not (tmp_path / "r").exists()


def test_train_from_a_runs_config_reproduces_it(tmp_path, capsys):
    data = _synth(tmp_path)
    first, again = tmp_path / "run", tmp_path / "rerun"
    assert main(["train", "--data", str(data), "--out", str(first), *_FAST,
                 "--encoder", "lstm", "--ga", "false", "--seed", "5"]) == 0
    assert main(["train", "--data", str(data), "--out", str(again),
                 "--config", str(first / "config.json")]) == 0
    for name in ("model.canckpt", "config.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_eval_scores_a_checkpoint(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), *_FAST])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(out / "model.canckpt"),
                 "--data", str(data / cli.TRAIN_FILE)]) == 0
    metrics = _lines(capsys)[-1]
    assert metrics["metric"] == "accuracy"
    assert metrics["n"] == 4
    assert 0.0 <= metrics["q2ar"] <= min(metrics["q2a"], metrics["qa2r"])


def test_eval_missing_checkpoint_prints_nothing(tmp_path, capsys):
    data = _synth(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(tmp_path / "none.canckpt"),
                 "--data", str(data / cli.TRAIN_FILE)]) == 2
    assert capsys.readouterr().out == ""


def test_inspect_exports_traces(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), *_FAST])
    inst_id = json.loads((data / cli.TRAIN_FILE).read_text().splitlines()[0])["instance_id"]
    capsys.readouterr()

    traces = tmp_path / "traces"
    assert main(["inspect", "--ckpt", str(out / "model.canckpt"), "--data", str(data),
                 "--instance-id", inst_id, "--out", str(traces)]) == 0
    summary = _lines(capsys)[-1]
    assert summary["instance"] == inst_id
    blob = json.loads((traces / "Q2A.ga.r_from_obj.json").read_text())
    assert set(blob) == {"unit", "heads", "query_tokens", "key_tokens"}
    for row in blob["heads"][0]:
        assert abs(sum(row) - 1.0) < 1e-6
    pred = json.loads((traces / "QA2R.prediction.json").read_text())
    assert pred["task"] == "QA2R" and len(pred["logits"]) == 4


def test_inspect_files_are_the_predicted_candidates_slice(trained_run, tmp_path, capsys):
    data, ckpt = trained_run
    inst = load_instances(data / cli.TRAIN_FILE, data / cli.FEATURES_FILE)[0]
    traces = tmp_path / "traces"
    assert main(["inspect", "--ckpt", str(ckpt), "--data", str(data),
                 "--instance-id", inst.instance_id, "--out", str(traces)]) == 0
    model, _, _ = load_run(ckpt)
    expected = set()
    for task in (TASK_Q2A, TASK_QA2R):
        fwd = model.forward_chunk([make_task(inst, task)])
        record = fwd.records()[0]
        for trace in fwd.traces:
            path = traces / f"{task}.{trace.unit}.json"
            labels = trace_labels(trace, record.pred, fwd.examples[0], inst.object_labels)
            assert json.loads(path.read_text()) == trace.row(record.pred).to_json_dict(*labels)
            expected.add(path.name)
        path = traces / f"{task}.prediction.json"
        assert json.loads(path.read_text()) == record.to_json_dict()
        expected.add(path.name)
    assert {p.name for p in traces.iterdir()} == expected
    assert set(_lines(capsys)[-1]["files"]) == {str(traces / n) for n in expected}


def test_inspect_unknown_instance(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), *_FAST])
    assert main(["inspect", "--ckpt", str(out / "model.canckpt"), "--data", str(data),
                 "--instance-id", "nope", "--out", str(tmp_path / "t")]) == 2


def test_gradcheck_exit_codes(tmp_path, capsys, monkeypatch):
    import numpy as np

    # numpy scalars, exactly what the battery produces; json must cope
    good = [CheckResult("stub/a", np.float64(1e-9), 4, 0.01, "stub.w[3]")]
    monkeypatch.setattr(cli, "run_all", lambda: good)
    assert main(["gradcheck"]) == 0
    lines = _lines(capsys)
    # an end-to-end line names its worst coordinate
    assert lines[0]["worst_at"] == "stub.w[3]"
    summary = lines[-1]
    assert summary["passed"] is True and summary["worst"] == 1e-9

    bad = [CheckResult("stub/b", np.float64(0.5), 4, 0.01)]
    monkeypatch.setattr(cli, "run_all", lambda: bad)
    assert main(["gradcheck"]) == 1
    assert _lines(capsys)[-1]["passed"] is False

    # a NaN after a passing result fails the battery, and stdout stays
    # strict JSON: the NaN is written as null
    nan = [CheckResult("stub/a", np.float64(1e-9), 4, 0.01),
           CheckResult("stub/c", np.float64("nan"), 4, 0.01, "stub.w[0]")]
    monkeypatch.setattr(cli, "run_all", lambda: nan)
    assert main(["gradcheck"]) == 1
    lines = _lines(capsys)
    assert lines[1]["max_rel_err"] is None and lines[1]["worst_at"] == "stub.w[0]"
    assert lines[-1]["worst"] is None and lines[-1]["passed"] is False


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "d", "--out", "o", "--epochs", "three"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-run")
    data = _synth(root)
    out = root / "run"
    assert main(["train", "--data", str(data), "--out", str(out), *_FAST]) == 0
    return data, out / "model.canckpt"


def _set_gold(r):
    r["gold_answer"] = "x"


def _list_question(r):
    r["question"] = ["what", "is"]


def _string_tag(r):
    r["question"]["tags"][0] = "x"


def _gold(value):
    def corrupt(r):
        r["gold_answer"] = value
    return corrupt


def _tag(value):
    def corrupt(r):
        r["question"]["tags"][0] = value
    return corrupt


def _int_token(r):
    r["question"]["tokens"][0] = 5


def _string_tokens(r):
    # as long as the tags, so only the type is wrong
    r["question"]["tokens"] = "x" * len(r["question"]["tags"])


def _string_tags(r):
    r["question"]["tags"] = "x" * len(r["question"]["tokens"])


def _labels(value):
    def corrupt(r):
        r["object_labels"] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_set_gold, _list_question, _string_tag, _gold(1.9), _gold(True), _gold(1.0),
     _tag(True), _tag(1.0), _int_token, _string_tokens, _string_tags,
     _labels("abcd"), _labels([1, 2, 3, 4])],
    ids=["gold-not-int", "question-list", "tag-string", "gold-float", "gold-bool",
         "gold-integral-float", "tag-bool", "tag-integral-float", "token-int",
         "tokens-string", "tags-string", "labels-string", "labels-int"],
)
def test_eval_reports_malformed_annotation_line(trained_run, capsys, corrupt):
    data, ckpt = trained_run
    records = [json.loads(line) for line in (data / cli.TRAIN_FILE).read_text().splitlines()]
    corrupt(records[1])
    bad = data / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1 and f"{bad} line 2:" in errors[0]
    assert not any("Traceback" in line for line in err)


def test_train_reports_a_non_string_token(tmp_path, capsys):
    data = _synth(tmp_path)
    path = data / cli.TRAIN_FILE
    records = [json.loads(line) for line in path.read_text().splitlines()]
    _int_token(records[2])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *_FAST]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1 and f"{path} line 3: tokens must be a JSON list of strings" in errors[0]
    assert not any("Traceback" in line for line in err)


def test_train_scores_the_final_model_once(tmp_path, capsys, monkeypatch):
    import vcrnet.training as training

    data = _synth(tmp_path)
    calls = []

    def counted(model, instances):
        calls.append(len(instances))
        return predict_all(model, instances)

    predict_all = training.predict_all
    monkeypatch.setattr(training, "predict_all", counted)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 *_FAST, "--epochs", "1"]) == 0
    lines = _lines(capsys)
    # the epoch scores the training and validation sets once each, and the
    # final line reports those same scores
    assert calls == [4, 1]
    assert lines[-1]["train"]["n"] == 4 and lines[-1]["val"]["n"] == 1
    assert lines[-1]["train"]["q2a"] == lines[0]["train_q2a"]
    assert lines[-1]["val"]["q2a"] == lines[0]["val_q2a"]


def test_train_without_validation_set_reports_no_val_accuracy(tmp_path, capsys, caplog):
    data = _synth(tmp_path)
    (data / cli.VAL_FILE).unlink()
    out = tmp_path / "run"
    capsys.readouterr()
    # lr 0 never fits the training set and never improves on it, so only
    # patience on the training accuracy could stop this before the last epoch
    with caplog.at_level("INFO", logger="vcrnet"):
        assert main(["train", "--data", str(data), "--out", str(out), *_FAST,
                     "--lr", "0", "--epochs", "3", "--patience", "1"]) == 0
    lines = _lines(capsys)
    epochs, final = lines[:-1], lines[-1]
    assert [r["epoch"] for r in epochs] == [0, 1, 2]
    assert epochs[0]["train_q2a"] < 1.0
    logged = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    for report in epochs + logged:
        assert report["val_q2a"] is None and report["val_qa2r"] is None
    assert final["val"] is None and final["train"]["n"] == 4
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch")]
    assert len(progress) == 3 and all("val none" in msg for msg in progress)


def test_train_rejects_non_finite_feature_row(tmp_path, capsys):
    from vcrnet.checkpoint import read_checkpoint, write_checkpoint

    data = _synth(tmp_path)
    first = json.loads((data / cli.TRAIN_FILE).read_text().splitlines()[0])["instance_id"]
    feats = read_checkpoint(data / cli.FEATURES_FILE)
    feats[f"objects/{first}"][1, 2] = float("nan")
    write_checkpoint(data / cli.FEATURES_FILE, feats)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *_FAST]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1
    assert f"{data / cli.TRAIN_FILE} line 1: {first}: " in errors[0] and "NaN" in errors[0]
    assert not any("Traceback" in line for line in err)


def test_eval_reports_object_width_mismatch(trained_run, tmp_path, capsys):
    _, ckpt = trained_run  # trained on 8-wide object features
    narrow = synth_generate(3, 10, d_o=4)
    annotations = tmp_path / cli.TRAIN_FILE
    save_annotations(annotations, narrow)
    save_features(tmp_path / cli.FEATURES_FILE, narrow)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(annotations)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert errors == [f"error: {narrow[0].instance_id}: object features are 4 wide, "
                      f"the model expects 8"]
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize("command", ["synth", "train", "inspect"])
def test_out_pointing_at_a_file_is_a_usage_error(trained_run, tmp_path, capsys, command):
    data, ckpt = trained_run
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    inst_id = json.loads((data / cli.TRAIN_FILE).read_text().splitlines()[0])["instance_id"]
    argv = {
        "synth": ["synth", "--n", "2"],
        "train": ["train", "--data", str(data), *_FAST],
        "inspect": ["inspect", "--ckpt", str(ckpt), "--data", str(data),
                    "--instance-id", inst_id],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err == [f"error: --out is not a directory: {taken}"]
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["synth", "train"])
def test_out_below_a_file_is_a_usage_error(trained_run, tmp_path, capsys, command):
    # `train` makes its directory only once the data is checked, so it
    # checks the path up front without making anything
    data, _ = trained_run
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "run"
    argv = {"synth": ["synth", "--n", "2"], "train": ["train", "--data", str(data), *_FAST]}
    capsys.readouterr()
    assert main(argv[command] + ["--out", str(out)]) == 2
    assert _one_error(capsys) == f"error: --out is not a directory: {out}"
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("shape", [(), (2, 8, 16)], ids=["rank-0", "no-rows"])
def test_eval_reports_malformed_object_projection(trained_run, tmp_path, capsys, shape):
    # the object feature width is read off ground.w_x, (2, d_token + d_o,
    # 2·d_model), before any other entry is checked, so a bad one (here one
    # that reads only the 8-wide tokens) must not reach the model build
    data, ckpt = trained_run
    run = tmp_path / "run"
    shutil.copytree(ckpt.parent, run)
    state = read_checkpoint(ckpt)
    state["ground.w_x"] = np.zeros(shape)
    bad = run / ckpt.name
    write_checkpoint(bad, state)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(bad), "--data", str(data / cli.TRAIN_FILE)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1
    assert str(bad) in errors[0] and "ground.w_x" in errors[0] and str(shape) in errors[0]
    assert not any("Traceback" in line for line in err)


def test_eval_reports_a_config_that_disagrees_with_its_checkpoint(trained_run, tmp_path, capsys):
    # building 2000 co-attention layers before reading the checkpoint's
    # names would take seconds and memory; the config is checked first
    data, ckpt = trained_run
    run = tmp_path / "run"
    shutil.copytree(ckpt.parent, run)
    config = json.loads(entry_bytes(run / ckpt.name, "config"))
    trained = config["layers"]
    set_entry(run / ckpt.name, "config", json.dumps({**config, "layers": 2000}).encode())
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / ckpt.name),
                 "--data", str(data / cli.TRAIN_FILE)]) == 1
    assert _one_error(capsys) == (
        f"error: {run / ckpt.name}: checkpoint has layers {trained}, the run declares 2000"
    )


def _eval_out(ckpt, data, capsys):
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data / cli.TRAIN_FILE)]) == 0
    return capsys.readouterr().out


def test_eval_reads_nothing_beside_the_checkpoint(trained_run, tmp_path, capsys):
    # the checkpoint holds its config and vocabulary; config.json is an export
    data, ckpt = trained_run
    run = tmp_path / "run"
    shutil.copytree(ckpt.parent, run)
    want = _eval_out(run / ckpt.name, data, capsys)
    config = json.loads((run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps({**config, "heads": 4, "layers": 2000}))
    (run / "vocab.json").write_text('{"tokens": ["<pad>", "<unk>"]}')
    assert _eval_out(run / ckpt.name, data, capsys) == want
    (run / "config.json").unlink()
    (run / "vocab.json").unlink()
    assert _eval_out(run / ckpt.name, data, capsys) == want


def test_a_checkpoint_without_its_config_and_vocabulary_is_refused(trained_run, tmp_path,
                                                                    capsys):
    # as checkpoints were written before they held them; no sidecar is read
    data, ckpt = trained_run
    run = tmp_path / "run"
    shutil.copytree(ckpt.parent, run)
    (run / "vocab.json").write_bytes(entry_bytes(run / ckpt.name, "vocab"))
    for name in ("config", "vocab"):
        set_entry(run / ckpt.name, name, None)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / ckpt.name),
                 "--data", str(data / cli.TRAIN_FILE)]) == 1
    error = _one_error(capsys)
    assert error.startswith(f"error: {run / ckpt.name}: no 'config' entry") and "retrain" in error


def _one_error(capsys) -> str:
    """The single `error:` line of a failed command that printed no report."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert not any("Traceback" in line for line in err)
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


@pytest.mark.parametrize("command", ["eval", "train"])
def test_repeated_instance_id_is_one_error_line(trained_run, tmp_path, capsys, command):
    data, ckpt = trained_run
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    annotations = copy / cli.TRAIN_FILE
    lines = annotations.read_text().splitlines(keepends=True)
    annotations.write_text("".join(lines + lines[:1]))
    out = tmp_path / "run"
    argv = {
        "eval": ["eval", "--ckpt", str(ckpt), "--data", str(annotations)],
        "train": ["train", "--data", str(copy), "--out", str(out), *_FAST],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    first = json.loads(lines[0])["instance_id"]
    assert _one_error(capsys) == (f"error: {annotations} line {len(lines) + 1}: "
                                  f"duplicate instance_id {first!r}, first on line 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "inspect"])
def test_an_instance_in_both_sets_is_one_error_line(trained_run, tmp_path, capsys, command):
    # the validation file repeats the first training instance: `inspect`
    # would export one copy of it and `train` score it as held out
    data, ckpt = trained_run
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    first = (copy / cli.TRAIN_FILE).read_text().splitlines(keepends=True)[0]
    with open(copy / cli.VAL_FILE, "a") as fh:
        fh.write(first)
    inst_id = json.loads(first)["instance_id"]
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(copy), "--out", str(out), *_FAST],
        "inspect": ["inspect", "--ckpt", str(ckpt), "--data", str(copy),
                    "--instance-id", inst_id, "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert _one_error(capsys) == {
        "train": f"error: instance_id {inst_id!r} is in both the training and "
                 f"validation sets",
        "inspect": f"error: instance_id {inst_id!r} is in both {copy / cli.TRAIN_FILE} "
                   f"and {copy / cli.VAL_FILE}",
    }[command]
    assert not out.exists()  # nothing written, not even the directory


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_lr(tmp_path, capsys, value):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(out), *_FAST, "--lr", value]) == 2
    assert "lr must be finite" in _one_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_non_finite_checkpoint_parameter_is_refused(trained_run, tmp_path, capsys, command):
    data, ckpt = trained_run
    run = tmp_path / "run"
    shutil.copytree(ckpt.parent, run)
    state = read_checkpoint(ckpt)
    state["reduce.clf.bias"] = np.full_like(state["reduce.clf.bias"], np.nan)
    bad = run / ckpt.name
    write_checkpoint(bad, state)
    inst_id = json.loads((data / cli.TRAIN_FILE).read_text().splitlines()[0])["instance_id"]
    traces = tmp_path / "traces"
    argv = {
        "eval": ["eval", "--ckpt", str(bad), "--data", str(data / cli.TRAIN_FILE)],
        "inspect": ["inspect", "--ckpt", str(bad), "--data", str(data),
                    "--instance-id", inst_id, "--out", str(traces)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    error = _one_error(capsys)
    assert str(bad) in error and "reduce.clf.bias" in error
    assert not traces.exists()


@pytest.mark.parametrize("container", ["features", "model"])
def test_eval_reports_an_overflowing_extent(trained_run, tmp_path, capsys, container):
    data, ckpt = trained_run
    copy, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(data, copy)
    shutil.copytree(ckpt.parent, run)
    bad = {"features": copy / cli.FEATURES_FILE, "model": run / ckpt.name}[container]
    write_overflowing_container(bad)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / ckpt.name),
                 "--data", str(copy / cli.TRAIN_FILE)]) == 1
    assert _one_error(capsys).startswith(f"error: truncated container {bad} at byte ")


@pytest.mark.parametrize("container", ["features", "model"])
def test_eval_reports_an_empty_entry_too_large_for_an_array(
        trained_run, tmp_path, capsys, container):
    data, ckpt = trained_run
    copy, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(data, copy)
    shutil.copytree(ckpt.parent, run)
    bad = {"features": copy / cli.FEATURES_FILE, "model": run / ckpt.name}[container]
    write_overflowing_container(bad, (0, 2 ** 32 - 1, 2 ** 32 - 1))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / ckpt.name),
                 "--data", str(copy / cli.TRAIN_FILE)]) == 1
    assert _one_error(capsys).startswith(
        f"error: {bad} entry 'w' has shape (0, 4294967295, 4294967295)")


@pytest.mark.parametrize("container", ["features", "model"])
def test_eval_reports_an_unknown_dtype_tag(trained_run, tmp_path, capsys, container):
    data, ckpt = trained_run
    copy, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(data, copy)
    shutil.copytree(ckpt.parent, run)
    bad = {"features": copy / cli.FEATURES_FILE, "model": run / ckpt.name}[container]
    # the first entry's dtype byte follows its u16 name length and its name
    blob = bytearray(bad.read_bytes())
    at = len(MAGIC) + 8
    (name_len,) = struct.unpack_from("<H", blob, at)
    name = blob[at + 2:at + 2 + name_len].decode("utf-8")
    blob[at + 2 + name_len] = 7
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / ckpt.name),
                 "--data", str(copy / cli.TRAIN_FILE)]) == 1
    assert _one_error(capsys) == f"error: {bad} entry {name!r} has unknown dtype tag 7"

def test_eval_reports_a_repeated_feature_entry(trained_run, tmp_path, capsys):
    # a second copy of the last instance's features must not replace the first
    data, ckpt = trained_run
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    features = copy / cli.FEATURES_FILE
    name, objects = list(read_checkpoint(features).items())[-1]
    append_entry(features, name, objects + 1.0)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(copy / cli.VAL_FILE)]) == 1
    assert _one_error(capsys) == f"error: {features} has entry {name!r} twice"


_NOT_UTF8 = b"\xff\xfe"


def _annotation_byte(data, run, tmp_path):
    path = data / "bad.jsonl"
    lines = (data / cli.TRAIN_FILE).read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + _NOT_UTF8 + lines[1])
    return (["eval", "--ckpt", str(run / "model.canckpt"), "--data", str(path)], 1,
            f"{path} line 2: not UTF-8")


def _data_directory(data, run, tmp_path):
    return ["eval", "--ckpt", str(run / "model.canckpt"), "--data", str(data)], 2, str(data)


def _config_directory(data, run, tmp_path):
    return (["train", "--data", str(data), "--out", str(tmp_path / "out"), "--config",
             str(tmp_path)], 2, str(tmp_path))


def _config_file_byte(data, run, tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"epochs": 1,\n' + _NOT_UTF8 + b"}\n")
    return (["train", "--data", str(data), "--out", str(tmp_path / "out"), "--config",
             str(path)], 2, str(path))


def _entry_byte(name):
    def case(data, run, tmp_path):
        path = run / "model.canckpt"
        set_entry(path, name, _NOT_UTF8 + entry_bytes(path, name))
        return (["eval", "--ckpt", str(path), "--data", str(data / cli.TRAIN_FILE)], 1,
                f"{path}: entry {name!r}: 'utf-8' codec can't decode")
    return case


def _feature_entry_name(data, run, tmp_path):
    path = data / cli.FEATURES_FILE
    blob = path.read_bytes()
    at = blob.index(b"objects/")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    return (["eval", "--ckpt", str(run / "model.canckpt"), "--data",
             str(data / cli.TRAIN_FILE)], 1, f"{path} has an entry name at byte {at}")


@pytest.mark.parametrize(
    "case",
    [_annotation_byte, _data_directory, _config_directory, _config_file_byte,
     _entry_byte("config"), _entry_byte("vocab"), _feature_entry_name],
    ids=["annotation-byte", "data-directory", "config-directory", "config-file-byte",
         "run-config-byte", "run-vocab-byte", "feature-entry-name"],
)
def test_undecodable_or_non_file_input_is_an_error_line(trained_run, tmp_path, capsys, case):
    data, ckpt = trained_run
    data_copy, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(data, data_copy)
    shutil.copytree(ckpt.parent, run)
    argv, code, named = case(data_copy, run, tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    assert named in _one_error(capsys)
