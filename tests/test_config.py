import json

import pytest

from helpers import entry_bytes, set_entry

import vcrnet.cli as cli
from vcrnet.config import ConfigError, TrainConfig
from vcrnet.data import synth_generate
from vcrnet.training import CHECKPOINT_NAME, train


def test_defaults_validate():
    cfg = TrainConfig()
    cfg.validate()
    assert cfg.layers == 2
    assert cfg.batch_size == 8
    assert cfg.lr == 1e-3
    assert cfg.seed == 7
    assert cfg.ga is True
    assert cfg.encoder == "coattention"


@pytest.mark.parametrize("field,value", [
    ("lr", -0.1),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("epochs", 0),
    ("batch_size", 0),
    ("layers", 0),
    ("heads", 0),
    ("d_model", 15),
    ("d_model", 0),
    ("heads", 3),
    ("dropout", 1.0),
    ("dropout", -0.5),
    ("encoder", "transformer"),
    ("patience", 0),
])
def test_bad_values_rejected(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value}).validate()


def test_heads_must_divide_d_model():
    TrainConfig(d_model=12, heads=3).validate()
    with pytest.raises(ConfigError):
        TrainConfig(d_model=12, heads=5).validate()


def test_json_round_trip():
    cfg = TrainConfig(d_model=8, heads=2, layers=1, dropout=0.0, seed=3)
    again = TrainConfig.from_json(cfg.to_json())
    assert again == cfg
    # keys are sorted so serialized configs diff cleanly
    keys = list(json.loads(cfg.to_json()))
    assert keys == sorted(keys)


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        TrainConfig.from_mapping({"lr": 0.01, "momentum": 0.9})


@pytest.mark.parametrize("field,value", [
    ("lr", "abc"),
    ("lr", True),
    ("epochs", "3"),
    ("epochs", 3.0),
    ("epochs", True),
    ("ga", "yes"),
    ("ga", 1),
    ("encoder", 3),
])
def test_from_mapping_rejects_mistyped_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig.from_mapping({field: value})


def test_from_mapping_accepts_int_for_float():
    cfg = TrainConfig.from_mapping({"lr": 1, "dropout": 0})
    assert cfg.lr == 1.0 and isinstance(cfg.lr, float)
    assert cfg.dropout == 0.0 and isinstance(cfg.dropout, float)


@pytest.mark.parametrize("blob", ["{not json", "[1, 2]"])
def test_from_json_rejects_malformed_blobs(blob):
    with pytest.raises(ConfigError):
        TrainConfig.from_json(blob)


@pytest.mark.parametrize("blob", ['{"lr": NaN}', '{"lr": Infinity}'])
def test_from_json_rejects_non_finite_lr(blob):
    # json.loads accepts these constants, so the check is the config's own
    with pytest.raises(ConfigError, match="lr must be finite"):
        TrainConfig.from_json(blob)


def _set_config_key(key, value):
    def corrupt(blob):
        return json.dumps({**json.loads(blob), key: value}).encode("utf-8")

    return corrupt


def _assert_eval_fails_on_entry(tmp_path, capsys, entry, corrupt, expected):
    insts = synth_generate(3, 4)
    config = TrainConfig(d_model=8, d_token=8, layers=1, dropout=0.0, epochs=1)
    run = tmp_path / "run"
    train(config, insts, [], run)
    data = tmp_path / "data.jsonl"
    data.write_text("")
    ckpt = run / CHECKPOINT_NAME
    set_entry(ckpt, entry, corrupt(entry_bytes(ckpt, entry)))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1 and expected in errors[0]
    assert errors[0].startswith(f"error: {ckpt}: entry {entry!r}: ")
    assert not any("Traceback" in line for line in err)


def test_eval_reports_mistyped_config_value(tmp_path, capsys):
    _assert_eval_fails_on_entry(tmp_path, capsys, "config",
                                _set_config_key("lr", "abc"), "lr must be float")


@pytest.mark.parametrize("entry,corrupt,expected", [
    # a config written while the six removed architecture keys existed
    ("config", _set_config_key("ga_order", "qr_first"), "unknown config keys"),
    ("vocab", lambda blob: b'{"bad": ', "not valid JSON"),
    # valid JSON, but nested deeper than the parser recurses
    ("config", lambda blob: b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
], ids=["removed-key", "vocab-truncated", "config-too-deep"])
def test_eval_reports_corrupt_run_sidecar(tmp_path, capsys, entry, corrupt, expected):
    _assert_eval_fails_on_entry(tmp_path, capsys, entry, corrupt, expected)


def test_with_overrides_skips_none():
    cfg = TrainConfig()
    out = cfg.with_overrides({"lr": None, "epochs": 5, "encoder": "lstm"})
    assert out.lr == cfg.lr
    assert out.epochs == 5
    assert out.encoder == "lstm"
    assert cfg.epochs == 200


def test_read_names_file_line_and_column_of_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"lr": 0.01,\n "epochs" 3}\n')
    with pytest.raises(ConfigError) as info:
        TrainConfig.read(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "line 2 column 11" in str(info.value)


def test_read_names_file_and_key_of_mistyped_value(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"heads": "2"}')
    with pytest.raises(ConfigError) as info:
        TrainConfig.read(path)
    assert str(info.value).startswith(f"{path}: heads must be int")
