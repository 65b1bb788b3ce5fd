"""Command-line front end: synthetic data, training, evaluation, gradient
checking, and attention-trace export.

Every subcommand is a thin wrapper over one library call. Machine-readable
reports go to stdout as line-delimited JSON; human logs go to stderr. Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from vcrnet.checkpoint import CheckpointError, write_atomic
from vcrnet.config import ConfigError, TrainConfig
from vcrnet.data import (
    TASK_Q2A,
    TASK_QA2R,
    DataError,
    load_instances,
    make_task,
    save_annotations,
    save_features,
    synth_generate,
)
from vcrnet.diagnostics import run_all
from vcrnet.model import trace_labels
from vcrnet.training import (
    CHECKPOINT_NAME,
    TrainingDiverged,
    evaluate,
    load_run,
    train,
)

log = logging.getLogger("vcrnet")

TRAIN_FILE = "train.jsonl"
VAL_FILE = "val.jsonl"
FEATURES_FILE = "features.canckpt"
GRADCHECK_TOL = 1e-4


class UsageError(Exception):
    """Bad arguments or missing inputs, detected before any work starts."""


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    if not path.is_file():
        raise UsageError(f"{what} is not a file: {path}")
    return path


def _out_dir(path: str, create: bool = True) -> Path:
    """The --out directory, created unless `create` is false; a file in its
    place, or in place of a directory above it, is a usage error."""
    out = Path(path)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise UsageError(f"--out is not a directory: {out}")
    if create:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _load_annotations(annotation_path: Path) -> list:
    _require(annotation_path, "annotation file")
    features = _require(annotation_path.parent / FEATURES_FILE, "feature file")
    return load_instances(annotation_path, features)


def cmd_synth(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    out = _out_dir(args.out)
    n_val = args.n // 4
    insts = synth_generate(args.seed, args.n + n_val)
    save_annotations(out / TRAIN_FILE, insts[:args.n])
    save_annotations(out / VAL_FILE, insts[args.n:])
    save_features(out / FEATURES_FILE, insts)
    _emit({"train": args.n, "val": n_val, "out": str(out)})
    return 0


def _assemble_config(args) -> TrainConfig:
    try:
        if args.config is not None:
            cfg = TrainConfig.read(_require(Path(args.config), "config file"))
        else:
            cfg = TrainConfig()
        overrides = {
            f.name: getattr(args, f"cfg_{f.name}")
            for f in dataclasses.fields(TrainConfig)
        }
        return cfg.with_overrides(overrides)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def cmd_train(args) -> int:
    config = _assemble_config(args)
    data_dir = Path(args.data)
    train_insts = _load_annotations(_require(data_dir / TRAIN_FILE, "training annotations"))
    val_path = data_dir / VAL_FILE
    val_insts = _load_annotations(val_path) if val_path.exists() else []

    # `train` makes the directory once it has checked the data
    out = _out_dir(args.out, create=False)

    def progress(report):
        val = ("none" if report.val_q2a is None
               else f"{report.val_q2a:.3f}/{report.val_qa2r:.3f}")
        log.info(
            "epoch %d  loss %.4f  train %.3f/%.3f  val %s  %.1f instances/s",
            report.epoch, report.mean_loss, report.train_q2a,
            report.train_qa2r, val, report.instances_per_s,
        )
        _emit(report.to_json_dict())

    result = train(config, train_insts, val_insts, out, progress=progress)
    _emit({
        "metric": "accuracy",
        "train": result.train_metrics,
        "val": result.val_metrics,
        "checkpoint": str(out / CHECKPOINT_NAME),
    })
    return 0


def cmd_eval(args) -> int:
    ckpt = _require(Path(args.ckpt), "checkpoint")
    annotations = _require(Path(args.data), "annotation file")
    model, _, _ = load_run(ckpt)
    insts = _load_annotations(annotations)
    if not insts:
        raise UsageError(f"no instances in {annotations}")
    _emit({"metric": "accuracy", "data": str(annotations), **evaluate(model, insts)})
    return 0


def cmd_gradcheck(args) -> int:
    errors = []
    for result in run_all():
        _emit(result.to_json_dict())
        errors.append(float(result.max_rel_err))
    # a NaN fails the battery; a non-finite worst is written as null
    passed = all(err <= GRADCHECK_TOL for err in errors)
    worst = max(errors, default=0.0) if all(map(math.isfinite, errors)) else None
    _emit({"worst": worst, "tol": GRADCHECK_TOL, "passed": passed})
    return 0 if passed else 1


def cmd_inspect(args) -> int:
    ckpt = _require(Path(args.ckpt), "checkpoint")
    data_dir = Path(args.data)
    _require(data_dir / FEATURES_FILE, "feature file")
    found = {}  # instance_id -> (instance, its annotation file)
    for name in (TRAIN_FILE, VAL_FILE):
        path = data_dir / name
        if not path.exists():
            continue
        for inst in _load_annotations(path):
            if inst.instance_id in found:
                raise DataError(f"instance_id {inst.instance_id!r} is in both "
                                f"{found[inst.instance_id][1]} and {path}")
            found[inst.instance_id] = inst, path
    if not found:
        raise UsageError(f"no annotation files in {data_dir}")
    if args.instance_id not in found:
        raise UsageError(f"unknown instance id {args.instance_id!r}")
    inst = found[args.instance_id][0]

    model, _, _ = load_run(ckpt)
    out = _out_dir(args.out)
    written = []
    for task in (TASK_Q2A, TASK_QA2R):
        fwd = model.forward_chunk([make_task(inst, task)])
        record = fwd.records()[0]
        blobs = {}
        for trace in fwd.traces:
            labels = trace_labels(trace, record.pred, fwd.examples[0], inst.object_labels)
            blobs[trace.unit] = trace.row(record.pred).to_json_dict(*labels)
        blobs["prediction"] = record.to_json_dict()
        for name, blob in blobs.items():
            path = out / f"{task}.{name}.json"
            write_atomic(path, json.dumps(blob, sort_keys=True).encode("utf-8"))
            written.append(str(path))
    _emit({"instance": inst.instance_id, "files": written})
    return 0


def _bool_flag(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return lowered == "true"


_FLAG_TYPES = {"int": int, "float": float, "bool": _bool_flag, "str": str}


def _add_config_flags(sub) -> None:
    group = sub.add_argument_group("config overrides (flag > file > default)")
    for f in dataclasses.fields(TrainConfig):
        group.add_argument(
            f"--{f.name.replace('_', '-')}",
            dest=f"cfg_{f.name}",
            type=_FLAG_TYPES[str(f.type)],
            default=None,
            metavar=str(f.type).upper(),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcrnet",
        description="Train and inspect an attention network for multiple-choice "
                    "visual questions over a synthetic corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n", type=int, required=True, help="training instances; val gets n//4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on a synth directory")
    p.add_argument("--config", default=None,
                   help="JSON config file, such as a run's config.json; flags win")
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on an annotation file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True,
                   help="annotation .jsonl; features.canckpt expected beside it")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the full gradient battery")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="export attention traces for one instance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--instance-id", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DataError, CheckpointError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
