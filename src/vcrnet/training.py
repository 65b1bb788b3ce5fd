"""Optimizer, loss, and the training and evaluation loops.

Each instance contributes a joint loss: cross-entropy for answer selection
plus cross-entropy for rationale selection. A mini-batch's tasks are scored
in chunks (see `model.chunked`), one taped forward and backward per chunk,
and its loss is the sum of its task losses over the number of instances,
so the gradients are averaged over instances before every update. Adam
updates the model's flat parameter buffer in place, in one step. One
checkpoint and one report line are written per epoch; reported losses are
per-task means, so an untrained model starts at ln 4.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from vcrnet import tensor as T
from vcrnet.checkpoint import CheckpointError, read_checkpoint, write_atomic
from vcrnet.config import TrainConfig
from vcrnet.data import (
    TASK_Q2A,
    TASK_QA2R,
    DataError,
    VcrInstance,
    Vocab,
    make_task,
    metrics_report,
)
from vcrnet.model import VcrModel, chunked, task_lengths
from vcrnet.tensor import Tape, Tensor

CHECKPOINT_NAME = "model.canckpt"
CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.json"
LOG_NAME = "train_log.jsonl"


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries the reports so far."""

    def __init__(self, message: str, reports: list):
        super().__init__(message)
        self.reports = reports


def task_loss(logits: Tensor, gold) -> Tensor:
    """Four-way cross-entropy, the negative log softmax probability of gold.

    (4,) logits with one gold index give a scalar; (n, 4) logits with n
    gold indices give the (n,) losses of n tasks. One fused tape entry.
    """
    golds = np.asarray(gold)
    shape = logits.data.shape
    if golds.shape != shape[:-1] or golds.dtype.kind not in "iu":
        raise DataError(f"gold indices {golds.tolist()} do not fit logits of shape {shape}")
    n = shape[-1]
    if ((golds < 0) | (golds >= n)).any():
        raise DataError(f"gold index {golds.tolist()} out of range for {n} candidates")
    pick = np.zeros(shape)
    np.put_along_axis(pick, golds[..., None], 1.0, axis=-1)
    x = logits.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    picked = (probs * pick).sum(axis=-1)

    # the chain rule through negation, log, the gold pick and softmax, step by
    # step: the shorter g * (probs - pick) rounds differently, and after many
    # Adam steps that changes the bytes of a same-seed checkpoint
    def rule(g):
        d_probs = (-g / picked)[..., None] * pick
        return (probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True)),)

    return T.record_op(-np.log(picked), (logits,), rule)


class Adam:
    """Adam with bias correction (Kingma & Ba, arXiv:1412.6980) over a
    model's flat parameter buffer: one elementwise update per step."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: VcrModel, lr: float):
        self.model = model
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(model.flat)
        self._v = np.zeros_like(model.flat)

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        g = self.model.flat_grad()
        m = self._m = self.BETA1 * self._m + (1.0 - self.BETA1) * g
        v = self._v = self.BETA2 * self._v + (1.0 - self.BETA2) * g * g
        self.model.flat -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


@dataclass
class EpochReport:
    epoch: int
    mean_loss: float
    train_q2a: float
    train_qa2r: float
    val_q2a: Optional[float]  # None without a validation set
    val_qa2r: Optional[float]
    wall_time: float
    instances_per_s: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def core(self) -> dict:
        """All fields except the timings, which cannot reproduce across runs."""
        d = dataclasses.asdict(self)
        d.pop("wall_time")
        d.pop("instances_per_s")
        return d


@dataclass
class TrainResult:
    """The fitted model and its reports; train_metrics and val_metrics are the
    full `metrics_report` of the final weights, scored in the last epoch
    (val_metrics is None without a validation set)."""

    model: VcrModel
    vocab: Vocab
    reports: list
    out_dir: Path
    train_metrics: dict
    val_metrics: Optional[dict]

    @property
    def final_report(self) -> EpochReport:
        return self.reports[-1]


def predict_all(model: VcrModel, instances: Sequence[VcrInstance]) -> tuple:
    """Greedy (Q2A, QA2R) predictions over a dataset, each list in data order.

    The tasks are scored untaped, sorted by `task_lengths` and cut by
    `chunked`, so that tasks of like length share a chunk. A logit depends
    on its chunk's other tasks only in the last bits: products over a
    padded width round differently from those over the task's own width,
    so a record here can differ from `model.predict`'s by about 1e-16. A
    task's non-finite features stay in its own logits exactly. Before any
    forward runs, each instance is validated, checked for a repeated id
    and for its object width, in data order, so an error names the first
    malformed instance.
    """
    seen = set()
    for inst in instances:
        inst.validate()
        if inst.instance_id in seen:
            raise DataError(f"{inst.instance_id}: duplicate instance_id")
        seen.add(inst.instance_id)
        model.check_object_width(inst.instance_id, inst.objects)
    tasks = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R) for inst in instances]
    order = sorted(range(len(tasks)), key=lambda i: task_lengths(tasks[i]))
    scored = (rec for chunk in chunked([tasks[i] for i in order])
              for rec in model.forward_chunk(chunk).records())
    records = [None] * len(tasks)
    for i, rec in zip(order, scored):
        records[i] = rec
    return records[:len(instances)], records[len(instances):]


def evaluate(model: VcrModel, instances: Sequence[VcrInstance]) -> dict:
    q2a, qa2r = predict_all(model, instances)
    return metrics_report(q2a, qa2r)


def _object_width(instances: Sequence[VcrInstance]) -> int:
    widths = {inst.objects.shape[1] for inst in instances}
    if len(widths) != 1:
        raise DataError(f"inconsistent object feature widths: {sorted(widths)}")
    return widths.pop()


def _divergence(epoch: int, instance_id: str, tape: Tape) -> str:
    """Name the epoch, the instance and the first op whose output went non-finite."""
    msg = f"non-finite loss at epoch {epoch}, instance {instance_id}"
    found = tape.first_non_finite()
    if found is not None:
        index, kind = found
        msg += f": first non-finite output from op {kind} (tape entry {index} of {len(tape)})"
    return msg


def train(
    config: TrainConfig,
    train_insts: Sequence[VcrInstance],
    val_insts: Sequence[VcrInstance],
    out_dir,
    progress: Optional[Callable[[EpochReport], None]] = None,
) -> TrainResult:
    """Fit a fresh model; writes config, vocab, per-epoch checkpoint and log.

    Stops early when the validation answer accuracy fails to improve for
    `patience` epochs (without a validation set, patience does not apply),
    or as soon as the training set is fit perfectly. It keeps the last
    epoch's weights, not the best epoch's: the checkpoint, the returned
    model, its metrics and the last log line all describe those weights.
    Raises DataError if an instance is in both sets, TrainingDiverged on a
    non-finite loss.
    """
    config.validate()
    if not train_insts:
        raise DataError("cannot train on an empty dataset")
    shared = sorted({i.instance_id for i in train_insts} & {i.instance_id for i in val_insts})
    if shared:
        raise DataError(f"instance_id {shared[0]!r} is in both the training and validation sets")

    vocab = Vocab.build(train_insts)
    d_o = _object_width(list(train_insts) + list(val_insts))
    rng = np.random.default_rng(config.seed)
    model = VcrModel.build(config, vocab, d_o, rng)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / CONFIG_NAME, (config.to_json() + "\n").encode("utf-8"))
    write_atomic(out_dir / VOCAB_NAME, (vocab.to_json() + "\n").encode("utf-8"))
    log_path = out_dir / LOG_NAME
    log_path.write_text("", encoding="utf-8")

    opt = Adam(model, lr=config.lr)
    reports: list = []
    best_val = -math.inf
    best_epoch = 0

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_insts))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_insts[idx] for idx in order[start:start + config.batch_size]]
            tasks = [make_task(inst, kind) for inst in batch for kind in (TASK_Q2A, TASK_QA2R)]
            model.zero_grad()
            for chunk in chunked(tasks):
                with Tape() as tape:
                    # only the logits: the attention traces then die with the
                    # rules that hold their weights, as the backward runs
                    logits = model.forward_chunk(chunk, rng).logits
                    losses = task_loss(logits, [ex.gold for ex in chunk])
                    bad = np.flatnonzero(~np.isfinite(losses.data))
                    if bad.size:
                        instance_id = chunk[bad[0]].instance_id
                        raise TrainingDiverged(_divergence(epoch, instance_id, tape), reports)
                    loss_sum += float(losses.data.sum())
                    tape.seed(losses, np.full(losses.data.shape, 1.0 / len(batch)))
            opt.step()

        train_metrics = evaluate(model, train_insts)
        val_metrics = evaluate(model, val_insts) if val_insts else None
        wall_time = time.perf_counter() - t0
        report = EpochReport(
            epoch=epoch,
            mean_loss=loss_sum / (2 * len(train_insts)),
            train_q2a=train_metrics["q2a"],
            train_qa2r=train_metrics["qa2r"],
            val_q2a=val_metrics["q2a"] if val_metrics else None,
            val_qa2r=val_metrics["qa2r"] if val_metrics else None,
            wall_time=wall_time,
            instances_per_s=len(train_insts) / wall_time,
        )
        reports.append(report)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
        model.save(out_dir / CHECKPOINT_NAME)
        if progress is not None:
            progress(report)

        if report.train_q2a == 1.0 and report.train_qa2r == 1.0:
            break
        if val_metrics is None:
            continue
        if report.val_q2a > best_val:
            best_val = report.val_q2a
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break

    return TrainResult(model=model, vocab=vocab, reports=reports, out_dir=out_dir,
                       train_metrics=train_metrics, val_metrics=val_metrics)


def load_run(ckpt_path) -> tuple:
    """Rebuild (model, config, vocab) from a checkpoint and its sidecar files.

    The config and vocabulary are expected beside the checkpoint under their
    standard names.
    """
    ckpt_path = Path(ckpt_path)
    if not ckpt_path.is_file():
        raise FileNotFoundError(f"no checkpoint at {ckpt_path}")
    config_path, vocab_path = ckpt_path.parent / CONFIG_NAME, ckpt_path.parent / VOCAB_NAME
    for path in (config_path, vocab_path):
        if not path.is_file():
            raise FileNotFoundError(f"missing sidecar file {path}")
    config = TrainConfig.read(config_path)
    try:
        vocab = Vocab.from_json(vocab_path.read_text(encoding="utf-8"))
    except (DataError, UnicodeDecodeError) as exc:
        raise DataError(f"{vocab_path}: {exc}") from exc
    arrays = read_checkpoint(ckpt_path)  # its errors name the file already
    try:
        return VcrModel.from_state(config, vocab, arrays), config, vocab
    except CheckpointError as exc:
        raise CheckpointError(f"{ckpt_path}: {exc}") from exc
