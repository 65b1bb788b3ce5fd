"""The three benchmark workloads and their correctness gates.

Each workload prepares its inputs from a seed, then runs closed-loop rounds:
one client in one process issues the next public call only after the last
one returned. Every call becomes a `Sample`; a sample whose call raised or
whose output failed the workload's gate counts as failed.

- train-short: `train(TrainConfig(epochs=1))` on the default synthetic corpus
  (`vcrnet synth --n 32`: 32 training and 8 validation instances). The only
  workload that records a tape, runs backward and Adam, runs the in-epoch
  evaluation and writes checkpoints. One epoch per call because `train`
  stops early once it fits the training set, so more epochs would do an
  amount of work that depends on rounding.
- eval-long: per-task `VcrModel.predict` and `evaluate` over 32 long
  held-out instances (see longinputs.py) with a model trained in set-up by
  one epoch on the default corpus and reloaded through `load_run`. No tape,
  so it bypasses every backward change.
- gradcheck: `diagnostics.run_all()`, the A1 battery. Its inputs are fixed
  by the battery itself; the seed does not change them.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from vcrnet import (
    TASK_Q2A,
    TASK_QA2R,
    TrainConfig,
    diagnostics,
    evaluate,
    load_run,
    synth_generate,
    train,
)
from vcrnet.data import load_instances, save_annotations, save_features
from vcrnet.training import CHECKPOINT_NAME

from longinputs import long_instances

LN4 = math.log(4.0)
# "well above chance" for a four-way choice, whose chance level is 0.25
ACCURACY_FLOOR = 0.75
GRADCHECK_TOL = 1e-4
E2E_STAGES = tuple(f"end_to_end/{s}" for s in ("encode", "fuse", "joint", "head"))

CORPUS_TRAIN = 32
CORPUS_VAL = 8
LONG_HELDOUT = 32


@dataclass
class Sample:
    """One public call of the closed loop."""

    items: int  # work units the call completed (instances, tasks, coordinates)
    ms: float
    ok: bool
    latency: bool = True  # feeds the per-call latency percentiles
    errors: list = field(default_factory=list)


class NoSpans:
    """Stands in for a Tracer when the run is not traced."""

    def span(self, name):
        return nullcontext()

    window = span


def _timed(spans, fn):
    t0 = time.perf_counter()
    with spans.window("workload.call"):
        out = fn()
    return out, (time.perf_counter() - t0) * 1000.0


def _guarded(spans, fn, gate, items, latency=True) -> tuple:
    """Run one call and its gate; an exception is a failed sample."""
    try:
        out, ms = _timed(spans, fn)
    except Exception as exc:  # the loop must survive a failing call
        return None, Sample(items, 0.0, False, latency, [f"{type(exc).__name__}: {exc}"])
    errors = gate(out)
    return out, Sample(items, ms, not errors, latency, errors)


# -- gates -----------------------------------------------------------------


def train_gate(report, reference_core: dict, digest: str, reference_digest: str) -> list:
    errors = []
    if not math.isfinite(report.mean_loss) or report.mean_loss >= LN4:
        errors.append(f"per-task loss {report.mean_loss} is not finite and below ln 4")
    if report.val_q2a < ACCURACY_FLOOR:
        errors.append(f"val Q2A {report.val_q2a} below {ACCURACY_FLOOR}")
    if report.core() != reference_core:
        errors.append("epoch report differs from the same-seed reference call")
    if digest != reference_digest:
        errors.append("checkpoint bytes differ from the same-seed reference call")
    return errors


def record_gate(record) -> list:
    if len(record.logits) != 4 or not all(math.isfinite(v) for v in record.logits):
        return [f"{record.instance_id}/{record.task}: logits {record.logits}"]
    return []


def eval_gate(metrics: dict, q2a_records: list, qa2r_records: list) -> list:
    """Accuracy well above chance, and evaluate() agrees with predict()."""
    errors = []
    for task in ("q2a", "qa2r"):
        if metrics[task] < ACCURACY_FLOOR:
            errors.append(f"{task} {metrics[task]} below {ACCURACY_FLOOR}")
    by_id = {r.instance_id: r.correct for r in q2a_records}
    expected = {
        "q2a": sum(r.correct for r in q2a_records) / len(q2a_records),
        "qa2r": sum(r.correct for r in qa2r_records) / len(qa2r_records),
        "q2ar": sum(r.correct and by_id[r.instance_id] for r in qa2r_records)
        / len(qa2r_records),
        "n": len(q2a_records),
    }
    if metrics != expected:
        errors.append(f"evaluate() {metrics} disagrees with predict() {expected}")
    return errors


def gradcheck_gate(results: list, expected_coords: int) -> list:
    errors = []
    worst = max(r.max_rel_err for r in results)
    if not worst <= GRADCHECK_TOL:
        errors.append(f"worst relative error {worst} above {GRADCHECK_TOL}")
    names = [r.name for r in results]
    missing = [s for s in E2E_STAGES if s not in names]
    if missing:
        errors.append(f"missing stages {missing}")
    coords = sum(r.coords for r in results if r.name in E2E_STAGES)
    if coords != expected_coords:
        errors.append(f"end-to-end sweep covered {coords} of {expected_coords} coordinates")
    return errors


# -- workloads ---------------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _default_corpus(spans, seed: int) -> list:
    with spans.span("data.synth_generate"):
        return synth_generate(seed, CORPUS_TRAIN + CORPUS_VAL)


class TrainShort:
    name = "train-short"
    unit = "training instance"
    setup_repeats = 5
    traced_rounds = 2

    def __init__(self, seed: int, workdir: Path, spans=None):
        self.seed = seed
        self.workdir = workdir
        self.spans = spans or NoSpans()
        self.config = TrainConfig(epochs=1)

    def prepare(self) -> None:
        """The `vcrnet synth` + `vcrnet train` data path: generate, write, load."""
        data_dir = self.workdir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        insts = _default_corpus(self.spans, self.seed)
        save_annotations(data_dir / "train.jsonl", insts[:CORPUS_TRAIN])
        save_annotations(data_dir / "val.jsonl", insts[CORPUS_TRAIN:])
        save_features(data_dir / "features.canckpt", insts)
        with self.spans.span("data.load_instances"):
            self.train_set = load_instances(data_dir / "train.jsonl", data_dir / "features.canckpt")
            self.val_set = load_instances(data_dir / "val.jsonl", data_dir / "features.canckpt")
        self.run_dir = self.workdir / "run"

    def _call(self):
        return train(self.config, self.train_set, self.val_set, self.run_dir)

    def warm_up(self) -> None:
        # the warm-up call is also the same-seed reference for the gate
        self.reference = self._call().final_report.core()
        self.reference_digest = _digest(self.run_dir / CHECKPOINT_NAME)

    def round(self) -> list:
        def gate(result):
            digest = _digest(self.run_dir / CHECKPOINT_NAME)
            return train_gate(result.final_report, self.reference, digest,
                              self.reference_digest)

        _, sample = _guarded(self.spans, self._call, gate, len(self.train_set))
        return [sample]

    def units(self, samples: list) -> int:
        return sum(s.items for s in samples)


class EvalLong:
    name = "eval-long"
    unit = "eval task"
    setup_repeats = 3
    traced_rounds = 2

    def __init__(self, seed: int, workdir: Path, spans=None):
        self.seed = seed
        self.workdir = workdir
        self.spans = spans or NoSpans()

    def prepare(self) -> None:
        corpus = _default_corpus(self.spans, self.seed)
        run_dir = self.workdir / "run"
        train(TrainConfig(epochs=1), corpus[:CORPUS_TRAIN], corpus[CORPUS_TRAIN:], run_dir)
        self.model = load_run(run_dir / CHECKPOINT_NAME)[0]
        self.heldout = long_instances(self.seed, LONG_HELDOUT)

    def warm_up(self) -> None:
        for inst in self.heldout[:4]:
            for kind in (TASK_Q2A, TASK_QA2R):
                self.model.predict(inst, kind)

    def round(self) -> list:
        samples = []
        records = {TASK_Q2A: [], TASK_QA2R: []}
        for kind in (TASK_Q2A, TASK_QA2R):
            for inst in self.heldout:
                record, sample = _guarded(
                    self.spans, lambda: self.model.predict(inst, kind), record_gate, 1
                )
                samples.append(sample)
                if record is not None:
                    records[kind].append(record)
        n_tasks = 2 * len(self.heldout)
        complete = all(len(r) == len(self.heldout) for r in records.values())
        _, sample = _guarded(
            self.spans,
            lambda: evaluate(self.model, self.heldout),
            lambda m: eval_gate(m, records[TASK_Q2A], records[TASK_QA2R])
            if complete else ["a predict() call failed, nothing to compare"],
            n_tasks,
            latency=False,
        )
        samples.append(sample)
        return samples

    def units(self, samples: list) -> int:
        return sum(s.items for s in samples)


class Gradcheck:
    name = "gradcheck"
    unit = "A1 battery"
    setup_repeats = 5
    traced_rounds = 1

    def __init__(self, seed: int, workdir: Path, spans=None):
        self.seed = seed
        self.spans = spans or NoSpans()
        self.last_results = []

    def prepare(self) -> None:
        self.probe = diagnostics.probe_model()
        self.expected_coords = self.probe.num_parameters()

    def warm_up(self) -> None:
        self.probe.predict(diagnostics.probe_instance(), TASK_Q2A)

    def round(self) -> list:
        results, sample = _guarded(
            self.spans, diagnostics.run_all,
            lambda res: gradcheck_gate(res, self.expected_coords), 0,
        )
        if results is not None:
            sample.items = sum(r.coords for r in results)
            self.last_results = results
        return [sample]

    def units(self, samples: list) -> int:
        return len(samples)


WORKLOADS = {w.name: w for w in (TrainShort, EvalLong, Gradcheck)}
